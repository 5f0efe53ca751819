(** DEF-lite: the design half of the DEF/LEF interchange
    ({!Lef} is the library half).

    Reader/writer for the DEF subset real flows exchange between stages
    (the DATC RDF / OpenROAD open-flow contract), plus lossless
    converters to and from the internal design model so an imported
    open design runs through the whole pipeline — legalize, ECO, serve —
    and exports back out.  Grammar accepted:

    {v
    VERSION <v> ;  DIVIDERCHAR <s> ;  BUSBITCHARS <s> ;   (skipped)
    DESIGN <name> ;
    UNITS DISTANCE MICRONS <dbu> ;
    DIEAREA ( <x1> <y1> ) ( <x2> <y2> ) ;
    ROW <name> <site> <x> <y> <orient> DO <nx> BY 1 [STEP <sx> <sy>] ;
    COMPONENTS <n> ;
      - <comp> <macro> [+ PLACED ( <x> <y> ) <orient>
                        |+ FIXED ( <x> <y> ) <orient>
                        |+ UNPLACED] ;
    END COMPONENTS
    PINS <n> ;
      - <pin> + NET <net> [+ DIRECTION <dir>] [+ USE <use>]
        [+ PLACED|FIXED ( <x> <y> ) <orient>] [+ LAYER ...] ;
    END PINS
    NETS <n> ;
      - <net> ( <comp> <pin> | PIN <extpin> )* ;
    END NETS
    BLOCKAGES <n> ;
      - PLACEMENT RECT ( <x1> <y1> ) ( <x2> <y2> ) ;
    END BLOCKAGES
    END DESIGN
    v}

    A stacked design is a {e pair} (generally an n-tuple) of DEF files
    against one LEF, one file per die — how 3D flows split a design
    today.  Three extension comments keep the pairing and the data DEF
    cannot express, all ignored by ordinary DEF tools:

    - [# tdflow.die <i> of <n>] — which die this file describes (files
      otherwise pair in argument order);
    - [# tdflow.max_util <u>] — the die's utilization cap (§III-F);
    - [# tdflow.gp <comp> <x> <y> <z> [<weight>]] — the cell's
      global-placement seed, continuous die coordinate and optional
      movement weight; without it the placed position seeds the cell
      and [z] defaults to the file's die index.

    Subset limits (documented, typed errors otherwise): DIEAREA must be
    a two-point box, rows must all reference one LEF site per file,
    orientations other than [N] are parsed but not modeled, external
    PINS are parsed and re-emitted but carry no cells, and SPECIALNETS /
    TRACKS / VIAS / GCELLGRID are not in the subset. *)

type status = Placed | Fixed | Unplaced

(** An external (top-level) pin from the PINS section. *)
type pin = {
  p_name : string;
  p_net : string;
  p_dir : string;  (** [""] when the DEF carries no DIRECTION *)
  p_use : string;  (** [""] when the DEF carries no USE *)
  p_status : status;
  p_x : int;
  p_y : int;
  p_orient : string;
}

type row = {
  r_name : string;
  r_site : string;
  r_x : int;
  r_y : int;
  r_orient : string;
  r_count : int;
  r_step : int;  (** 0 when the ROW carries no STEP *)
}

(** One DEF file, flat and index-keyed.  The component, macro,
    orientation, net and net-pin names live once each in [names]; the
    columns hold their numbers.  Components, net connections and [tdflow.gp]
    seeds are parallel arrays in file order.  The record is private:
    {!read} and {!of_design} build it, so its columns always fit
    together. *)
type t = private {
  design : string;
  units : int;  (** UNITS DISTANCE MICRONS *)
  diearea : Tdf_geometry.Rect.t;
  rows : row list;
  names : string array;
      (** the file's name table: each distinct component, macro,
          orientation, net and net-pin name once ({!read} numbers them in
          order of first mention) *)
  comp_name : int array;  (** COMPONENTS, one entry per component *)
  comp_macro : int array;
  comp_status : status array;
  comp_x : int array;
  comp_y : int array;  (** [comp_x]/[comp_y] are 0 when [Unplaced] *)
  comp_orient : int array;  (** [-1] when [Unplaced] *)
  pins : pin list;
  net_name : int array;  (** NETS, one entry per net *)
  net_start : int array;
      (** net [k]'s connections are entries [net_start.(k)] to
          [net_start.(k + 1) - 1] of [net_comp]/[net_pin]; one longer
          than [net_name] *)
  net_comp : int array;  (** the connection's component, or [-1] for [( PIN <p> )] *)
  net_pin : int array;  (** the component's pin, or the external pin *)
  blockages : Tdf_geometry.Rect.t list;  (** PLACEMENT blockages *)
  die : int option;  (** [# tdflow.die] index *)
  n_dies : int option;  (** the [of <n>] half of [# tdflow.die] *)
  max_util : float option;  (** [# tdflow.max_util] *)
  gp_comp : int array;  (** [# tdflow.gp] seeds, one entry per comment *)
  gp_x : int array;
  gp_y : int array;
  gp_z : float array;
  gp_w : float array;  (** 1.0 when the comment gives no weight *)
}

val read : string -> (t, string) result
(** Parse one DEF file; [Error "line %d: ..."] on malformed input. *)

val to_string : t -> string
(** Canonical form (deterministic: equal values render byte-identically):
    header comments, DESIGN/UNITS/DIEAREA, rows, COMPONENTS, the
    [tdflow.gp] block, then PINS / NETS / BLOCKAGES — each section
    emitted only when non-empty. *)

val load : string -> (t, string) result

val save : string -> t -> unit
(** {!to_string} written to a file path with one [output]. *)

val read_exn : string -> t

val load_exn : string -> t

(** {1 Converters}

    [to_design] and [of_design] are inverses on the canonical form:
    [of_design (to_design (of_design d p)) = of_design d p] byte-for-byte
    once rendered, which is the [export ∘ import ∘ export] determinism
    invariant CI enforces. *)

val to_design :
  lef:Lef.t ->
  t list ->
  (Tdf_netlist.Design.t * Tdf_netlist.Placement.t, string) result
(** Assemble one design from a die-ordered list of DEF files and their
    LEF.  Dies come from [tdflow.die] tags when present (all files or
    none), list order otherwise; cells take their widths from
    [tdflow.widths] or the macro SIZE; [FIXED] components and PLACEMENT
    blockages become macro blockages; nets merge across files by name;
    external-pin connections are dropped.  The returned placement holds
    every component's placed position on its die (unplaced components
    sit at their gp seed).  Typed errors for duplicate component names,
    unknown macros/sites, row-height mismatches and inconsistent
    pairing; the result is [Design.validate]d like every other reader. *)

val of_design :
  ?placement:Tdf_netlist.Placement.t ->
  Tdf_netlist.Design.t ->
  Lef.t * t list
(** Render a design (and a placement; default {!Tdf_netlist.Placement.initial})
    as one canonical LEF plus one DEF per die: sites [tdf_site_d<i>],
    cell macros [C<w0>_<w1>...] (one per distinct width vector, with
    [tdflow.widths]), blockage macros [B<w>_<h>] as [FIXED] components,
    nets in the die-0 file only.  Raises [Invalid_argument] on duplicate
    cell names (DEF components are name-keyed; see
    [Tdf_robust.Validate]'s [duplicate-cell-name] check and repair). *)
