(** The 3D grid graph G(V, E) of §II-B and the fractional cell-to-bin
    assignment Γ(v).

    Every die is divided into placement rows; macros split rows into
    segments; segments are divided into near-uniform bins of a target width
    [w_v].  Bins are the flow-network vertices.  Edges:

    - {e horizontal}: adjacent bins of the same segment (fractional cell
      moves allowed);
    - {e vertical}: bins of adjacent rows on the same die with x-overlap
      (whole-cell moves);
    - {e D2D}: bins of adjacent dies whose row spans and x spans overlap
      planarly (whole-cell moves, cell width switches to the target die).

    The structure is mutable: the legalizer moves (fractions of) cells
    between bins; [used]/[supply]/[demand] are maintained incrementally. *)

type edge_kind = Horizontal | Vertical | D2d

type edge = { dst : int; kind : edge_kind }

type bin = {
  id : int;
  die : int;
  row : int;
  seg : int;
  x : int;
  y : int;
  width : int;  (** capacity cap(v) in x units *)
  mutable used : float;  (** Σ ρ_γ·w_{c_γ} over the bin's fragments *)
}

type segment = {
  sid : int;
  s_die : int;
  s_row : int;
  s_lo : int;
  s_hi : int;
  s_bins : int array;
      (** bin ids in increasing x; the bins abut and cover [s_lo] to [s_hi] *)
}

type arena
(** The fractional assignment Γ(v): every fragment, a fractional cell
    (c_γ, ρ_γ) in one bin, in flat arrays owned by the grid and reused
    across {!reset}s.  The fractions of one cell always live in bins of a
    single segment and sum to 1.  Read it through the fragment cursors
    below; write it only through the mutations. *)

type t = private {
  mutable design : Tdf_netlist.Design.t;
      (** changed only by {!rebind}, which keeps the arrays below in step *)
  n_dies : int;
  mutable gp_x : int array;  (** cell → initial x of [design]'s cell *)
  mutable gp_y : int array;  (** cell → initial y *)
  mutable weight : float array;  (** cell → movement-cost weight *)
  mutable widths : int array;
      (** [cell * n_dies + die] → the cell's width on that die.  These four
          flat copies of [design]'s cell records are what D_c reads
          ({!cur_disp}, {!est_disp}) and what the flow-pass search prices
          with; they never change after {!build} except through
          {!rebind}. *)
  bins : bin array;
  segments : segment array;
  row_segments : int array array array;  (** die → row → segment ids (x order) *)
  edges : edge array array;  (** bin id → adjacency *)
  frags : arena;
  cell_seg : int array;  (** cell → segment id, -1 when unassigned *)
  cell_disp : int array;
      (** cell → cached {!cur_disp}, negative when stale.  Every mutation
          below invalidates the entries of the cells it touches. *)
  die_used : float array;  (** per-die Σ used *)
  die_cap : float array;  (** per-die Σ cap *)
  stamp : int array;
      (** bin id → version of everything a selection out of the bin
          prices with: its fragments, its [used], and D_c(u) of every
          cell it holds.  Every mutation below gives the bins it changed
          a fresh stamp (a fragment change in one bin also restamps every
          other bin holding that cell, whose D_c(u) moved), {!reset}
          restamps all bins.  Stamps are drawn from one process-wide
          counter, so no two grids ever show the same stamp. *)
}

val segments_of_row :
  Tdf_netlist.Design.t -> int -> int -> Tdf_geometry.Interval.t list
(** [segments_of_row design die row] is the x-extent of each placement
    segment of that row: the die outline minus the macros overlapping the
    row, in increasing x.  Shared with the baseline legalizers. *)

val build : Tdf_netlist.Design.t -> bin_width:int -> t
(** Build the empty grid (no cells assigned) with target bin width
    [bin_width] (the paper uses 10·w̄_c for legalization, 5·w̄_c for
    post-optimization). *)

val n_bins : t -> int

val cell_width : t -> cell:int -> die:int -> int
(** The cell's width on [die], read from the flat [widths] array. *)

val cap : bin -> int

(** {2 Fragment cursors}

    A fragment is an [int]; [-1] ends a walk.  A bin lists its fragments
    newest first, and removing one keeps the order of the rest: this
    order is the candidate order of a selection and the fragment
    tie-break of relief.  A cell lists its fragments most recently
    touched first (every change to a fragment moves it to the front):
    {!remove_cell} subtracts them in this order.  Walking allocates
    nothing; a cursor is valid until the next mutation. *)

val first_in_bin : t -> int -> int
(** [first_in_bin t bid] is the newest fragment of bin [bid]. *)

val next_in_bin : t -> int -> int

val first_of_cell : t -> int -> int
(** [first_of_cell t cell] is the cell's most recently touched fragment. *)

val next_of_cell : t -> int -> int

val frag_cell : t -> int -> int

val frag_bin : t -> int -> int

val frag_rho : t -> int -> float
(** ρ_γ, the share of the cell in the fragment's bin. *)

val n_frags : t -> int -> int
(** Number of fragments in a bin. *)

val read_bin : t -> int -> cells:int array -> rhos:float array -> int
(** [read_bin t bid ~cells ~rhos] writes the cell and ρ of each fragment
    of bin [bid], newest first, into [cells] and [rhos] (room for
    {!n_frags}) and returns their number: one call for a whole bin. *)

val supply : bin -> float
(** sup(v) = max(0, used − cap)  (Eq. 1). *)

val demand : bin -> float
(** dem(v) = max(0, cap − used)  (Eq. 2). *)

val has_room : bin -> int -> bool
(** [has_room b w] is [demand b >= float_of_int w]: whether the bin's
    free width takes a whole cell of width [w]. *)

val total_overflow : t -> float
(** Σ_v sup(v). *)

val overflowed_bins : t -> bin list

val die_utilization : t -> int -> float
(** Current used/capacity ratio of a die. *)

val util_ok : t -> die:int -> inflow:float -> bool
(** Whether adding [inflow] width to [die] keeps its utilization within
    the die's [max_util] cap (§III-F); always true for a die without
    capacity.  The one cap predicate of the legalizer: D2D selections
    and relief both evaluate exactly this expression. *)

val cur_disp : t -> int -> int
(** D_c(u) of Eq. 5: Manhattan distance from the cell's initial position
    to the nearest legal spot of its current fragment span (x clamped into
    the span for the cell's width on that die, y = row bottom); 0 for an
    unassigned cell.  Cached per cell and recomputed only after a mutation
    touched the cell, so repeated reads during a search cost an array
    load.  The cache belongs to the grid, never to a searcher. *)

val est_disp : t -> cell:int -> bin -> int
(** D_c(v) of Eq. 4: Manhattan distance from the cell's initial position to
    the nearest legal spot inside bin [v] (x clamped into the bin, y = row
    bottom), using the cell's width on the bin's die. *)

val find_slot : t -> die:int -> x:int -> y:int -> w:int -> (int * int) option
(** [find_slot t ~die ~x ~y ~w] finds the segment on [die] minimizing the
    Manhattan distance from [(x, y)] to a position where a width-[w] cell
    fits; returns [(segment id, clamped x)].  [None] when no segment of the
    die can hold width [w]. *)

type place_error = { pe_cell : int; pe_die : int }
(** A cell that fits in no segment of any die (checked against the
    requested die first). *)

val place_error_to_string : place_error -> string

val place_cell :
  t -> cell:int -> die:int -> x:int -> y:int -> (unit, place_error) result
(** Assign cell to its nearest bins on [die] near [(x, y)]: picks the best
    segment via {!find_slot} (falling back to the widest segment, then to
    other dies, if the cell fits nowhere on [die]) and distributes the cell
    fractionally over the bins its span overlaps, found by binary search
    over the segment's bins.  The cell must currently be unassigned.
    [Error] when no die has a segment at all — the caller (or the
    robustness layer's fallback chain) decides how to degrade. *)

val place_cell_exn : t -> cell:int -> die:int -> x:int -> y:int -> unit
(** {!place_cell}, raising [Invalid_argument] on error (for call sites
    that have already validated the design). *)

val assign_initial : t -> Tdf_netlist.Placement.t -> (unit, place_error) result
(** Assign every cell from a placement (die from [p.die], position from
    [p.x]/[p.y]), as in Fig. 3(a) / Alg. 2 line 2.  Stops at the first
    unplaceable cell. *)

val assign_initial_exn : t -> Tdf_netlist.Placement.t -> unit
(** {!assign_initial}, raising [Invalid_argument] on error. *)

val reset : t -> unit
(** Remove every cell assignment while keeping the bins, segments and
    adjacency intact, returning the grid to its just-built state.  Bumps
    the ["grid.resets"] telemetry counter.  The graph structure depends
    only on the design and the bin width, so one grid instance can be
    reset and refilled across legalization passes instead of rebuilt. *)

val reset_to : t -> Tdf_netlist.Placement.t -> (unit, place_error) result
(** [reset_to t p] is {!reset} followed by {!assign_initial}[ t p]: each
    cell placed at its target [(p.x.(c), p.y.(c))] on die [p.die.(c)] —
    the reuse counterpart of building a fresh grid and assigning a target
    placement.  The fragment arena keeps its capacity.  Stops at the
    first unplaceable cell. *)

val remove_cell : t -> cell:int -> unit
(** Remove all fractions of a cell from the grid, in the cell's list
    order. *)

val move_fraction : t -> cell:int -> src:bin -> dst:bin -> rho:float -> unit
(** Move a ρ-fraction of [cell] from [src] to its horizontally adjacent
    [dst] (same segment).  Clips to the available fraction. *)

val move_whole : t -> cell:int -> dst:bin -> unit
(** Move the complete cell (all fractions, §III-B) into [dst]; updates the
    cell's effective width when [dst] is on another die. *)

val cell_bins : t -> int -> int list
(** Ids of the bins currently holding fragments of the cell, in the
    cell's list order (empty when unassigned). *)

val dirty_region : t -> seeds:int list -> radius:int -> bool array
(** [dirty_region t ~seeds ~radius] marks every bin within [radius] BFS
    hops of a seed bin, walking all edge kinds (horizontal, vertical,
    D2D).  Out-of-range seed ids are ignored.  The result indexes by bin
    id and is the movement mask of the incremental (ECO) legalizer: a
    radius-k ball bounds everything k relay hops can touch. *)

val rebind : t -> Tdf_netlist.Design.t -> unit
(** [rebind t design] makes [design] the grid's design in place: the flat
    per-cell arrays are rebuilt from it, every cached D_c(u) is marked
    stale and every bin gets a fresh stamp, so nothing priced from the old
    anchors survives.  The assignment itself is kept.  [design] must be
    structurally the design [t] was built for — same dies, macros and cell
    count, only cell anchors, widths and weights may differ — and the cell
    and die counts are checked ([Invalid_argument] otherwise).  The record
    is private, so this is the only way to change a grid's design: a
    record copy [{ t with design }] would pair the new design with the old
    anchors. *)

val frag_rho_in : t -> cell:int -> bin -> float
(** Fraction of [cell] currently in [bin] (0 when absent). *)

val segment_of_cell : t -> int -> int
(** Segment currently holding the cell's fractions; -1 when unassigned. *)

val check_invariants : t -> (unit, string) result
(** Test hook: each segment's bins tile it left to right without gaps (the
    precondition of {!place_cell}'s binary search), per-cell Σρ = 1 (or 0
    if unassigned), single-segment
    fragments, the flat per-cell arrays equal to [design]'s cell records,
    every non-stale [cell_disp] entry equal to a from-scratch {!cur_disp},
    [used] consistent with the bin's fragments, and the arena's lists
    consistent: each fragment on its bin's list and its cell's list
    exactly once, at most one fragment per (cell, bin), bin counts
    right. *)
