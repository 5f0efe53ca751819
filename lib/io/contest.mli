(** Reader/writer for an ICCAD-2022-contest-style input dialect.

    The ICCAD 2022/2023 "3D placement with D2D vertical connections"
    contests distribute cases in a keyword format (Technologies / LibCells
    / DieSize / Rows / Terminal / Instances / Nets).  This module
    implements a faithful dialect of that grammar so contest-shaped data
    can be imported, plus two documented extensions needed for a
    *legalization* flow (the contest format describes a placement problem
    and carries no initial positions):

    - [Place <inst> <x> <y> <z>] — the true-3D global placement the
      legalizer starts from (cells without a [Place] default to the die
      center, z = 0.5);
    - [FixedInst <inst> <libCell> <Top|Bottom> <x> <y>] — pre-placed
      macros, treated as blockages (the ICCAD-2023 extension).

    Grammar accepted (one record per line, [#] comments):
    {v
    NumTechnologies <n>
    Tech <techName> <libCellCount>
    LibCell <name> <sizeX> <sizeY>
    DieSize <lowerX> <lowerY> <upperX> <upperY>
    TopDieMaxUtil <percent>           BottomDieMaxUtil <percent>
    TopDieRows <x> <y> <len> <height> <count>
    BottomDieRows <x> <y> <len> <height> <count>
    TopDieTech <techName>             BottomDieTech <techName>
    TerminalSize <sizeX> <sizeY>      TerminalSpacing <spacing>
    NumInstances <n>
    Inst <instName> <libCellName>
    NumNets <n>
    Net <netName> <numPins>
    Pin <instName>/<libPinName>
    Place <instName> <x> <y> <z>
    FixedInst <instName> <libCellName> <Top|Bottom> <x> <y>
    v} *)

type terminal_spec = { t_size : int; t_spacing : int }

val read : string -> (Tdf_netlist.Design.t * terminal_spec option, string) result
(** Parse contest text into a design (bottom die = index 0, top = 1).
    Library-cell heights must match their die's row height. *)

val to_string : ?terminal:terminal_spec -> Tdf_netlist.Design.t -> string
(** Render a two-die design in the dialect (including [Place] records and
    [FixedInst] for macros).  Raises [Invalid_argument] unless the design
    has exactly two dies. *)

val load : string -> (Tdf_netlist.Design.t * terminal_spec option, string) result
(** Read from a file path. *)

val save : ?terminal:terminal_spec -> string -> Tdf_netlist.Design.t -> unit
(** {!to_string} written to a file path with one [output]; a design
    {!to_string} refuses leaves no file behind. *)

val read_exn : string -> Tdf_netlist.Design.t * terminal_spec option
(** Raising variant of {!read}: [Failure] with the parser's
    ["line %d: ..."] diagnostic.  Prefer {!read} in anything
    user-facing; this is for tests and scripts that want to die loudly. *)

val load_exn : string -> Tdf_netlist.Design.t * terminal_spec option
(** Raising variant of {!load}; the [Failure] message is prefixed with
    the file path ([<path>: line <n>: ...]). *)
