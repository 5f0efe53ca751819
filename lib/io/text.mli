(** Plain-text serialization of designs and placements.

    A simple line-oriented format (one record per line, `#` comments) so
    generated benchmarks and legalization results can be saved, diffed and
    reloaded; see the format grammar in the implementation header.  Round-
    tripping is exact.  Records are read one line at a time by {!Lines};
    writers render the whole file into one buffer, and [save_*] write it
    with one [output]. *)

val design_to_string : Tdf_netlist.Design.t -> string

val read_design : string -> (Tdf_netlist.Design.t, string) result
(** Parse a design from the textual form; [Error msg] on malformed input. *)

val placement_to_string :
  Tdf_netlist.Design.t -> Tdf_netlist.Placement.t -> string

val read_placement :
  Tdf_netlist.Design.t -> string -> (Tdf_netlist.Placement.t, string) result

val save_design : string -> Tdf_netlist.Design.t -> unit
(** Write to a file path. *)

val load_design : string -> (Tdf_netlist.Design.t, string) result

val save_placement :
  string -> Tdf_netlist.Design.t -> Tdf_netlist.Placement.t -> unit

val load_placement :
  string -> Tdf_netlist.Design.t -> (Tdf_netlist.Placement.t, string) result

val read_design_exn : string -> Tdf_netlist.Design.t
(** Raising variant of {!read_design} ([Failure] with the parser's
    ["line %d: ..."] diagnostic). *)

val load_design_exn : string -> Tdf_netlist.Design.t
(** Raising variant of {!load_design}; the [Failure] message is prefixed
    with the file path. *)

val load_placement_exn :
  string -> Tdf_netlist.Design.t -> Tdf_netlist.Placement.t
(** Raising variant of {!load_placement}; prefixed with the file path. *)
