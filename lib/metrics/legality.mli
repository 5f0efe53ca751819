(** Legality audit of a placement: every cell on a valid die, y on a row,
    x on the site grid, footprint inside one row segment (hence inside the
    outline and clear of macros), and no two cells overlapping. *)

type report = {
  n_violations : int;
  messages : string list;  (** first few violations, human-readable *)
  overlap_area : int;  (** total pairwise cell-overlap area *)
}

val check : Tdf_netlist.Design.t -> Tdf_netlist.Placement.t -> report
(** Overlap violations are reported row by row, dies in order and rows
    bottom up.  The audit derives the row segments itself (see
    {!row_segments}), so it shares no code with the legalizer it
    checks. *)

val row_segments :
  Tdf_netlist.Design.t -> int -> int -> Tdf_geometry.Interval.t list
(** [row_segments design die row]: the x-extent of each placement segment
    of the row as the audit derives it (the die outline minus the macros
    overlapping the row, in increasing x); the same intervals as
    [Tdf_grid.Grid.segments_of_row]. *)

val is_legal : Tdf_netlist.Design.t -> Tdf_netlist.Placement.t -> bool

val brief : report -> string
(** One-line human-readable summary ("legal" or a violation count with the
    first message) — what the resilient pipeline and the CLI log after
    each attempt. *)
