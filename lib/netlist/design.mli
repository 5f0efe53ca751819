(** A complete 3D-IC design: die stack, movable cells, macro blockages, nets.

    The design is immutable; candidate and final placements live in
    {!Placement.t} so that several legalizers can run on the same design. *)

type t = {
  name : string;
  dies : Die.t array;
  cells : Cell.t array;
  macros : Blockage.t array;
  nets : Net.t array;
}

val make :
  name:string ->
  dies:Die.t array ->
  cells:Cell.t array ->
  ?macros:Blockage.t array ->
  ?nets:Net.t array ->
  unit ->
  t
(** Builds a design.  [macros] and [nets] default to empty. *)

val n_dies : t -> int
val n_cells : t -> int

val die : t -> int -> Die.t
val cell : t -> int -> Cell.t

val avg_cell_width : t -> int -> float
(** [avg_cell_width t die] is the mean cell width w̄_c measured with each
    cell's width on [die]; used to choose the bin width (§III-F). *)

val validate : t -> (unit, string list) result
(** Structural checks: cell ids dense and ordered, width arrays matching the
    die count, macros inside their die outline and mutually non-overlapping,
    net pins referencing existing cells. *)
