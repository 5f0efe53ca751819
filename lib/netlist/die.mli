(** A die of an F2F-bonded (or generally stacked) 3D IC.

    Dies are indexed [0 .. n-1] with 0 the bottom die.  Each die has its own
    placement-row height and site width, which is how heterogeneous
    technology integration (ICCAD 2022/2023 "h" cases) is modeled. *)

type t = {
  index : int;  (** position in the stack, 0 = bottom *)
  outline : Tdf_geometry.Rect.t;  (** placeable area *)
  row_height : int;  (** h_r of this die *)
  site_width : int;  (** legal x positions are multiples of this from row start *)
  max_util : float;  (** utilization cap for D2D moves (§III-F), in (0, 1] *)
}

val make :
  index:int ->
  outline:Tdf_geometry.Rect.t ->
  row_height:int ->
  ?site_width:int ->
  ?max_util:float ->
  unit ->
  t
(** [site_width] defaults to 1, [max_util] to 1.0.  Requires a positive row
    height dividing decisions elsewhere; the outline height is truncated to a
    whole number of rows by {!num_rows}. *)

val num_rows : t -> int
(** Number of complete placement rows fitting in the outline. *)

val row_y : t -> int -> int
(** [row_y d r] is the y coordinate of row [r]'s bottom edge. *)

val nearest_row : t -> int -> int
(** Row index whose bottom edge is nearest to a (possibly unaligned) y. *)
