(** Abacus PlaceRow (§III-D, Spindler et al. [4]): given the cells assigned
    to one row segment, find overlap-free x positions minimizing the
    width-weighted quadratic movement from desired positions, in linear
    time via cluster merging.

    Also used standalone by the Abacus baseline legalizer. *)

type row
(** One segment's cells and the buffers of placing them, reused across
    segments: {!clear}, {!add} every cell, {!place}, then read
    {!placed_x}.  Buffers only grow, so a warm row allocates nothing. *)

val create : unit -> row

val clear : row -> unit

val add : row -> cell:int -> x:int -> w:int -> unit
(** Appends a cell with desired x [x] and width [w]; inputs are numbered
    from 0 in the order added. *)

val length : row -> int

val cell : row -> int -> int
(** [cell r i] is the cell of input [i]. *)

val place :
  row -> weight:float array -> site:int -> anchor:int -> lo:int -> hi:int -> unit
(** Places the inputs inside [\[lo, hi)].  Cluster weights are
    [width × weight.(cell)] ([weight] is indexed by cell id;
    timing-critical cells move less).  Legal x positions are congruent to
    [anchor] modulo [site].  Cells are ordered by desired x (ties by cell
    id) and never reordered, as in Abacus.  If the total width exceeds
    the segment, the excess overlaps at the boundary (the caller's flow
    legalization prevents this). *)

val placed_x : row -> int -> int
(** [placed_x r i] is input [i]'s x after the last {!place}. *)
