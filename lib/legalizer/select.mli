(** Selection of the fractional-cell set C(u, v) to move across one edge
    (Alg. 1 line 10 / §III-C).

    Shared by the path search (speculative) and the path realization
    (actual movement): both must pick the same cells given the same grid
    state.

    Across a {e horizontal} edge the cheapest fractions are moved and the
    last pick is split so the moved width is exactly the needed flow.
    Across {e vertical} / {e D2D} edges only complete cells move (all of a
    cell's fragments); cells are taken in increasing movement cost until the
    width freed in the source bin reaches the needed flow. *)

module Grid = Tdf_grid.Grid
(** Canonical grid substrate (no local shim module). *)

type pick = {
  p_cell : int;
  p_rho : float;  (** fraction moved; 1.0 for whole-cell moves *)
}

type selection = {
  picks : pick list;
  freed : float;  (** width leaving the source bin, source-die units *)
  inflow : float;  (** width entering the destination bin, dest-die units *)
  sel_cost : float;  (** total displacement cost of the movement (Eq. 5/7) *)
}

val unit_cost :
  Config.t ->
  Grid.t ->
  cell:int ->
  dst:Grid.bin ->
  kind:Grid.edge_kind ->
  float
(** cost_{u,v,c} for moving one cell toward [dst]: [D_c(v) − D_c(u)]
    ({!Grid.est_disp} minus the grid-cached {!Grid.cur_disp}) times the
    cell's weight, plus the fixed D2D cost and the Eq. 7 congestion term
    on D2D edges, clamped at 0 when the configuration forbids negative
    costs.  The reference for {!price}, which the selections use. *)

val price :
  Config.t ->
  Grid.t ->
  int array ->
  n:int ->
  dst:Grid.bin ->
  kind:Grid.edge_kind ->
  float array ->
  unit
(** [price cfg grid cells ~n ~dst ~kind uc] sets [uc.(i)] to
    [unit_cost cfg grid ~cell:cells.(i) ~dst ~kind] for [i < n], bit for
    bit: the terms that depend only on the edge are computed once, and
    each candidate reads the grid's flat per-cell arrays. *)

val sort_by_cost : float array -> int array -> int -> unit
(** [sort_by_cost uc order n] fills [order.(0 .. n-1)] with the
    permutation [Array.sort (fun i j -> Float.compare uc.(i) uc.(j))]
    gives [Array.init n Fun.id], ties included: a copy of stdlib's
    heapsort specialised to that comparison. *)

val select :
  Config.t ->
  Grid.t ->
  src:Grid.bin ->
  dst:Grid.bin ->
  kind:Grid.edge_kind ->
  need:float ->
  selection option
(** [select cfg grid ~src ~dst ~kind ~need] picks C(src, dst) shedding at
    least [need] width from [src] ([freed >= need], with equality for
    horizontal edges).  [None] when the bin cannot shed [need] width or, on
    a D2D edge, when moving would exceed the destination die's utilization
    cap ({!Grid.util_ok}, §III-F). *)

(** {2 Selection cache}

    The path search prices the same (source bin, edge) pairs over and
    over while only the bins on one realized path change between two
    searches.  A cache keeps, per source bin, the candidate table
    (cells, held widths and their total) and, per (source bin,
    edge) slot, the candidates' unit-cost order.  A table is refilled when
    the bin's stamp ([Grid.t.stamp]) changed; an order is re-sorted when the source
    stamp changed or, on a D2D edge, the destination stamp (the Eq. 7 term
    reads its [used]).  Unit costs themselves, [need], the pick scan and
    the utilization cap are evaluated on every call; the table is brought
    up to date once per source bin by {!load}. *)

type cache

val create_cache : Grid.t -> cache
(** An empty cache for searches on [grid] (the slots follow [grid]'s
    adjacency).  Not shared between domains. *)

val load : cache -> Config.t -> Grid.t -> src:Grid.bin -> need:float -> bool
(** [load c cfg grid ~src ~need] readies [c] for {!select_cost} out of
    [src]: it refills [src]'s candidate table when [src]'s stamp changed
    (after emptying every slot when [cfg] is not the configuration the
    orders were sorted under, compared physically).  [false] when the
    candidates together hold clearly less than [need], so that every
    {!select} out of [src] with this [need] is [None]. *)

type sums = {
  mutable s_freed : float;  (** width leaving the source bin *)
  mutable s_inflow : float;  (** width entering the destination bin *)
  mutable s_cost : float;  (** total movement cost *)
  mutable s_last : float;  (** fraction moved by the last pick *)
}
(** The numbers of one selection: [s_freed], [s_inflow] and [s_cost] are
    the selection's [freed], [inflow] and [sel_cost].  All fields are
    floats, so filling it allocates nothing. *)

val sums : unit -> sums
(** A zeroed {!sums}. *)

val select_cost :
  cache ->
  Config.t ->
  Grid.t ->
  src:Grid.bin ->
  edge:int ->
  need:float ->
  sums ->
  bool
(** [select_cost c cfg grid ~src ~edge ~need s] is the cost-only
    [select cfg grid ~src ~dst ~kind ~need] for the [edge]-th out-edge of
    [src] ([grid.edges.(src.id).(edge)], giving [dst] and [kind]):
    [true] when that selection exists, with its numbers written into [s],
    and no allocation.  The order comes from [c]
    when still valid; bins with more than 256 candidates are sorted
    afresh on every call.  Both run the one pick scan {!select} builds
    its picks from.  [src] must have been {!load}ed under [cfg] since its
    last change ([Invalid_argument] otherwise); [load] returning [false]
    means this returns [false] too. *)

val priced : cache -> int
(** Orders sorted so far by [c]: slot refills plus from-scratch sorts of
    oversized bins. *)
