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
    ({!Grid.est_disp} minus the grid-cached {!Grid.cur_disp}), plus
    the Eq. 7 congestion term on D2D edges, clamped at 0 when the
    configuration forbids negative costs. *)

val select :
  ?util_probe:(die:int -> inflow:float -> ok:bool -> unit) ->
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
    cap ({!Grid.util_ok}, §III-F).  [?util_probe] observes every
    evaluation of the utilization cap — the [die_used] comparison and its
    outcome — so the tiled legalizer can later re-evaluate the same
    comparison against drifted die totals (the only die state a selection
    reads). *)

(** {2 Selection cache}

    The path search prices the same (source bin, edge) pairs over and
    over while only the bins on one realized path change between two
    searches.  A cache keeps, per source bin, the candidate table
    (cells, held widths and their total) and, per (source bin,
    edge) slot, the candidates' unit-cost order.  A table is refilled when
    the bin's stamp ([Grid.t.stamp]) changed; an order is re-sorted when the source
    stamp changed or, on a D2D edge, the destination stamp (the Eq. 7 term
    reads its [used]).  Unit costs themselves, [need], the pick scan and
    the utilization cap are evaluated on every call. *)

type cache

val create_cache : Grid.t -> cache
(** An empty cache for searches on [grid] or on any clone of it (the
    slots follow [grid]'s adjacency).  Not shared between domains. *)

val select_cached :
  ?util_probe:(die:int -> inflow:float -> ok:bool -> unit) ->
  cache ->
  Config.t ->
  Grid.t ->
  src:Grid.bin ->
  edge:int ->
  need:float ->
  selection option
(** [select_cached c cfg grid ~src ~edge ~need] is
    [select cfg grid ~src ~dst ~kind ~need] for the [edge]-th out-edge of
    [src] ([grid.edges.(src.id).(edge)], giving [dst] and [kind]), with
    the table and the order taken from [c] when still valid.  Bins with
    more than 256 candidates are priced from scratch.  A configuration
    other than the one the orders were sorted under (compared physically)
    empties every slot first. *)

val priced : cache -> int
(** Orders sorted so far by [c]: slot refills plus from-scratch pricings
    of oversized bins. *)
