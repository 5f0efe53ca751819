(** Algorithm 1: shortest augmenting path with branch and bound.

    A best-first search over the 3D grid graph rooted at an overflowed bin.
    Each bin is visited at most once (line 7), so the traversal forms an
    n-ary search tree; bins are expanded in increasing path cost (line 5);
    branches costlier than [(1 + α)·cost(p_best)] are pruned (line 13).  A
    bin whose incoming flow fits its demand is a candidate leaf (line 14).

    The per-bin label arrays and the frontier heap are allocated once and
    reused across searches via epoch stamps.  The state also carries a
    {!Select.cache}, so an expansion whose source bin has not changed
    since an earlier search reuses that search's cost order. *)

module Grid = Tdf_grid.Grid
(** Canonical grid substrate (no local shim module). *)

type node = {
  pn_bin : int;  (** bin id on the path *)
  pn_flow_in : float;  (** flow(v): width moved into this bin *)
  pn_need_out : float;  (** flow(v) − dem(v): width that must leave it *)
}

type path = node list
(** Root (the supply bin) first, candidate leaf last. *)

type state
(** Reusable search labels and selection cache, created for one grid. *)

val create_state : Grid.t -> state

val search :
  ?mask:bool array ->
  Config.t ->
  Grid.t ->
  state ->
  src:Grid.bin ->
  path option
(** [search cfg grid st ~src] finds the cheapest augmenting path resolving
    the overflow of [src], or [None] when no reachable bin chain can absorb
    it.  [cfg.exhaustive] disables pruning and explores the whole reachable
    graph (vanilla Dijkstra SSP, the BonnPlaceLegal behaviour).

    [mask], when given, freezes every bin [b] with [mask.(b) = false]: the
    search never expands into masked-out bins, so realized paths stay
    inside the allowed region — the localization primitive of the
    incremental (ECO) legalizer.  [src] itself must be allowed. *)

val expansions : state -> int
(** Number of queue pops performed by the last search (profiling hook). *)
