(** The 3D-Flow legalizer (Algorithm 2).

    Pipeline: build the bin grid and 3D grid graph; assign cells to nearest
    bins; resolve overflowed bins in descending supply order by augmenting
    flow along the cheapest path (Alg. 1); legalize each row segment with
    Abacus PlaceRow; then run the cycle-canceling post-optimization on a
    finer grid.

    The Bonn baseline and the w/o-D2D ablation run through the same entry
    point with their {!Config} presets. *)

type stats = {
  augmentations : int;  (** augmenting paths realized *)
  expansions : int;  (** total priority-queue pops across searches *)
  d2d_cells : int;  (** cells whose final die differs from the nearest-die
                        assignment of the global placement (#Move, Table V) *)
  failed_supplies : int;  (** supply bins given up on *)
  reliefs : int;  (** direct-relocation fallbacks taken on search dead-ends *)
  residual_overflow : float;  (** Σ sup(v) left after the flow phase *)
  post_opt_rounds : int;  (** accepted post-optimization rounds *)
  complete : bool;
      (** [false] when a budget expired mid-run: the placement is the
          best effort reached before the deadline (remaining supply shows
          up in [residual_overflow]). *)
}

type result = {
  placement : Tdf_netlist.Placement.t;
  stats : stats;
}

type error =
  | No_segment of { cell : int; die : int }
      (** A cell fits in no row segment of any die; the grid cannot even
          host the initial assignment. *)
  | Injected of { site : string }
      (** A fault-injection site forced this run to fail. *)

val error_to_string : error -> string

val run :
  ?cfg:Config.t ->
  ?budget:Tdf_util.Budget.t ->
  ?start:Tdf_netlist.Placement.t ->
  Tdf_netlist.Design.t ->
  (result, error) Stdlib.result
(** The resilient entry point: legalize from [start] (default: the
    design's global placement) under an optional budget.  When the budget
    exhausts mid-flow, the supply-resolution loop and post-optimization
    wind down and the best-effort placement is returned with
    [stats.complete = false] — the run never hangs.  Structural failures
    (an unplaceable cell) are returned as [Error] instead of raising.
    Fault-injection sites: ["flow3d.flow_pass"] (forces an [Injected]
    error) and ["flow3d.timeout"] (exhausts the budget). *)

val legalize : ?cfg:Config.t -> Tdf_netlist.Design.t -> result
(** Legalize from the design's global placement (nearest-die initial
    assignment).  Raising wrapper over {!run} with no budget. *)

val legalize_from :
  ?cfg:Config.t -> Tdf_netlist.Design.t -> Tdf_netlist.Placement.t -> result
(** Legalize from an arbitrary starting placement — the incremental mode
    used by the post-optimization itself and by ECO-style flows
    ([examples/eco_incremental.exe]).  Displacement is still measured
    against the design's initial positions. *)

val flow_bin_width : Tdf_netlist.Design.t -> factor:float -> int
(** w_v = factor · w̄_c (§III-F), at least 1. *)

(** {2 Localized kernel (incremental / ECO re-legalization)}

    The two phases of one legalization pass, exposed with region masks so
    [Tdf_incremental.Eco] can re-run them over a dirty subset of the grid
    while everything outside stays frozen. *)

type pass_stats = {
  pass_augmentations : int;
  pass_expansions : int;
  pass_failed : int;  (** supply bins given up on (left overflowed) *)
  pass_reliefs : int;
  pass_complete : bool;  (** [false] when the budget expired mid-pass *)
}

val local_pass :
  ?mask:bool array ->
  Config.t ->
  budget:Tdf_util.Budget.t ->
  Tdf_grid.Grid.t ->
  pass_stats
(** Resolve the grid's overflowed bins in descending supply order (Alg. 2
    lines 4–10) on an already-assigned grid.  With [mask] (indexed by bin
    id) only masked-in supply bins are queued and neither the augmenting
    search nor the relief fallback ever touches a masked-out bin.  Without
    [mask] this is exactly the full flow pass [run] performs. *)

val place_segments :
  ?only:bool array -> Tdf_grid.Grid.t -> Tdf_netlist.Placement.t -> unit
(** Abacus PlaceRow (§III-D) on the grid's segments, writing final
    positions into the placement.  With [only] (indexed by segment id)
    untouched segments keep whatever the placement already records —
    the frozen-region half of the ECO contract. *)
