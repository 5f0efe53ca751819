(** Generic minimum-cost maximum-flow on directed graphs.

    Successive shortest paths with Johnson potentials and blocking phases:
    each round runs one Dijkstra on exact integer reduced costs (monotone
    {!Tdf_util.Heap_radix}), then a DFS pushes flow along every
    zero-reduced-cost (i.e. shortest) path it can find, so one
    shortest-path computation feeds many augmentations.  An initial
    Bellman–Ford pass makes negative edge costs admissible.  This is the
    exact solver the paper's §III-A refers to:
    with uniform cell widths, legalization reduces exactly to this problem,
    and [examples/uniform_optimal.exe] uses it to cross-check 3D-Flow
    against provably optimal solutions.  The ECO precheck
    ([Tdf_incremental.Eco]) runs it on the dirty region's bin graph.

    {2 Solver core}

    The numeric core is split into three layers so callers on the hot path
    control allocation:

    - {!Builder} stages edges into flat growable [int array]s;
    - {!Csr} is the frozen compressed-sparse-row residual graph: five
      [int array] fields ([head]/[dst]/[cap]/[cost]/[rev]), the only
      mutable state being the residual capacities (a fresh
      {!Csr.of_builder} starts a re-solve from the staged ones);
    - {!Workspace} holds the per-solve scratch (dist/prev/potential labels,
      the radix heap and the DFS cursors), allocated once and reused across
      {!solve_csr} calls.

    Arc ordering in the frozen graph matches staging order, so the solver
    returns bit-identical [(flow, cost)] to the historical adjacency-list
    implementation.  Max flow is unique and so is the min cost at max
    flow, but the per-arc split among equal-cost optima follows this
    engine's arc order: the tests certify that {!Csr.flow_on} readings
    form an optimal flow, not which one. *)

type arc = { a_src : int; a_dst : int; a_cap : int; a_cost : int }
(** A residual arc, reported in {!error} diagnostics. *)

type error = Negative_cycle of arc list
(** The graph admits a negative-cost residual cycle, so shortest-path
    augmentation is ill-defined.  The payload is the set of residual arcs
    that could still relax after [n] Bellman–Ford passes — every negative
    cycle consists of such arcs, which localizes the offending subgraph
    for the caller (empty when the failure was injected by the
    ["mcmf.solve"] failpoint). *)

val error_to_string : error -> string

type solution = {
  flow : int;
  cost : int;
  complete : bool;
      (** [false] when a budget ran out mid-solve: [flow]/[cost] describe
          the best-effort partial flow pushed so far. *)
}

module Builder : sig
  type t

  val create : int -> t
  (** [create n] stages a graph on vertices [0 .. n-1]. *)

  val add_edge : t -> src:int -> dst:int -> cap:int -> cost:int -> int
  (** Stages a directed edge and returns its handle: the explicit arc id
      in staging order, counting from 0 (no vertex/index bit-packing, so
      handles never alias regardless of graph size).  Requires [cap >= 0]
      and in-range endpoints ([Invalid_argument] otherwise).  Self-loops
      and parallel edges are allowed. *)
end

module Csr : sig
  type t
  (** Frozen residual graph in compressed-sparse-row form.  Immutable
      except for the residual capacities, which {!solve_csr} updates. *)

  val of_builder : Builder.t -> t
  (** Freeze the staged edges.  The builder remains usable (freezing again
      yields an independent graph with pristine capacities). *)

  val flow_on : t -> int -> int
  (** Flow currently routed through an edge handle (as returned by
      {!Builder.add_edge}). *)
end

module Workspace : sig
  type t
  (** Reusable solver scratch: distance/parent/potential labels, the
      Dijkstra radix heap and the blocking-phase DFS cursors.  Sized lazily
      to the largest graph solved with it; sharing one workspace across
      solves (even of different graphs) changes no results — only
      allocation. *)

  val create : unit -> t
end

val solve_csr :
  Csr.t ->
  ws:Workspace.t ->
  source:int ->
  sink:int ->
  ?max_flow:int ->
  ?budget:Tdf_util.Budget.t ->
  unit ->
  (solution, error) result
(** [solve_csr g ~ws ~source ~sink ()] pushes up to [max_flow] (default:
    as much as possible) units along successive shortest paths on the
    frozen graph, reusing [ws] for all scratch.  Each augmentation ticks
    [budget] once; when the budget exhausts, the partial flow accumulated
    so far is returned with [complete = false] instead of running to max
    flow.  Fault-injection sites: ["mcmf.solve"] (forces
    [Error (Negative_cycle [])]) and ["mcmf.timeout"] (exhausts the
    budget).

    Reusing a workspace bumps the ["mcmf.ws_reuse"] telemetry counter,
    and (when telemetry is enabled) minor-heap allocation per augmentation
    is reported as ["mcmf.minor_words_per_aug"].  Per-solve work is
    surfaced through the ["mcmf.arc_scans"] (arcs examined by Dijkstra
    relaxation and the blocking DFS) and ["mcmf.phases"] (shortest-path
    rounds) counters. *)
