(** The incremental (ECO) re-legalization engine.

    Given a legal placement and a small {!Tdf_io.Delta}, re-legalize only
    a {e dirty region} of the grid instead of running 3D-Flow from
    scratch:

    + {!Perturb.apply} the delta, producing the perturbed design and a
      base placement that keeps every unperturbed cell at its previous
      legal position;
    + assign the base placement into the grid and BFS-expand a dirty bin
      set from the perturbed cells ({!Tdf_grid.Grid.dirty_region});
    + precheck feasibility with a min-cost max-flow over the dirty
      subgraph (supply must be routable to demand without leaving the
      region);
    + run the masked flow pass ({!Tdf_legalizer.Flow3d.local_pass}) and
      Abacus only the dirty segments — everything outside the region is
      frozen byte-for-byte;
    + on an infeasible, incomplete or illegal local solve, {e widen} the
      dirty radius and retry; after [max_widenings] escalations, fall
      back to a full re-legalization through the resilient pipeline
      ({!Tdf_robust.Pipeline.run} seeded with the base placement).

    The grid is built once per [run] and re-filled across widening
    attempts with {!Tdf_grid.Grid.reset_to}; the MCMF precheck reuses one
    {!Tdf_flow.Mcmf.Workspace} across attempts.

    Telemetry counters: ["eco.dirty_bins"] (per attempt),
    ["eco.widenings"], ["eco.fallbacks"]; the whole run is wrapped in an
    ["eco.run"] span. *)

type cfg = {
  flow : Tdf_legalizer.Config.t;  (** legalizer knobs for the local pass *)
  initial_radius : int;  (** BFS radius of the first attempt (default 4) *)
  max_widenings : int;  (** escalations before full fallback (default 3) *)
  widen_factor : int;  (** radius multiplier per escalation (default 2) *)
  fallback : bool;
      (** allow the full-rerun fallback; with [false] a failed local
          solve is an error (default [true]) *)
  budget_ms : int option;  (** wall-clock budget per local attempt *)
}

val default_cfg : cfg

type path =
  | Local of { radius : int }
      (** the masked solve succeeded at this radius *)
  | Full of Tdf_robust.Pipeline.path
      (** escalated to a full re-legalization *)

val path_name : path -> string

type stats = {
  dirty_bins : int;  (** dirty-region size of the winning attempt *)
  dirty_segments : int;  (** segments re-placed by the winning attempt *)
  total_bins : int;  (** grid size, for dirty-fraction reporting *)
  widenings : int;  (** escalations taken before success *)
  fallbacks : int;  (** 0, or 1 when the full fallback ran *)
  path : path;
}

type result_t = {
  design : Tdf_netlist.Design.t;  (** the perturbed design *)
  placement : Tdf_netlist.Placement.t;  (** legal for [design] *)
  perturb : Perturb.t;  (** id maps for relating old and new cell ids *)
  stats : stats;
}

type error =
  | Invalid_delta of string  (** the delta does not apply to the design *)
  | Unplaceable of Tdf_grid.Grid.place_error
      (** a cell of the perturbed design fits nowhere *)
  | Local_failed of string
      (** local attempts exhausted and [fallback] is disabled *)
  | Fallback_failed of string
      (** even the full resilient pipeline produced no legal placement *)

val error_to_string : error -> string

val run :
  ?cfg:cfg ->
  Tdf_netlist.Design.t ->
  Tdf_netlist.Placement.t ->
  Tdf_io.Delta.t ->
  (result_t, error) result
(** [run design prev delta] re-legalizes [prev] (assumed legal for
    [design]; an illegal [prev] degrades gracefully into widenings and
    ultimately the full fallback) after applying [delta].  Deterministic:
    the same inputs produce the same placement at any [--jobs] level,
    like the from-scratch legalizer. *)

(** A warm session for a {e stream} of ECO deltas against one design: the
    bin grid and the MCMF workspace stay resident between requests, so
    repeated small deltas skip the dominant rebuild costs.  The grid is
    reused whenever the perturbed design is structurally compatible (no
    macro added, same cell count, same derived bin width) and rebuilt
    transparently otherwise; either way every [eco] call produces results
    {b byte-identical} to a one-shot {!run} on the same (design, placement,
    delta) triple — reuse is a wall-clock optimization only, which the
    test "warm session equals one-shot eco" ([test/test_incremental.ml])
    checks byte for byte over a stream of move deltas.  A reused grid is
    rebound to each perturbed design with {!Tdf_grid.Grid.rebind}.

    Telemetry: ["eco.grid_reuses"] / ["eco.grid_builds"] count the cache
    behavior on top of the counters {!run} already emits. *)
module Session : sig
  type t

  val create :
    ?cfg:cfg ->
    Tdf_netlist.Design.t ->
    Tdf_netlist.Placement.t ->
    t
  (** [create design placement] caches [design] with a (presumed legal)
      [placement]; the placement is copied, never aliased. *)

  val design : t -> Tdf_netlist.Design.t
  (** The current (possibly perturbed) design of the session. *)

  val placement : t -> Tdf_netlist.Placement.t
  (** The current placement; legal whenever the last [eco] succeeded. *)

  val set_placement :
    t -> Tdf_netlist.Design.t -> Tdf_netlist.Placement.t -> unit
  (** Replace the session state (e.g. after a fresh full legalization).
      Keeps the warm grid when [design] is physically the same value. *)

  val eco : ?cfg:cfg -> t -> Tdf_io.Delta.t -> (result_t, error) result
  (** Apply one delta against the session state.  On [Ok] the session
      advances to the perturbed design and new placement; on [Error] it
      is left exactly as before (poisoned deltas cannot corrupt it). *)

  val ecos : t -> int
  (** Successful [eco] calls so far. *)

  val grid_reuses : t -> int
  (** How many of those reused the warm grid instead of rebuilding. *)

  val grid_reused_last : t -> bool
  (** Whether the most recent run (successful or not) reused the grid. *)

  val state_digest : t -> string
  (** Cheap fingerprint (CRC-32 over the cell count and the x/y/die
      coordinate arrays, as 8 hex digits) of the session's current
      placement.  The serving layer journals it with every mutating
      request and asserts that crash-recovery replay reproduces it —
      any divergence is surfaced as a typed startup error rather than
      silently serving drifted state. *)
end
