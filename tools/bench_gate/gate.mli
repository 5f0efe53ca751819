(** Benchmark regression gate: compare a freshly generated BENCH_*.json
    against a checked-in baseline and fail on wall-clock regressions or
    numeric drift.

    Four file shapes are understood (detected from the content):

    - {b solver} ([BENCH_solver.json]): per case, [flow]/[cost] must match
      the baseline {e exactly} — drift means the solver's arithmetic
      changed — and the [solve_s]/[repeat_reuse_s] wall-clocks may grow by
      at most the regression factor;
    - {b eco} ([BENCH_eco.json]): per delta size, the result must be
      [legal] with no more [fallbacks] than the baseline, and [eco_s] may
      grow by at most the regression factor;
    - {b serve} ([BENCH_serve.json]): the warm-daemon replay must be
      [legal] and [byte_identical] to the one-shot CLI chain, its
      [warm_p50_ms]/[warm_p99_ms] latencies may grow by at most the
      regression factor, [speedup_p50]/[cache_hit_rate] must stay
      {e above} the floors pinned in the baseline file, and the journaled
      rerun must be [journal_byte_identical] with a
      [journal_overhead_p50] latency ratio at most the bound pinned in
      the baseline (a within-run ratio, so host speed and
      [inject_slowdown] cancel out);
    - {b parallel} ([BENCH_parallel.json], recognized by its
      [recommended_domain_count] field — it also carries a [runs] list, so
      the test precedes the eco fallback): the grid must stay
      [deterministic] across every jobs setting, and each sweep entry's
      [wall_s] (keyed by [jobs]) may grow by at most the regression
      factor.

    Cases present in only one of the files are reported but not fatal
    (benchmarks gain cases over time); a baseline/current pair with {e no}
    overlapping cases fails, since the gate would otherwise pass vacuously.

    Wall-clock checks compare ratios, so they tolerate machines of
    different absolute speed only via the regression factor — CI passes a
    generous factor for cross-machine runs and a strict one for
    same-machine A/B comparisons. *)

type kind =
  | Time  (** current ≤ limit × baseline *)
  | Exact  (** current = baseline *)
  | Bound  (** current ≤ baseline *)
  | Floor  (** current ≥ baseline (the baseline pins a required minimum) *)

type check = {
  metric : string;  (** e.g. ["solver/small/flow"] *)
  kind : kind;
  baseline : float;
  current : float;
  ok : bool;
}

type verdict = {
  checks : check list;
  skipped : string list;  (** cases without a counterpart *)
  passed : bool;
}

val compare_json :
  ?max_regression:float ->
  ?inject_slowdown:float ->
  baseline:Tdf_telemetry.Json.t ->
  current:Tdf_telemetry.Json.t ->
  unit ->
  (verdict, string) result
(** [max_regression] defaults to 1.25 (a >25% wall-clock growth fails).
    [inject_slowdown] multiplies the current wall-clock numbers before
    comparing — the self-test hook proving the gate can fail. *)

val compare_files :
  ?max_regression:float ->
  ?inject_slowdown:float ->
  baseline:string ->
  current:string ->
  unit ->
  (verdict, string) result
(** {!compare_json} over two files on disk. *)

val render : verdict -> string
(** Human-readable table, one line per check, PASS/FAIL summary last. *)
