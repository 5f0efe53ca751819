(** Fixed-size [Domain] pool with deterministic fan-out.  Its one user is
    the experiments grid ([Tdf_experiments.Runner]), whose tasks are
    whole legalizer runs; everything inside a run is sequential.

    The pool owns [size - 1] worker domains (the submitting domain is the
    remaining worker, so a pool of size [n] computes on [n] domains).
    Work is submitted as [n] indexed tasks; idle domains claim indices
    from a shared atomic counter, and results are always delivered in
    submission-index order, so the output of {!run} and {!map_array} is
    bit-identical regardless of how tasks were scheduled across domains.

    Determinism contract:

    - a submission's output depends only on its inputs, never on the pool
      size or the interleaving — provided tasks touch disjoint mutable
      state (distinct result slots);
    - telemetry emitted inside tasks is captured per task and replayed on
      the submitting domain in submission-index order at join, so sinks
      observe one deterministic event stream and are never called
      concurrently.

    A task that raises fails the whole submission: the first failure (in
    claim order) is re-raised on the submitting domain after all tasks
    finished.  Submissions from inside a task run inline on the calling
    domain — nested parallelism degrades to sequential instead of
    deadlocking the pool. *)

type t

val create : int -> t
(** [create n] spawns a pool of [n] domains (clamped to [1, 64]).  A pool
    of size 1 spawns nothing and runs every submission inline. *)

val size : t -> int

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent.  Using the pool after
    shutdown runs everything inline on the calling domain. *)

val run : t -> n:int -> (int -> unit) -> unit
(** [run t ~n f] executes the tasks [f 0 .. f (n-1)], distributed over
    the pool's domains, and returns when all have finished.  [f i] must
    write its result to task-private state (e.g. slot [i] of an array). *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map]; output order is input order. *)

val in_task : unit -> bool
(** True while the calling domain is executing a pool task (any pool).
    {!run} checks it itself; exposed for tests. *)
