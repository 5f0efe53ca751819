(** Wall-clock / iteration budgets for the solvers.

    A budget bounds how long an iterative phase (the MCMF augmentation
    loop, the 3D-Flow supply-resolution loop, post-optimization rounds)
    may keep running.  Exhaustion is a {e stop signal}, not an error:
    solvers are expected to return their best-effort partial solution and
    flag it incomplete, so a caller with a deadline always gets {e some}
    placement back instead of a hang.

    Exhaustion latches: once {!exhausted} has returned [true] it keeps
    returning [true], so a solver polling the budget at several nesting
    depths winds down consistently.

    Budgets are domain-safe: one budget may be shared by the workers of a
    parallel phase.  {!tick} and the exhaustion latch are atomic, so any
    worker exhausting the budget (or {!exhaust} called from the
    coordinator) cancels the remaining workers cooperatively at their next
    poll. *)

type t

val unlimited : t
(** Never exhausts.  Probing it costs one branch (no clock read), so it is
    the right default argument for hot solver loops. *)

val create : ?wall_ms:int -> ?max_ops:int -> unit -> t
(** [create ?wall_ms ?max_ops ()] starts the clock now.  [wall_ms] bounds
    elapsed wall-clock milliseconds (monotonic); [max_ops] bounds the
    total recorded by {!tick}.  Omitted limits do not constrain. *)

val tick : t -> int -> unit
(** [tick b n] records [n] units of work (augmentations, pops, rounds —
    the solver picks its unit). *)

val exhausted : t -> bool
(** True once the wall clock or the op count has passed its limit (or
    {!exhaust} was called).  Latches. *)

val exhaust : t -> unit
(** Force the budget into the exhausted state (used by fault injection to
    simulate a timeout).  No-op on {!unlimited}: the shared default budget
    can never be poisoned. *)
