(** The [tdflow serve] daemon: a persistent legalization service over a
    Unix-domain socket.

    Clients speak the length-prefixed JSON protocol of {!Tdf_io.Frame} /
    {!Tdf_io.Protocol}: load a design into a named {e session}, legalize
    it, then stream ECO deltas against the warm session — the design, bin
    grid and MCMF workspace stay resident ({!Tdf_incremental.Eco.Session}),
    so a small delta costs a masked local solve instead of a from-scratch
    run plus file round-trips.  Sessions are LRU-evicted beyond
    [max_sessions].

    Concurrency model: connections are multiplexed with [select] and
    requests execute {e one at a time} on the accept loop — cross-request
    determinism and session-cache consistency come for free — and each
    runs sequentially: a request's [jobs] field is accepted and ignored,
    like its [tiles].  Every request
    runs inside its own fault domain: an exception, a poisoned design or
    an exhausted budget yields a typed error {e reply} and leaves the
    server and its session cache intact.

    {2 Durability}

    With [cfg.journal] set, every session-mutating request (load,
    legalize, eco — and the LRU evictions they trigger) is appended to a
    CRC-checksummed write-ahead journal ({!Tdf_io.Journal}) {e before}
    the reply is sent, together with a digest of the resulting placement
    ({!Tdf_incremental.Eco.Session.state_digest}).  Every
    [snapshot_every] records the live sessions are snapshotted and the
    journal compacted.  On startup {!create} restores the latest valid
    snapshots and command-replays the journal suffix through the same
    Eco machinery — the engines are deterministic, so replay must
    reproduce the journaled digests; divergence raises a typed
    {!Recovery_error} instead of silently serving drifted state.  A crash
    loses at most the requests that never got a reply: a torn tail from
    a mid-append crash is truncated (and reported), never fatal.

    Replies are written only {e after} the journal append, so a mutation
    whose reply was lost may nevertheless be durably applied — which is
    why the client ({!Client}) never auto-resends [legalize]/[eco] after
    a dead connection ({!Tdf_io.Protocol.request_resend_safe}).
    Budget-capped mutations are the one thing command-replay cannot
    promise to reproduce (wall-clock clipping), so they are followed by
    an immediate session snapshot and never need replay; if a crash
    lands in the append-to-snapshot sliver, a drift on that {e final}
    wal record is tolerated (counted as
    ["serve.recovery.tolerated_drift"]) instead of bricking every
    restart.

    {2 Overload control}

    [max_pending] bounds the total frames queued for execution across
    all connections; beyond it a frame is shed at enqueue time with a
    typed ["overloaded"] error reply (still delivered in request order,
    so pipelined clients stay correlated).  [max_conn_queue] bounds one
    connection's queue {e including} shed markers — a client that
    ignores the backpressure and keeps streaming gets one typed
    ["queue-overflow"] error and its connection closed, so overload
    bounds memory, not just executable work.  [deadline_ms] caps every
    request budget, explicit or defaulted, so no single request can hold
    the event loop past the cap ({!Tdf_util.Budget} exhaustion degrades
    into a best-effort result, never a hang).  [idle_timeout_s] reaps
    connections with no traffic and nothing queued.  {!drain} answers
    everything queued and writes a final snapshot — the SIGTERM path.

    Fault injection: the ["serve.request"] failpoint
    ({!Tdf_util.Failpoint}) makes the next request die mid-execution with
    an ["injected"] error reply; the ["journal.append"] failpoint (armed
    via [tdflow serve --arm-failpoint]) tears a journal write and
    SIGKILLs the daemon — the chaos harness ([tools/chaos]) drives both.

    Telemetry (when a sink is installed): counters ["serve.requests"],
    ["serve.errors"], ["serve.cache.hit"/"miss"/"evict"], ["serve.shed"],
    ["serve.reaped"], ["serve.conn_overflow"], ["serve.recoveries"],
    ["serve.recovery.tolerated_drift"], ["journal.appends"] /
    ["journal.snapshots"] / ["journal.compactions"] /
    ["journal.truncated_tails"], observations ["serve.request_ms"] and
    ["serve.queue_depth"], plus everything the underlying engines already
    emit.  The same numbers are always available in-band through a
    [stats] request, sink or no sink. *)

type cfg = {
  socket_path : string;
  max_sessions : int;  (** LRU capacity of the session cache (default 8) *)
  max_frame : int;  (** per-frame payload cap in bytes (default 16 MiB) *)
  default_budget_ms : int option;
      (** budget applied when a request carries none (default [None]) *)
  eco : Tdf_incremental.Eco.cfg;  (** base ECO knobs; requests override *)
  journal : Tdf_io.Journal.cfg option;
      (** durability: journal directory and fsync policy (default [None],
          no journaling) *)
  snapshot_every : int;
      (** journal records between automatic snapshot+compact cycles
          (default 64) *)
  max_pending : int;
      (** global bound on frames queued for execution; beyond it requests
          are shed with an ["overloaded"] reply (default 64) *)
  max_conn_queue : int;
      (** per-connection bound on queued frames, shed markers included;
          beyond it the connection gets one typed ["queue-overflow"]
          error and is closed, dropping whatever it had queued
          (default 256) *)
  idle_timeout_s : float;
      (** reap connections idle longer than this; [0.] disables
          (default) *)
  deadline_ms : int option;
      (** hard cap on every request budget, explicit or defaulted
          (default [None]) *)
}

val default_cfg : socket_path:string -> cfg

(** Why a journaled startup could not reach a servable state.  Recovery
    {e tolerates} torn tails and unreadable snapshot files (they are
    truncated / skipped and counted); these errors are reserved for real
    divergence, where continuing would serve wrong state. *)
type recovery_error =
  | Journal_unusable of { detail : string }
      (** the journal directory cannot be opened or created *)
  | Snapshot_invalid of { session : string; detail : string }
      (** a checksum-valid snapshot holds text that no longer parses *)
  | Replay_failed of {
      lsn : int;
      session : string;
      code : string;
      detail : string;
    }  (** a journaled request failed on replay ([code] as per protocol) *)
  | Digest_drift of {
      lsn : int;
      session : string;
      expected : string;
      got : string;
    }
      (** replay produced a placement whose digest differs from the
          journaled one — determinism was violated.  A wall-clock budget
          that clipped the replay differently cannot normally reach
          here: budget-capped mutations snapshot immediately after their
          append (skipping replay), and a budget drift on the final,
          never-acknowledged wal record is tolerated rather than raised
          (see DESIGN.md §9) *)

exception Recovery_error of recovery_error

val recovery_error_to_string : recovery_error -> string

type recovery_stats = {
  recovered_sessions : int;
  replayed_records : int;
  truncated_bytes : int;  (** torn-tail bytes truncated from the wal *)
  dropped_snapshots : int;  (** unreadable snapshot files skipped *)
}

type t

val create : cfg -> t
(** Bind and listen on [cfg.socket_path].  A stale socket file left by a
    dead daemon is probed (connect) and removed; a {e live} daemon on the
    path raises [Unix.Unix_error (EADDRINUSE, _, _)], and a non-socket
    file is never deleted ([EEXIST]).  With [cfg.journal] set, recovery
    runs before the first request is accepted; raises {!Recovery_error}
    when the journaled state cannot be faithfully restored. *)

val recovery : t -> recovery_stats option
(** What recovery did at startup; [None] when journaling is off. *)

val handle : t -> Tdf_io.Protocol.request -> Tdf_io.Protocol.response
(** Execute one request directly, bypassing the socket — the unit-test
    entry point, and exactly the function the accept loop calls.  Never
    raises: failures become error responses.  A [Shutdown] request marks
    the server stopping (visible via {!stopping}). *)

val step : ?timeout_ms:int -> t -> bool
(** Run one accept/read/execute/reply round of the event loop, waiting at
    most [timeout_ms] (default 200) for activity.  Returns [false] once a
    shutdown request has been served (the loop should stop).  Interrupted
    [select] calls (EINTR, e.g. a signal aimed at the drain path) count
    as quiet rounds, never as failures. *)

val run : t -> unit
(** {!step} until shutdown. *)

val stopping : t -> bool

val live_sessions : t -> int

val drop_sessions : t -> int
(** Drop every cached session, returning how many were live. *)

val drain : t -> unit
(** Graceful-shutdown half: answer every frame already queued (shed
    markers included), then snapshot all sessions, compact and sync the
    journal.  The caller (the SIGTERM handler path in [tdflow serve])
    follows with {!close}. *)

val close : t -> unit
(** Snapshot + compact + close the journal (when enabled), close every
    connection and the listening socket, unlink the socket path, and
    drop all sessions.  Idempotent. *)

val crash : t -> unit
(** Test hook: tear everything down {e without} the final snapshot, so
    the journal directory is left exactly as a SIGKILL would leave it.
    Lets the unit tests exercise recovery in-process. *)

val stats_json : t -> Tdf_telemetry.Json.t
(** The same snapshot a [stats] request returns: request/error totals and
    per-kind counts, cache hits/misses/evictions, live session count,
    queue-depth high-water mark, shed/reaped counts, journal and recovery
    counters, and request-latency percentiles. *)
