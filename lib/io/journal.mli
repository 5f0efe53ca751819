(** Write-ahead journal and session snapshots for the serving layer.

    The [tdflow serve] daemon appends one record per session-mutating
    request before replying; on restart it restores the latest valid
    snapshot per session and replays the journal suffix, so a crash,
    OOM-kill or deploy restart loses at most the requests that never got
    a reply (see DESIGN.md §9 for the recovery state machine).

    {2 On-disk format}

    One journal directory holds a single write-ahead log [wal.log] plus
    one snapshot file per session.  Both use the same checksummed record
    framing:

    {v
    record   := len:u32be  crc:u32be  payload(len bytes)
    wal rec  := lsn:u64be  user-bytes            (as record payload)
    snapshot := lsn:u64be  slen:u16be  session(slen)  blob  (one record per file)
    v}

    [crc] is {!Tdf_util.Crc32} over the payload.  Log sequence numbers
    (lsn) are assigned by {!append}, strictly increasing for the life of
    the directory (they survive {!compact}: snapshots pin the high-water
    mark).  Payload {e content} is the caller's; this module only frames,
    checksums and orders it.

    {2 Torn tails}

    A crash mid-append leaves a torn record at the end of [wal.log].
    {!open_} scans from the start and stops at the first record that is
    incomplete or fails its checksum: everything before it is returned,
    the tail from that offset on is truncated away and reported in
    [recovery.truncated_bytes].  Truncation is the contract, not an
    error — the lost suffix corresponds to requests that were never
    acknowledged.

    {2 Fault injection}

    The ["journal.append"] failpoint ({!Tdf_util.Failpoint}) simulates a
    crash mid-write: when armed, {!append} writes only a prefix of the
    record and SIGKILLs the process — the torn-tail case the chaos
    harness ([tools/chaos]) exercises end-to-end. *)

type fsync_policy =
  | Always  (** fsync after every append: no acknowledged record is lost *)
  | Every of int
      (** fsync once per [n] appends: bounded loss window, amortized cost *)
  | Never  (** leave flushing to the OS: fastest, weakest *)

val default_fsync : fsync_policy
(** [Every 8], the policy the ledger's [serve-2023c2] daemon runs under. *)

val fsync_policy_of_string : string -> (fsync_policy, string) result
(** Parses ["always"], ["never"], ["every:N"] (N >= 1). *)

type cfg = {
  dir : string;  (** journal directory, created if missing *)
  fsync : fsync_policy;
  max_record : int;
      (** per-record payload cap in bytes for wal appends (default
          64 MiB) — bounds both {!append} and the allocation a garbage
          length field could demand during the wal scan.  Snapshot files
          are exempt: each holds exactly one record and is bounded by
          its own length, so a session whose snapshot blob outgrows
          [max_record] still recovers. *)
}

val default_cfg : dir:string -> cfg

type snapshot = {
  snap_session : string;
  snap_lsn : int;  (** journal position the blob covers *)
  blob : string;
}

type recovery = {
  records : (int * string) list;
      (** surviving [(lsn, payload)] pairs of the wal, in append order *)
  snapshots : snapshot list;  (** readable snapshots, sorted by session *)
  truncated_bytes : int;  (** torn-tail bytes removed from the wal *)
  dropped_snapshots : int;  (** unreadable snapshot files ignored *)
}

type stats = {
  appends : int;
  appended_bytes : int;
  fsyncs : int;
  snapshots_written : int;
  compactions : int;
}

type t

val open_ : cfg -> (t * recovery, string) result
(** Open (creating the directory and an empty wal if needed), scan and
    torn-tail-truncate the wal, load snapshots, and position for
    appending.  Leftover [*.tmp] files from an interrupted snapshot write
    are deleted.  [Error] only on real I/O failures (permissions, not a
    directory, ...) — corruption is handled, not fatal. *)

val append : t -> string -> int
(** Append one record, returning its lsn.  Durability per the fsync
    policy.  Raises [Unix.Unix_error] on I/O failure. *)

val sync : t -> unit
(** Force an fsync now regardless of policy. *)

val last_lsn : t -> int
(** Highest lsn ever assigned in this directory (0 before any append). *)

val save_snapshot : t -> session:string -> string -> unit
(** Atomically (write-tmp, fsync, rename) persist [blob] as the session's
    snapshot at the current {!last_lsn}.  Replaces any previous snapshot
    of the same session. *)

val delete_snapshot : t -> session:string -> unit
(** Remove the session's snapshot file, if any (an evicted or dead
    session must not resurrect through a stale snapshot after
    {!compact}). *)

val snapshot_sessions : t -> string list
(** Sessions that currently have a snapshot file on disk. *)

val compact : t -> unit
(** Truncate the wal to empty.  Only safe after {!save_snapshot} has run
    for every live session (the server drives this); lsn numbering
    continues monotonically. *)

val stats : t -> stats

val close : t -> unit
(** Final fsync and close.  Idempotent. *)
