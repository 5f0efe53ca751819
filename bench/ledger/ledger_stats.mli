(** The ledger's statistics: order statistics over timing samples and
    self time from post-order span events.

    Quantiles use the "exclusive" method of Python's
    [statistics.quantiles] (the default there), so a number printed by
    the ledger can be checked against that function on the same samples. *)

val median : float array -> float
(** Median of the samples (mean of the two middle values on an even
    count).  Raises [Invalid_argument] on an empty array. *)

val quantile : float array -> float -> float
(** [quantile xs q] with [q] in [(0, 1)]: the exclusive-method quantile,
    linear interpolation at rank [q · (n + 1)] between the two nearest
    interior ranks (so, like Python, it extrapolates slightly at the ends
    of a small sample).  [quantile xs 0.25] is the first value of
    [statistics.quantiles(xs, n=4)], [quantile xs 0.9] the 90th value of
    [statistics.quantiles(xs, n=100)].  A single sample is every quantile.
    Raises [Invalid_argument] on an empty array. *)

val tail_percentile : int -> float option
(** The highest of the percentiles 99.9, 99, 95, 90, 75 and 50 that has at
    least ten of [n] samples beyond it, or [None] when [n] is below 20 and
    no percentile qualifies. *)

type span = { name : string; depth : int; start_ns : int64; dur_ns : int64 }
(** One closed span as {!Tdf_telemetry.event} reports it. *)

val self_times : span list -> (span * int64) list
(** Each span paired with its self time: its duration minus the part its
    direct children cover.  The input must be one domain's spans in
    post-order (children close before their parent), which is the order
    the telemetry core emits them in; children of one parent never
    overlap, so their durations add up to the covered part. *)
