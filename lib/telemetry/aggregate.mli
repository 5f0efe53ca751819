(** In-memory aggregating sink: per-span duration distributions, counter
    totals and observation histograms, rendered as the [--metrics] summary
    table or exported as JSON ([--metrics-json], bench trajectory). *)

type t

val create : unit -> t

val sink : t -> Core.sink

type span_row = {
  count : int;
  total_ms : float;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

val span_row : t -> string -> span_row
(** Summary of one span's duration distribution (all-zero if unseen). *)

val span_count : t -> string -> int

val counter_total : t -> string -> int
(** 0 for counters never touched. *)

val span_names : t -> string list
(** Sorted. *)

val counter_names : t -> string list

val observation_names : t -> string list

val render : t -> string
(** Human-readable summary: spans heaviest-first with count/total/mean and
    p50/p95/p99, then counter totals, then observation histograms. *)

val to_json : t -> Json.t
(** [{"spans": {...}, "counters": {...}, "histograms": {...}}]. *)
