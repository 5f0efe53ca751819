(** Chrome trace-event exporter: collects events and renders the JSON
    object format ([{"traceEvents": [...]}]) that Perfetto and
    [chrome://tracing] open directly.  Spans are complete ("X") events on
    one pid/tid; counters render as cumulative counter ("C") tracks. *)

type t

val create : unit -> t

val sink : t -> Core.sink

val to_json : t -> Json.t

val to_string : t -> string

val save : t -> string -> unit
