(** Mutable binary min-heap keyed by floats.

    The seed solver's priority queue, kept under test/ for the verbatim
    reference solver [Ref_ssp] and as the tie-order model of
    {!Tdf_util.Heap_int}.  Insertion-only discipline: callers skip stale
    entries on pop, so no decrease-key is needed. *)

type 'a t

val create : unit -> 'a t
(** Fresh empty heap. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> key:float -> 'a -> unit
(** [add h ~key v] inserts [v] with priority [key] (smaller pops first). *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-key element, or [None] when empty. *)

val pop_exn : 'a t -> float * 'a
(** Like {!pop} but raises [Invalid_argument "Heap.pop_exn: empty heap"]
    when the heap is empty.  Reserve it for call sites that have already
    established non-emptiness (e.g. directly after checking {!is_empty}
    or {!length}); driver loops that legitimately drain the heap should
    match on {!pop} instead, so that emptiness stays a normal control-flow
    case rather than an exception. *)

val peek : 'a t -> (float * 'a) option
(** Minimum-key element without removing it. *)

val clear : 'a t -> unit
(** Remove all elements (keeps allocated storage). *)
