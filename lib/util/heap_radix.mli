(** Monotone radix (bucket) min-heap with [int] keys and [int] values.

    A drop-in alternative to {!Tdf_util.Heap_int} for callers whose pop
    sequence is monotone non-decreasing — Dijkstra over non-negative exact
    integer reduced costs being the canonical case ([Tdf_flow.Mcmf]).
    Pushes are O(1) and pops cost amortized O(word size) bucket work
    instead of O(log n) sift comparisons, which is what makes the
    scale-1.0 solver rounds cheap: every relaxation is a constant-time
    append, and extraction touches each entry at most 64 times total.

    The monotone contract: {!add} requires [key >= last], where [last] is
    the key of the most recently extracted minimum ([min_int] on a fresh
    or {!clear}ed heap, so any first key is fine).  Violations raise
    [Invalid_argument] — loudly, because a violated radix invariant would
    otherwise return wrong minima silently.

    Negative keys are supported; only monotonicity relative to [last]
    matters.  Like [Heap_int], decrease-key is by reinsertion with the
    caller skipping stale entries on pop.  Unlike [Heap_int], the pop
    order of equal keys is unspecified (bucket order, not sift order), so
    callers needing the historical tie order must stay on [Heap_int]. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty heap; [capacity] pre-sizes each bucket's backing arrays. *)

val length : t -> int
val is_empty : t -> bool

val last_extracted : t -> int
(** Current monotone floor: the key of the most recently extracted
    minimum, or [min_int] if nothing was extracted since {!create} /
    {!clear}. *)

val add : t -> key:int -> int -> unit
(** [add h ~key v] inserts [v] with priority [key] (smaller pops first).
    Raises [Invalid_argument] if [key < last_extracted h]. *)

val top_key : t -> int
(** Key of the minimum entry.  Raises [Invalid_argument] on an empty
    heap — pair with {!is_empty}.  Together with {!top_value} and
    {!remove_top} this forms the zero-allocation pop used by hot loops. *)

val top_value : t -> int
(** Value of the minimum entry; same contract as {!top_key}. *)

val remove_top : t -> unit
(** Drop the minimum entry.  Raises [Invalid_argument] when empty. *)

val pop : t -> (int * int) option
(** Allocating convenience: remove and return [(key, value)], or [None]
    when empty. *)

val clear : t -> unit
(** Remove all elements and reset the monotone floor to [min_int] (keeps
    allocated storage). *)
