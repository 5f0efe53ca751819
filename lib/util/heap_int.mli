(** Monomorphic binary min-heap with [int] keys and [int] values.

    The legalizer hot paths (the supply queue of Algorithm 2, the
    best-first search of Algorithm 1) key their queues on integers: float
    quantities are scaled to micro-units before queueing.  Storing
    keys and values in two flat [int array]s keeps every entry unboxed —
    no per-entry record, no float boxing, no [float_of_int]/[int_of_float]
    round-trip (which silently loses exactness above 2{^53}).

    Insertion-only discipline (decrease-key by reinsertion): a caller that
    lowers a priority simply re-adds the element and skips the stale entry
    on pop, either with a visited mark or by comparing the popped key to
    the element's current key.  Ties pop in the same order as the
    float-keyed binary heap this module replaced (identical sift logic;
    the test suite keeps that heap as [test/heap.ml] and checks the tie
    order), so migrating a caller from float keys to exact integer keys
    preserves its traversal order. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty heap; [capacity] pre-sizes the backing arrays. *)

val length : t -> int

val is_empty : t -> bool

val add : t -> key:int -> int -> unit
(** [add h ~key v] inserts [v] with priority [key] (smaller pops first). *)

val top_key : t -> int
(** Key of the minimum entry.  Undefined (raises [Invalid_argument]) on an
    empty heap — pair with {!is_empty}.  Together with {!top_value} and
    {!remove_top} this forms the zero-allocation pop used by hot loops. *)

val top_value : t -> int
(** Value of the minimum entry; same contract as {!top_key}. *)

val remove_top : t -> unit
(** Drop the minimum entry.  Raises [Invalid_argument] when empty. *)

val pop : t -> (int * int) option
(** Allocating convenience: remove and return [(key, value)], or [None]
    when empty.  Prefer {!top_key}/{!top_value}/{!remove_top} in hot
    loops. *)

val clear : t -> unit
(** Remove all elements (keeps allocated storage). *)
