(** Decimal rendering for the file writers, into a [Buffer.t] without an
    intermediate string.

    [add_fixed6] is [Printf.bprintf b "%.6f"], byte for byte, at a
    fraction of its cost: the writers emit one such float per cell
    (global-placement [z], weights, utilizations).  The fast path
    computes [k = round(|x| * 10^6)] exactly and prints [k] with the
    decimal point inserted; the values it cannot decide cheaply go to
    [Printf] (see {!round6}). *)

val add_int : Buffer.t -> int -> unit
(** [Buffer.add_string b (string_of_int v)]. *)

val add_fixed6 : Buffer.t -> float -> unit
(** [Printf.bprintf b "%.6f" x]. *)

val round6 : float -> int
(** The fast path's decision: [round(|x| * 10^6)] when it is decided
    exactly, or [-1] when {!add_fixed6} hands [x] to [Printf]: for NaN
    and infinities, for [|x| >= 2^53 / 10^6], and when [|x| * 10^6] is
    within [1e-9] of a rounding tie (halfway between two integers). *)
