(** Length-prefixed framing for the [tdflow serve] wire protocol.

    A frame is an ASCII decimal byte length, a newline, the payload (by
    convention one JSON document), and a trailing newline:

    {v
    <len>\n<payload>\n
    v}

    The trailing newline keeps streams greppable and [nc]-friendly but is
    {e not} counted in [len].  Framing is transport-agnostic: this module
    only turns byte chunks into payloads and back, so it can be unit-tested
    without sockets and reused over any stream.

    Decoding is incremental: feed whatever bytes arrived, pop as many
    complete frames as they contain.  Malformed input (a non-numeric
    length prefix, a length above the configured cap, a missing
    terminator) is a {e permanent} decode error — framing is lost and the
    connection must be dropped, which is how the server treats it. *)

type error =
  | Oversized of { len : int; limit : int }
      (** The advertised length exceeds the decoder's cap; refused before
          any allocation. *)
  | Bad_prefix of string
      (** The bytes before the first newline are not a decimal length. *)
  | Bad_terminator
      (** The byte after the payload is not ['\n']. *)

val error_to_string : error -> string

val encode : string -> string
(** [encode payload] is the complete frame for [payload]. *)

val write : Buffer.t -> string -> unit
(** Append [encode payload] to a buffer without the intermediate string. *)

type decoder

val decoder : ?max_frame:int -> unit -> decoder
(** [max_frame] caps the accepted payload length (default 16 MiB).  The
    cap bounds memory a malicious or corrupt peer can make the decoder
    hold. *)

val feed : decoder -> ?off:int -> ?len:int -> string -> unit
(** Append a chunk of received bytes ([off]/[len] default to the whole
    string).  Raises [Invalid_argument] on a poisoned decoder (one that
    already returned an error). *)

val next : decoder -> (string option, error) result
(** Pop the next complete payload; [Ok None] when more bytes are needed.
    After an [Error _] the decoder is poisoned: every further [next]
    returns the same error. *)

