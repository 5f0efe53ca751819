(** The one tokenizer of the line-oriented formats: {!Text} designs and
    placements, {!Delta} ECO ops and the {!Contest} dialect.

    A record is one line.  [#] starts a comment that runs to the end of
    the line, and words are split on spaces and tabs {e only}.  A carriage
    return is an ordinary word byte here, though the DEF/LEF lexer treats
    it as a blank: a CRLF file keeps a ['\r'] on the last word of every
    line and fails on the first number it spoils. *)

exception Parse of string
(** Raised by {!fail}; each reader catches it at its [read] boundary and
    returns [Error] with the carried diagnostic. *)

val fail : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Parse} with a formatted diagnostic. *)

val iter : string -> (int -> string list -> unit) -> unit
(** [iter text f] calls [f line words] for every line of [text] that
    holds at least one word, in order, with [line] 1-based.  Lines are
    handed over one at a time, so no word list outlives its call. *)

val int_of : line:int -> string -> int
(** Parse an integer field or {!fail} with
    ["line %d: expected integer, got %S"]. *)

val float_of : line:int -> string -> float
(** Parse a float field or {!fail} with
    ["line %d: expected number, got %S"]. *)
