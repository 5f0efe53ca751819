(** The one tokenizer of the line-oriented formats: {!Text} designs and
    placements, {!Delta} ECO ops and the {!Contest} dialect.

    A record is one line.  [#] starts a comment that runs to the end of
    the line, and words are split on spaces and tabs {e only}.  A carriage
    return is an ordinary word byte here, though the DEF/LEF lexer treats
    it as a blank: a CRLF file keeps a ['\r'] on the last word of every
    line and fails on the first number it spoils.

    The cursor reads the input in place, one line at a time, as
    [Tdf_def_lef.Lex] does for DEF/LEF: a word is a span of the input,
    matched against keywords and read as a number without a copy.  Only
    {!word} copies one out, for the names a reader keeps, and a number
    token outside the fast forms is copied for the stdlib conversion. *)

exception Parse of string
(** Raised by {!fail}; each reader catches it at its [read] boundary and
    returns [Error] with the carried diagnostic. *)

val fail : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Parse} with a formatted diagnostic. *)

type cursor
(** A read position in the input and the words of the current line. *)

val cursor : string -> cursor
(** A cursor before the first line of the text. *)

val next : cursor -> bool
(** Move to the next line that holds at least one word; [false] (and no
    current line) when none is left. *)

val next_head : cursor -> bool
(** {!next}, but the current line keeps only its first word ([words cur]
    is 1): the rest of the line is skipped unread, for a pass that looks
    only at record keywords. *)

val line : cursor -> int
(** The current line's number, 1-based. *)

val words : cursor -> int
(** The number of words on the current line. *)

(** The accessors below take a word index [k], [0 <= k < words cur], on
    the current line. *)

val is : cursor -> int -> string -> bool
(** Word [k] equals the string. *)

val word : cursor -> int -> string
(** Word [k], copied out of the input. *)

val int : cursor -> int -> int
(** Word [k] as [int_of_string] reads it, or {!fail} with
    ["line %d: expected integer, got %S"].  [-?digits] of at most 18
    digits is read in place, anything else through [int_of_string_opt]
    on a copy. *)

val ints : cursor -> int -> int array
(** Words [k] to the last as {!int}s, converted left to right, so the
    first bad one is reported. *)

val float : cursor -> int -> float
(** Word [k] as [float_of_string] reads it, or {!fail} with
    ["line %d: expected number, got %S"].  [-?digits[.digits]] of at most
    15 digits is read in place as one exact division by a power of ten,
    anything else through [float_of_string_opt] on a copy. *)
