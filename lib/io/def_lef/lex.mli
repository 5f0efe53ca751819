(** Shared tokenizer and parse-cursor for the DEF/LEF-lite readers.

    DEF and LEF are token-oriented, not line-oriented: statements end at
    [;], coordinates are wrapped in [( ... )], and both may spill across
    lines.  The cursor reads the input in one pass, one token of
    lookahead at a time.  Blanks are space, tab, carriage return and
    newline; [(], [)] and [;] are tokens of their own even when glued to
    a neighbor.  Every token carries its 1-based source line for the
    ["line %d: ..."] diagnostics the rest of [lib/io] uses.  [#] starts a
    comment that runs to the end of its line; the cursor keeps the
    [# tdflow.*] extension comments that carry the data plain DEF/LEF
    cannot express (per-die widths, global-placement seeds, die pairing)
    and drops every other comment, so a real tool's DEF passes through
    untouched. *)

exception Parse of string
(** Internal to {!Lef.read} / {!Def.read}; both catch it and return
    [Error] with the carried diagnostic. *)

val fail : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Parse} with a formatted diagnostic. *)

type tok = { line : int; word : string }

(** A read position in the input, with its lookahead token and the
    extension comments passed so far. *)
type cursor

val cursor : string -> cursor

val peek : cursor -> tok option
(** [None] at end of input. *)

val next : cursor -> string -> tok
(** Consume one token; fails with ["unexpected end of file (in <what>)"]
    when exhausted. *)

val expect : cursor -> string -> unit
(** Consume one token and require it to equal the given word; at end of
    input fails with ["unexpected end of file (in \"<word>\")"]. *)

val skip_statement : cursor -> unit
(** Consume tokens up to and including the next [;] (for statements the
    subset recognizes but does not interpret). *)

val extensions : cursor -> (int * string list) list
(** Read the rest of the input and return every extension comment of the
    whole input in order: one [(line, words)] entry per comment whose
    first word starts with ["tdflow."], the ["#"] itself stripped and the
    words split like tokens. *)

val int_of : line:int -> string -> int
val float_of : line:int -> string -> float
