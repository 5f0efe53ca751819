(** Shared tokenizer and parse-cursor for the DEF/LEF-lite readers.

    DEF and LEF are token-oriented, not line-oriented: statements end at
    [;], coordinates are wrapped in [( ... )], and both may spill across
    lines.  The cursor reads the input in one pass, one token of
    lookahead at a time.  Blanks are space, tab, carriage return and
    newline; [(], [)] and [;] are tokens of their own even when glued to
    a neighbor.  Every token has a 1-based source line for the
    ["line %d: ..."] diagnostics the rest of [lib/io] uses.  [#] starts a
    comment that runs to the end of its line; the cursor keeps the
    [# tdflow.*] extension comments that carry the data plain DEF/LEF
    cannot express (per-die widths, global-placement seeds, die pairing)
    and drops every other comment, so a real tool's DEF passes through
    untouched.

    Tokens stay in the input: a consumed token is its byte offset
    ({!tok}), matched against keywords and parsed as a number in place.
    Only {!word} copies one out, and {!intern} the first sight of a name
    a reader keeps. *)

exception Parse of string
(** Internal to {!Lef.read} / {!Def.read}; both catch it and return
    [Error] with the carried diagnostic. *)

val fail : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Parse} with a formatted diagnostic. *)

(** A read position in the input, with its lookahead token and the
    extension comments passed so far. *)
type cursor

type tok = int
(** A consumed token: the offset of its first byte in the input.  Read
    it back through the cursor that returned it. *)

val cursor : string -> cursor

val at_end : cursor -> bool
(** No token left. *)

val is : cursor -> string -> bool
(** The lookahead token equals the word ([false] at end of input); it is
    not consumed. *)

val line : cursor -> int
(** Line of the lookahead token. *)

val next : cursor -> string -> tok
(** Consume one token; fails with ["unexpected end of file (in <what>)"]
    when exhausted. *)

val expect : cursor -> string -> unit
(** Consume one token and require it to equal the given word; at end of
    input fails with ["unexpected end of file (in \"<word>\")"]. *)

val skip_statement : cursor -> unit
(** Consume tokens up to and including the next [;] (for statements the
    subset recognizes but does not interpret). *)

val equal : cursor -> tok -> string -> bool
(** The token equals the word. *)

val word : cursor -> tok -> string
(** The token's text, copied out of the input. *)

val line_of : cursor -> tok -> int
(** The token's source line. *)

val int : cursor -> tok -> int
(** The token as a DEF integer, [-?digits], valued as [int_of_string]
    values it; fails with ["line %d: expected integer, got %S"] on any
    other syntax (OCaml's [0x] prefixes, [_], a leading [+]) and on
    overflow. *)

val float : cursor -> tok -> float
(** The token as a DEF number, [-?digits[.digits][(e|E)[+-]digits]],
    valued as [float_of_string] values it; fails with
    ["line %d: expected number, got %S"] on any other syntax ([nan],
    [inf], [0x] prefixes, [_], a leading [+], a bare or trailing [.]). *)

(** {1 Extension comments} *)

val extensions : cursor -> (int -> cursor -> unit) -> unit
(** Read the rest of the input, then call [f line c] for every extension
    comment of the whole input in order: one call per comment whose first
    word starts with ["tdflow."].  [c] is a cursor over the comment's
    words, the ["#"] itself stripped, split like tokens except that [#] is
    an ordinary byte inside a comment; its tokens report the comment's
    [line].  One cursor serves every comment in turn, so [f] must not keep
    it or its tokens. *)

(** {1 Name tables} *)

type names
(** Distinct names, numbered from 0 in order of first sight: the names
    of one input, or any set of strings. *)

val names : int -> names
(** An empty table with room for about that many names (at most 2^20
    are reserved on trust); it grows as more are added. *)

val intern : cursor -> names -> tok -> int
(** The token's number in the table.  Its bytes are hashed and compared
    in place, so a name seen before allocates nothing; a new one is
    copied out once and numbered next.  Works on the tokens of the
    comment cursors {!extensions} passes over the same input too. *)

val find_name : names -> string -> int
(** The string's number, or [-1] when the table does not hold it. *)

val add_name : names -> string -> int
(** The string's number, adding the string itself (no copy) when the
    table does not hold it. *)

val count : names -> int

val names_array : names -> string array
(** Every name, indexed by its number. *)
