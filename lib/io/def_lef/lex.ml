exception Parse of string

let fail fmt = Format.kasprintf (fun s -> raise (Parse s)) fmt

type tok = int

type ext = { e_line : int; e_start : int; e_stop : int }

type cursor = {
  text : string;
  limit : int;  (* end of the bytes this cursor reads *)
  in_comment : bool;  (* an extension comment's words: '#' is a word byte *)
  mutable pos : int;  (* next unread byte *)
  mutable line : int;  (* line of text.[pos] *)
  mutable start : int;
      (* lookahead token text.[start, stop): -1 when none is scanned,
         start = stop at end of input *)
  mutable stop : int;
  mutable last : int;  (* the last consumed token ... *)
  mutable last_stop : int;  (* ... ends here, so matching it rescans nothing *)
  mutable exts : ext list;  (* reversed *)
}

let cursor text =
  {
    text;
    limit = String.length text;
    in_comment = false;
    pos = 0;
    line = 1;
    start = -1;
    stop = -1;
    last = -1;
    last_stop = -1;
    exts = [];
  }

(* Byte classes.  Blanks are space, tab and carriage return, plus the
   newline, which also counts lines.  `(`, `)` and `;` are tokens of their
   own even when glued to a neighbour, so `(24 32)` lexes like
   `( 24 32 )`.  '#' starts a comment in code and is an ordinary byte
   inside one. *)
let word_byte = 'w' and blank = 'b' and newline = 'n' and punct = 'p' and hash = 'h'

let classes =
  String.init 256 (fun i ->
      match Char.chr i with
      | ' ' | '\t' | '\r' -> blank
      | '\n' -> newline
      | '(' | ')' | ';' -> punct
      | '#' -> hash
      | _ -> word_byte)

let class_of c = String.unsafe_get classes (Char.code c)

(* End of the word starting at i: the next byte of another class, or the
   cursor's limit. *)
let word_end cur i =
  let text = cur.text and limit = cur.limit in
  let j = ref i in
  if cur.in_comment then
    while
      !j < limit
      &&
      let k = class_of (String.unsafe_get text !j) in
      k = word_byte || k = hash
    do
      incr j
    done
  else
    while !j < limit && class_of (String.unsafe_get text !j) = word_byte do
      incr j
    done;
  !j

let tok_end cur t =
  if t = cur.last then cur.last_stop
  else if class_of (String.unsafe_get cur.text t) = punct then t + 1
  else word_end cur t

(* text.[i, i + |w|) = w, within the limit.  The loops here and in the
   number readers close over nothing, so a call allocates nothing. *)
let bytes_are cur i w =
  let n = String.length w in
  if i + n > cur.limit then false
  else begin
    let k = ref 0 in
    while !k < n && String.unsafe_get cur.text (i + !k) = String.unsafe_get w !k do
      incr k
    done;
    !k = n
  end

(* Consume the comment whose '#' is at [cur.pos], up to the end of its
   line, recording it when its first word starts with "tdflow.". *)
let comment cur =
  let text = cur.text in
  let stop =
    match String.index_from_opt text cur.pos '\n' with
    | Some j -> j
    | None -> String.length text
  in
  let first = ref (cur.pos + 1) in
  while !first < stop && class_of text.[!first] = blank do
    incr first
  done;
  if !first + 7 <= stop && bytes_are cur !first "tdflow." then
    cur.exts <- { e_line = cur.line; e_start = !first; e_stop = stop } :: cur.exts;
  cur.pos <- stop

(* Scan the lookahead token if none is pending. *)
let fill cur =
  if cur.start < 0 then begin
    let text = cur.text and limit = cur.limit in
    let i = ref cur.pos in
    while cur.start < 0 do
      if !i >= limit then begin
        cur.start <- !i;
        cur.stop <- !i
      end
      else
        let k = class_of (String.unsafe_get text !i) in
        if k = blank then incr i
        else if k = newline then begin
          cur.line <- cur.line + 1;
          incr i
        end
        else if k = hash && not cur.in_comment then begin
          cur.pos <- !i;
          comment cur;
          i := cur.pos
        end
        else begin
          let j = if k = punct then !i + 1 else word_end cur !i in
          cur.start <- !i;
          cur.stop <- j;
          i := j
        end
    done;
    cur.pos <- !i
  end

let at_end cur =
  fill cur;
  cur.start = cur.stop

let is cur w =
  fill cur;
  cur.stop - cur.start = String.length w && bytes_are cur cur.start w

let line cur =
  fill cur;
  cur.line

let next cur what =
  fill cur;
  if cur.start = cur.stop then fail "unexpected end of file (in %s)" what;
  let t = cur.start in
  cur.start <- -1;
  cur.last <- t;
  cur.last_stop <- cur.stop;
  t

let equal cur t w = bytes_are cur t w && tok_end cur t = t + String.length w

let word cur t = String.sub cur.text t (tok_end cur t - t)

(* Tokens never span a newline, so the lines between a consumed token and
   the read position are the newlines between them. *)
let line_of cur t =
  let l = ref cur.line in
  for i = t to cur.pos - 1 do
    if String.unsafe_get cur.text i = '\n' then decr l
  done;
  !l

(* The diagnostic is formatted only on failure: [expect] runs for most
   punctuation tokens of a file. *)
let expect cur w =
  fill cur;
  if cur.start = cur.stop then fail "unexpected end of file (in %S)" w;
  let t = cur.start in
  cur.start <- -1;
  if cur.stop - t <> String.length w || not (bytes_are cur t w) then
    fail "line %d: expected %S, got %S" cur.line w (word cur t)

let rec skip_statement cur =
  let t = next cur "statement" in
  if not (equal cur t ";") then skip_statement cur

let is_digit c = c >= '0' && c <= '9'

(* Numbers are DEF decimals: [-?digits] for an integer,
   [-?digits[.digits][(e|E)[+-]digits]] for a number.  Anything else —
   OCaml's [0x]/[0o]/[0b] prefixes, [_] separators, a leading [+],
   [nan], [inf] — is an error, although the stdlib conversions would take
   it.  Short plain forms, which the writers emit, are read in place; the
   long ones and exponents go through the stdlib conversion of a copy,
   which for an integer also rejects what overflows. *)
let int cur t =
  let text = cur.text and e = tok_end cur t in
  let i0 = if String.unsafe_get text t = '-' then t + 1 else t in
  let v = ref 0 and i = ref i0 in
  while !i < e && is_digit (String.unsafe_get text !i) do
    v := (!v * 10) + Char.code (String.unsafe_get text !i) - 48;
    incr i
  done;
  let plain = !i = e && e > i0 in
  if plain && e - i0 <= 18 then if i0 > t then - !v else !v
  else
    let s = String.sub text t (e - t) in
    match if plain then int_of_string_opt s else None with
    | Some v -> v
    | None -> fail "line %d: expected integer, got %S" (line_of cur t) s

(* At most 15 significant digits make an exact double mantissa, and 10^k
   (k <= 15) is exact, so one division rounds the decimal value once and
   correctly, as the stdlib conversion does. *)
let pow10 = Array.init 16 (fun k -> float_of_string ("1e" ^ string_of_int k))

(* Whether byte [i] of a token ending at [e] is one of [cs]. *)
let byte_in text e i cs = i < e && String.contains cs (String.unsafe_get text i)

let digit_at text e i = i < e && is_digit (String.unsafe_get text i)

let float cur t =
  let text = cur.text and e = tok_end cur t in
  let i0 = if String.unsafe_get text t = '-' then t + 1 else t in
  (* digits, then optionally '.' and digits, then optionally an exponent *)
  let m = ref 0 and nd = ref 0 and k = ref 0 and i = ref i0 in
  while digit_at text e !i do
    m := (!m * 10) + Char.code (String.unsafe_get text !i) - 48;
    incr nd;
    incr i
  done;
  let ok = ref (!nd >= 1) in
  if !ok && byte_in text e !i "." then begin
    incr i;
    ok := digit_at text e !i;
    while digit_at text e !i do
      m := (!m * 10) + Char.code (String.unsafe_get text !i) - 48;
      incr nd;
      incr k;
      incr i
    done
  end;
  let exponent = !ok && byte_in text e !i "eE" in
  if exponent then begin
    incr i;
    if byte_in text e !i "+-" then incr i;
    ok := digit_at text e !i;
    while digit_at text e !i do
      incr i
    done
  end;
  if not (!ok && !i = e) then
    fail "line %d: expected number, got %S" (line_of cur t)
      (String.sub text t (e - t))
  else if (not exponent) && !nd <= 15 then
    let v = float_of_int !m /. pow10.(!k) in
    if i0 > t then -.v else v
  else float_of_string (String.sub text t (e - t))

let extensions cur =
  while not (at_end cur) do
    cur.start <- -1
  done;
  List.rev cur.exts

let ext_line e = e.e_line

let ext_cursor cur e =
  {
    text = cur.text;
    limit = e.e_stop;
    in_comment = true;
    pos = e.e_start;
    line = e.e_line;
    start = -1;
    stop = -1;
    last = -1;
    last_stop = -1;
    exts = [];
  }
