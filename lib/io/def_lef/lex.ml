exception Parse of string

let fail fmt = Format.kasprintf (fun s -> raise (Parse s)) fmt

type tok = int

type cursor = {
  text : string;
  mutable limit : int;  (* end of the bytes this cursor reads *)
  in_comment : bool;  (* an extension comment's words: '#' is a word byte *)
  mutable pos : int;  (* next unread byte *)
  mutable line : int;  (* line of text.[pos] *)
  mutable start : int;
      (* lookahead token text.[start, stop): -1 when none is scanned,
         start = stop at end of input *)
  mutable stop : int;
  mutable last : int;  (* the last consumed token ... *)
  mutable last_stop : int;  (* ... ends here, so matching it rescans nothing *)
  mutable exts : int array;
      (* the extension comments passed so far, three entries each: line,
         start and end of its words *)
  mutable n_exts : int;
}

let make text ~limit ~in_comment =
  {
    text;
    limit;
    in_comment;
    pos = 0;
    line = 1;
    start = -1;
    stop = -1;
    last = -1;
    last_stop = -1;
    exts = [||];
    n_exts = 0;
  }

let cursor text = make text ~limit:(String.length text) ~in_comment:false

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
  let stop = ref cur.pos in
  while !stop < String.length text && String.unsafe_get text !stop <> '\n' do
    incr stop
  done;
  let stop = !stop in
  let first = ref (cur.pos + 1) in
  while !first < stop && class_of text.[!first] = blank do
    incr first
  done;
  if !first + 7 <= stop && bytes_are cur !first "tdflow." then begin
    let n = cur.n_exts in
    if n + 3 > Array.length cur.exts then begin
      let exts = Array.make (max 48 (2 * n)) 0 in
      Array.blit cur.exts 0 exts 0 n;
      cur.exts <- exts
    end;
    cur.exts.(n) <- cur.line;
    cur.exts.(n + 1) <- !first;
    cur.exts.(n + 2) <- stop;
    cur.n_exts <- n + 3
  end;
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

let extensions cur f =
  while not (at_end cur) do
    cur.start <- -1
  done;
  let c = make cur.text ~limit:0 ~in_comment:true in
  for e = 0 to (cur.n_exts / 3) - 1 do
    let line = cur.exts.(3 * e) in
    c.limit <- cur.exts.((3 * e) + 2);
    c.pos <- cur.exts.((3 * e) + 1);
    c.line <- line;
    c.start <- -1;
    c.last <- -1;
    f line c
  done

(* ---- name tables ---------------------------------------------------- *)

(* Against a stdlib [Hashtbl] keyed by copied names, this table halves
   [Def.to_design] and takes a quarter off the DEF reads of an 11k-cell
   export (DESIGN.md §10); the packed short keys are worth about 2 ms of
   the 15 ms read. *)

type names = {
  mutable slots : int array;
      (* open addressing with linear probing: slot [s] is the pair [2s]
         (a name's key) and [2s + 1] (0 when empty, k + 1 for name k), so
         a probe reads one cache line *)
  mutable shift : int;  (* 63 minus log2 of the slot count *)
  mutable strs : string array;  (* by name *)
  mutable count : int;
}

let names n =
  let n = max 32 (min n (1 lsl 20)) in
  (* the smallest power of two of slots that holds n at three quarters *)
  let bits = ref 6 in
  while 3 lsl !bits < 4 * n do
    incr bits
  done;
  { slots = Array.make (2 lsl !bits) 0; shift = 63 - !bits; strs = Array.make (3 lsl (!bits - 2)) ""; count = 0 }

(* A name's key.  A name of at most seven bytes is its own key, its bytes
   and length packed in an int, so it is found without reading a string;
   a longer one has an FNV-1a hash of its bytes with bit 59 set, which no
   packed key has. *)
let span_key text i j =
  if j - i <= 7 then begin
    let k = ref (j - i) in
    for p = i to j - 1 do
      k := (!k lsl 8) lor Char.code (String.unsafe_get text p)
    done;
    !k
  end
  else begin
    let h = ref 0 in
    for p = i to j - 1 do
      h := (!h lxor Char.code (String.unsafe_get text p)) * 0x100000001b3
    done;
    (!h land ((1 lsl 59) - 1)) lor (1 lsl 59)
  end

let span_is text i j s =
  String.length s = j - i
  &&
  let k = ref 0 in
  while !k < j - i && String.unsafe_get text (i + !k) = String.unsafe_get s !k do
    incr k
  done;
  !k = j - i

(* Fibonacci hashing: the top bits of the key times 2^63 / golden ratio. *)
let home tbl key = (key * 0x4F1BBCDCBFA53E0B) lsr tbl.shift

let place tbl key k =
  let mask = (Array.length tbl.slots / 2) - 1 in
  let s = ref (home tbl key) in
  while Array.unsafe_get tbl.slots ((2 * !s) + 1) <> 0 do
    s := (!s + 1) land mask
  done;
  Array.unsafe_set tbl.slots (2 * !s) key;
  Array.unsafe_set tbl.slots ((2 * !s) + 1) (k + 1)

let add tbl key str =
  let k = tbl.count in
  if k = Array.length tbl.strs then begin
    let strs = Array.make (2 * k) "" in
    Array.blit tbl.strs 0 strs 0 k;
    tbl.strs <- strs
  end;
  tbl.strs.(k) <- str;
  tbl.count <- k + 1;
  place tbl key k;
  (* at most three quarters full, so a probe ends soon *)
  if 8 * tbl.count > 3 * Array.length tbl.slots then begin
    let old = tbl.slots in
    tbl.slots <- Array.make (2 * Array.length old) 0;
    tbl.shift <- tbl.shift - 1;
    for s = 0 to (Array.length old / 2) - 1 do
      if old.((2 * s) + 1) <> 0 then place tbl old.(2 * s) (old.((2 * s) + 1) - 1)
    done
  end;
  k

(* The number of the name text.[i, j), whose key is [key], or -1. *)
let find tbl text i j key =
  let slots = tbl.slots in
  let mask = (Array.length slots / 2) - 1 in
  let s = ref (home tbl key) and found = ref (-1) in
  while !found < 0 && Array.unsafe_get slots ((2 * !s) + 1) <> 0 do
    let k = Array.unsafe_get slots ((2 * !s) + 1) - 1 in
    if Array.unsafe_get slots (2 * !s) = key && (j - i <= 7 || span_is text i j tbl.strs.(k))
    then found := k
    else s := (!s + 1) land mask
  done;
  !found

let intern cur tbl t =
  let text = cur.text and e = tok_end cur t in
  let key = span_key text t e in
  let k = find tbl text t e key in
  if k >= 0 then k else add tbl key (String.sub text t (e - t))

let find_name tbl str =
  let n = String.length str in
  find tbl str 0 n (span_key str 0 n)

let add_name tbl str =
  let n = String.length str in
  let key = span_key str 0 n in
  let k = find tbl str 0 n key in
  if k >= 0 then k else add tbl key str

let count tbl = tbl.count

let names_array tbl = Array.sub tbl.strs 0 tbl.count
