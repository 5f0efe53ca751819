exception Parse of string

let fail fmt = Format.kasprintf (fun s -> raise (Parse s)) fmt

type cursor = {
  text : string;
  mutable next_start : int;  (* first byte of the next unread line *)
  mutable line : int;  (* the current line, 1-based; 0 before the first *)
  mutable n : int;  (* words on the current line ... *)
  mutable starts : int array;  (* ... word k is text.[starts.(k), stops.(k)) *)
  mutable stops : int array;
}

let cursor text =
  { text; next_start = 0; line = 0; n = 0; starts = Array.make 16 0; stops = Array.make 16 0 }

let push cur s e =
  if cur.n = Array.length cur.starts then begin
    let grow a =
      let b = Array.make (2 * cur.n) 0 in
      Array.blit a 0 b 0 cur.n;
      b
    in
    cur.starts <- grow cur.starts;
    cur.stops <- grow cur.stops
  end;
  Array.unsafe_set cur.starts cur.n s;
  Array.unsafe_set cur.stops cur.n e;
  cur.n <- cur.n + 1

(* Byte classes: the word separators, the line end, the comment start,
   and every other byte, which belongs to a word. *)
let word_byte = 'w' and sep = 's' and newline = 'n' and hash = 'h'

let classes =
  String.init 256 (fun i ->
      match Char.chr i with
      | ' ' | '\t' -> sep
      | '\n' -> newline
      | '#' -> hash
      | _ -> word_byte)

let class_at text i = String.unsafe_get classes (Char.code (String.unsafe_get text i))

(* The offset of the first '\n' at or after [i], or the text's length.
   Eight bytes at a time first: a byte of [x] is zero exactly where the
   text holds a '\n', and [(x - 0x01..) land (lnot x) land 0x80..] is
   nonzero exactly when [x] has a zero byte. *)
let line_end text i =
  let len = String.length text in
  let j = ref i and found = ref false in
  while (not !found) && !j + 8 <= len do
    let x = Int64.logxor (String.get_int64_le text !j) 0x0a0a0a0a0a0a0a0aL in
    let z =
      Int64.logand
        (Int64.logand (Int64.sub x 0x0101010101010101L) (Int64.lognot x))
        0x8080808080808080L
    in
    if (z : int64) = 0L then j := !j + 8 else found := true
  done;
  while !j < len && String.unsafe_get text !j <> '\n' do
    incr j
  done;
  !j

(* Record the words of the line starting at [start], up to its end or its
   first '#' (only its first word when [all] is false), and return the
   offset of its '\n' (the text's length on the last line).  The comment
   search stops at the end of the line: searching the whole remaining text
   for the next '#' would make a file with few comments quadratic. *)
let split cur ~all start =
  let text = cur.text and len = String.length cur.text in
  cur.n <- 0;
  let i = ref start and eol = ref (-1) in
  while !eol < 0 do
    if !i >= len then eol := len
    else
      let k = class_at text !i in
      if k = sep then incr i
      else if k = newline then eol := !i
      else if k = hash then eol := line_end text !i
      else begin
        let s = !i in
        incr i;
        while !i < len && class_at text !i = word_byte do
          incr i
        done;
        push cur s !i;
        if not all then eol := line_end text !i
      end
  done;
  !eol

let advance cur ~all =
  let len = String.length cur.text in
  cur.n <- 0;
  while cur.n = 0 && cur.next_start <= len do
    cur.line <- cur.line + 1;
    cur.next_start <- split cur ~all cur.next_start + 1
  done;
  cur.n > 0

let next cur = advance cur ~all:true

let next_head cur = advance cur ~all:false

let line cur = cur.line

let words cur = cur.n

let is cur k w =
  let s = cur.starts.(k) in
  let n = String.length w in
  cur.stops.(k) - s = n
  &&
  let j = ref 0 in
  while !j < n && String.unsafe_get cur.text (s + !j) = String.unsafe_get w !j do
    incr j
  done;
  !j = n

let word cur k = String.sub cur.text cur.starts.(k) (cur.stops.(k) - cur.starts.(k))

let is_digit c = c >= '0' && c <= '9'

(* [-?digits] of at most 18 digits cannot overflow and is read in place;
   every other token goes to the stdlib conversion of a copy, which
   decides what else is an integer ([0x1f], [1_000], [+7]) and what
   overflows. *)
let int cur k =
  let text = cur.text and t = cur.starts.(k) and e = cur.stops.(k) in
  let i0 = if String.unsafe_get text t = '-' then t + 1 else t in
  let v = ref 0 and i = ref i0 in
  while !i < e && is_digit (String.unsafe_get text !i) do
    v := (!v * 10) + Char.code (String.unsafe_get text !i) - 48;
    incr i
  done;
  if !i = e && e > i0 && e - i0 <= 18 then if i0 > t then - !v else !v
  else
    let s = String.sub text t (e - t) in
    match int_of_string_opt s with
    | Some v -> v
    | None -> fail "line %d: expected integer, got %S" cur.line s

let ints cur k =
  let a = Array.make (cur.n - k) 0 in
  for j = 0 to Array.length a - 1 do
    a.(j) <- int cur (k + j)
  done;
  a

(* At most 15 significant digits make an exact double mantissa, and 10^k
   (k <= 15) is exact, so one division rounds the decimal value once and
   correctly, as the stdlib conversion does. *)
let pow10 = Array.init 16 (fun k -> float_of_string ("1e" ^ string_of_int k))

(* [-?digits.digits] or [-?digits] with at most 15 digits in all is read
   in place; every other token ([1e3], [.5], [1.], [nan], [0x1p3], long
   mantissas) goes to the stdlib conversion of a copy. *)
let float cur k =
  let text = cur.text and t = cur.starts.(k) and e = cur.stops.(k) in
  let i0 = if String.unsafe_get text t = '-' then t + 1 else t in
  let m = ref 0 and nd = ref 0 and frac = ref 0 and i = ref i0 in
  while !i < e && is_digit (String.unsafe_get text !i) do
    m := (!m * 10) + Char.code (String.unsafe_get text !i) - 48;
    incr nd;
    incr i
  done;
  let plain = ref (!nd > 0) in
  if !plain && !i < e && String.unsafe_get text !i = '.' then begin
    incr i;
    while !i < e && is_digit (String.unsafe_get text !i) do
      m := (!m * 10) + Char.code (String.unsafe_get text !i) - 48;
      incr nd;
      incr frac;
      incr i
    done;
    plain := !frac > 0
  end;
  if !plain && !i = e && !nd <= 15 then
    let v = float_of_int !m /. Array.unsafe_get pow10 !frac in
    if i0 > t then -.v else v
  else
    let s = String.sub text t (e - t) in
    match float_of_string_opt s with
    | Some v -> v
    | None -> fail "line %d: expected number, got %S" cur.line s
