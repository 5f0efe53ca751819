exception Parse of string

let fail fmt = Format.kasprintf (fun s -> raise (Parse s)) fmt

type tok = { line : int; word : string }

type cursor = {
  text : string;
  mutable pos : int;  (* next unread byte *)
  mutable line : int;  (* line of text.[pos] *)
  mutable ahead : tok option;  (* a token peeked but not consumed *)
  mutable exts : (int * string list) list;  (* reversed *)
}

let cursor text = { text; pos = 0; line = 1; ahead = None; exts = [] }

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

let punct_word = function '(' -> "(" | ')' -> ")" | _ -> ";"

(* End of the word starting at i: the next byte of another class, or
   [stop]. *)
let word_end text i stop ~in_comment =
  let j = ref i in
  while
    !j < stop
    &&
    let k = class_of (String.unsafe_get text !j) in
    k = word_byte || (in_comment && k = hash)
  do
    incr j
  done;
  !j

(* The words of the comment body text.[i, stop), split like code. *)
let comment_words text i stop =
  let rec go acc i =
    if i >= stop then List.rev acc
    else
      let k = class_of text.[i] in
      if k = blank then go acc (i + 1)
      else if k = punct then go (punct_word text.[i] :: acc) (i + 1)
      else
        let j = word_end text i stop ~in_comment:true in
        go (String.sub text i (j - i) :: acc) j
  in
  go [] i

let is_ext text i stop = i + 7 <= stop && String.sub text i 7 = "tdflow."

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
  if is_ext text !first stop then
    cur.exts <- (cur.line, comment_words text !first stop) :: cur.exts;
  cur.pos <- stop

let rec scan cur =
  let text = cur.text and i = cur.pos in
  if i >= String.length text then None
  else
    let c = String.unsafe_get text i in
    let k = class_of c in
    if k = blank then begin
      cur.pos <- i + 1;
      scan cur
    end
    else if k = newline then begin
      cur.line <- cur.line + 1;
      cur.pos <- i + 1;
      scan cur
    end
    else if k = hash then begin
      comment cur;
      scan cur
    end
    else if k = punct then begin
      cur.pos <- i + 1;
      Some { line = cur.line; word = punct_word c }
    end
    else
      let j = word_end text i (String.length text) ~in_comment:false in
      cur.pos <- j;
      Some { line = cur.line; word = String.sub text i (j - i) }

let peek cur =
  match cur.ahead with
  | Some _ as t -> t
  | None ->
    let t = scan cur in
    cur.ahead <- t;
    t

let next cur what =
  match peek cur with
  | Some t ->
    cur.ahead <- None;
    t
  | None -> fail "unexpected end of file (in %s)" what

(* The diagnostic is formatted only on failure: [expect] runs for most
   punctuation tokens of a file. *)
let expect cur w =
  match peek cur with
  | Some t ->
    cur.ahead <- None;
    if t.word <> w then fail "line %d: expected %S, got %S" t.line w t.word
  | None -> fail "unexpected end of file (in %S)" w

let rec skip_statement cur =
  let t = next cur "statement" in
  if t.word <> ";" then skip_statement cur

let extensions cur =
  let rec drain () = match scan cur with Some _ -> drain () | None -> () in
  drain ();
  cur.ahead <- None;
  List.rev cur.exts

let int_of ~line s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail "line %d: expected integer, got %S" line s

let float_of ~line s =
  match float_of_string_opt s with
  | Some v -> v
  | None -> fail "line %d: expected number, got %S" line s
