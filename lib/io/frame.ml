type error =
  | Oversized of { len : int; limit : int }
  | Bad_prefix of string
  | Bad_terminator

let error_to_string = function
  | Oversized { len; limit } ->
    Printf.sprintf "frame length %d exceeds limit %d" len limit
  | Bad_prefix s -> Printf.sprintf "malformed length prefix %S" s
  | Bad_terminator -> "frame payload not terminated by newline"

let encode payload =
  let b = Buffer.create (String.length payload + 16) in
  Buffer.add_string b (string_of_int (String.length payload));
  Buffer.add_char b '\n';
  Buffer.add_string b payload;
  Buffer.add_char b '\n';
  Buffer.contents b

let write buf payload =
  Buffer.add_string buf (string_of_int (String.length payload));
  Buffer.add_char buf '\n';
  Buffer.add_string buf payload;
  Buffer.add_char buf '\n'

(* The decoder keeps one flat buffer of unconsumed bytes and a scan
   position.  Consumed prefixes are compacted away lazily (only when the
   dead prefix outgrows the live tail) so feeding many small chunks stays
   linear. *)
type decoder = {
  max_frame : int;
  buf : Buffer.t;
  mutable pos : int;  (** start of the un-parsed region within [buf] *)
  mutable poisoned : error option;
}

let default_max_frame = 16 * 1024 * 1024

let decoder ?(max_frame = default_max_frame) () =
  { max_frame; buf = Buffer.create 256; pos = 0; poisoned = None }

let feed d ?(off = 0) ?len s =
  (match d.poisoned with
  | Some e -> invalid_arg ("Frame.feed: poisoned decoder: " ^ error_to_string e)
  | None -> ());
  let len = Option.value len ~default:(String.length s - off) in
  Buffer.add_substring d.buf s off len

let compact d =
  if d.pos > 4096 && d.pos * 2 > Buffer.length d.buf then begin
    let tail = Buffer.sub d.buf d.pos (Buffer.length d.buf - d.pos) in
    Buffer.clear d.buf;
    Buffer.add_string d.buf tail;
    d.pos <- 0
  end

let poison d e =
  d.poisoned <- Some e;
  Error e

(* A length prefix is 1-10 decimal digits; anything longer than the
   digits of [max_int] cannot be a sane length and is rejected even
   before its newline arrives, so a stream of garbage fails fast instead
   of buffering forever. *)
let max_prefix_digits = 19

let next d =
  match d.poisoned with
  | Some e -> Error e
  | None ->
    let len_total = Buffer.length d.buf in
    let rec find_nl i =
      if i >= len_total then None
      else if Buffer.nth d.buf i = '\n' then Some i
      else find_nl (i + 1)
    in
    (match find_nl d.pos with
    | None ->
      if len_total - d.pos > max_prefix_digits then
        poison d
          (Bad_prefix (Buffer.sub d.buf d.pos (min 32 (len_total - d.pos))))
      else Ok None
    | Some nl ->
      let prefix = Buffer.sub d.buf d.pos (nl - d.pos) in
      (match int_of_string_opt prefix with
      | None -> poison d (Bad_prefix prefix)
      | Some len when len < 0 -> poison d (Bad_prefix prefix)
      | Some len when len > d.max_frame ->
        poison d (Oversized { len; limit = d.max_frame })
      | Some len ->
        (* payload + trailing '\n' must be fully buffered *)
        if len_total - nl - 1 < len + 1 then Ok None
        else if Buffer.nth d.buf (nl + 1 + len) <> '\n' then
          poison d Bad_terminator
        else begin
          let payload = Buffer.sub d.buf (nl + 1) len in
          d.pos <- nl + 1 + len + 1;
          compact d;
          Ok (Some payload)
        end))
