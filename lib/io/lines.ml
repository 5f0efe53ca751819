exception Parse of string

let fail fmt = Format.kasprintf (fun s -> raise (Parse s)) fmt

let is_sep c = c = ' ' || c = '\t'

(* The words of text.[start, stop), scanned right to left so the list is
   built in order without a reversal. *)
let words text start stop =
  let rec go acc i =
    if i <= start then acc
    else if is_sep text.[i - 1] then go acc (i - 1)
    else begin
      let j = ref (i - 1) in
      while !j > start && not (is_sep text.[!j - 1]) do
        decr j
      done;
      go (String.sub text !j (i - !j) :: acc) !j
    end
  in
  go [] stop

let iter text f =
  let n = String.length text in
  let start = ref 0 and line = ref 1 in
  while !start <= n do
    let eol =
      match String.index_from_opt text !start '\n' with Some j -> j | None -> n
    in
    (* The comment search stops at the end of this line: searching the
       whole remaining text for the next '#' would make a file with few
       comments quadratic. *)
    let stop = ref !start in
    while !stop < eol && text.[!stop] <> '#' do
      incr stop
    done;
    (match words text !start !stop with [] -> () | ws -> f !line ws);
    start := eol + 1;
    incr line
  done

let int_of ~line s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail "line %d: expected integer, got %S" line s

let float_of ~line s =
  match float_of_string_opt s with
  | Some v -> v
  | None -> fail "line %d: expected number, got %S" line s
