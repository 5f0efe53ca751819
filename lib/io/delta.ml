(* ECO delta text format; see the interface for the grammar.  Records
   come from the [Lines] cursor, which [Text] and [Contest] share. *)

type op =
  | Move of { cell : int; x : int; y : int; die : int }
  | Resize of { cell : int; widths : int array }
  | Add of { name : string; x : int; y : int; die : int; widths : int array }
  | Remove of { cell : int }
  | Add_macro of { name : string; die : int; x : int; y : int; w : int; h : int }

type t = op list

open Lines

(* Words [k..] of the current line as widths: all read, then checked. *)
let widths_of cur k =
  let a = ints cur k in
  Array.iter (fun w -> if w <= 0 then fail "line %d: width must be positive" (line cur)) a;
  a

(* Fields are read in the order the list-based reader evaluated them,
   right to left within each record, so a line with several bad fields
   reports the same one. *)
let read text =
  try
    let ops = ref [] in
    let cur = Lines.cursor text in
    while Lines.next cur do
      let n = words cur in
      let op =
        if n = 5 && is cur 0 "move" then
          let die = int cur 4 in
          let y = int cur 3 in
          let x = int cur 2 in
          Move { cell = int cur 1; x; y; die }
        else if n >= 3 && is cur 0 "resize" then
          let widths = widths_of cur 2 in
          Resize { cell = int cur 1; widths }
        else if n >= 6 && is cur 0 "add" then
          let widths = widths_of cur 5 in
          let die = int cur 4 in
          let y = int cur 3 in
          Add { name = word cur 1; x = int cur 2; y; die; widths }
        else if n = 2 && is cur 0 "remove" then Remove { cell = int cur 1 }
        else if n = 7 && is cur 0 "macro" then
          let h = int cur 6 in
          let w = int cur 5 in
          let y = int cur 4 in
          let x = int cur 3 in
          Add_macro { name = word cur 1; die = int cur 2; x; y; w; h }
        else fail "line %d: unrecognized delta op %S" (line cur) (word cur 0)
      in
      ops := op :: !ops
    done;
    Ok (List.rev !ops)
  with Parse msg -> Error msg

let to_string ops =
  let buf = Buffer.create 256 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun op ->
      (match op with
      | Move { cell; x; y; die } -> out "move %d %d %d %d" cell x y die
      | Resize { cell; widths } ->
        out "resize %d" cell;
        Array.iter (fun w -> out " %d" w) widths
      | Add { name; x; y; die; widths } ->
        out "add %s %d %d %d" name x y die;
        Array.iter (fun w -> out " %d" w) widths
      | Remove { cell } -> out "remove %d" cell
      | Add_macro { name; die; x; y; w; h } ->
        out "macro %s %d %d %d %d %d" name die x y w h);
      Buffer.add_char buf '\n')
    ops;
  Buffer.contents buf

let load path = read (In_channel.with_open_text path In_channel.input_all)

let save path ops =
  let oc = open_out path in
  output_string oc (to_string ops);
  close_out oc

let read_exn text =
  match read text with
  | Ok v -> v
  | Error msg -> failwith ("Delta.read: " ^ msg)

let load_exn path =
  match load path with
  | Ok v -> v
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
