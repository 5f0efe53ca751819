(* ECO delta text format; see the interface for the grammar.  Records
   come from [Lines], the tokenizer [Text] and [Contest] share. *)

type op =
  | Move of { cell : int; x : int; y : int; die : int }
  | Resize of { cell : int; widths : int array }
  | Add of { name : string; x : int; y : int; die : int; widths : int array }
  | Remove of { cell : int }
  | Add_macro of { name : string; die : int; x : int; y : int; w : int; h : int }

type t = op list

open Lines

let widths_of ~line ws =
  let a = Array.of_list (List.map (int_of ~line) ws) in
  Array.iter (fun w -> if w <= 0 then fail "line %d: width must be positive" line) a;
  a

let read text =
  try
    let ops = ref [] in
    Lines.iter text (fun line words ->
        let op =
          match words with
          | [ "move"; c; x; y; d ] ->
            Move
              { cell = int_of ~line c; x = int_of ~line x; y = int_of ~line y;
                die = int_of ~line d }
          | "resize" :: c :: ws when ws <> [] ->
            Resize { cell = int_of ~line c; widths = widths_of ~line ws }
          | "add" :: name :: x :: y :: d :: ws when ws <> [] ->
            Add
              { name; x = int_of ~line x; y = int_of ~line y;
                die = int_of ~line d; widths = widths_of ~line ws }
          | [ "remove"; c ] -> Remove { cell = int_of ~line c }
          | [ "macro"; name; d; x; y; w; h ] ->
            Add_macro
              { name; die = int_of ~line d; x = int_of ~line x;
                y = int_of ~line y; w = int_of ~line w; h = int_of ~line h }
          | kw :: _ -> fail "line %d: unrecognized delta op %S" line kw
          | [] -> assert false
        in
        ops := op :: !ops);
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

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load path = read (read_file path)

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
