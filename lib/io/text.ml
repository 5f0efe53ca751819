(* Format grammar (one record per line, whitespace separated):

     design <name>
     die <index> <x> <y> <w> <h> <row_height> <site_width> <max_util>
     cell <id> <name> <gp_x> <gp_y> <gp_z> <w_die0> <w_die1> ...
     cellw <id> <name> <gp_x> <gp_y> <gp_z> <weight> <w_die0> <w_die1> ...
     macro <id> <name> <die> <x> <y> <w> <h>
     net <id> <name> <pin0> <pin1> ...
     place <cell> <x> <y> <die>           (placement files only)

   `#` starts a comment; empty lines are ignored.  Names must not contain
   whitespace (the generator's names never do). *)

module Rect = Tdf_geometry.Rect
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Blockage = Tdf_netlist.Blockage
module Net = Tdf_netlist.Net
module Design = Tdf_netlist.Design
module Placement = Tdf_netlist.Placement

open Lines

(* Writers render into one buffer, integers and floats through the shared
   decimal formatters (floats as an exact "%.6f"). *)
let render_design (d : Design.t) =
  let b = Buffer.create (64 * (Design.n_cells d + Array.length d.Design.nets + 8)) in
  let str = Buffer.add_string b and nl () = Buffer.add_char b '\n' in
  let word s = Buffer.add_char b ' '; str s in
  let int v = Buffer.add_char b ' '; Tdf_util.Decimal.add_int b v in
  let flt v = Buffer.add_char b ' '; Tdf_util.Decimal.add_fixed6 b v in
  str "design";
  word d.Design.name;
  nl ();
  Array.iter
    (fun (die : Die.t) ->
      let o = die.Die.outline in
      str "die";
      List.iter int
        [ die.Die.index; o.Rect.x; o.Rect.y; o.Rect.w; o.Rect.h; die.Die.row_height;
          die.Die.site_width ];
      flt die.Die.max_util;
      nl ())
    d.Design.dies;
  Array.iter
    (fun (c : Cell.t) ->
      str (if c.Cell.weight = 1.0 then "cell" else "cellw");
      int c.Cell.id;
      word c.Cell.name;
      int c.Cell.gp_x;
      int c.Cell.gp_y;
      flt c.Cell.gp_z;
      if c.Cell.weight <> 1.0 then flt c.Cell.weight;
      Array.iter int c.Cell.widths;
      nl ())
    d.Design.cells;
  Array.iter
    (fun (m : Blockage.t) ->
      let r = m.Blockage.rect in
      str "macro";
      int m.Blockage.id;
      word m.Blockage.name;
      List.iter int [ m.Blockage.die; r.Rect.x; r.Rect.y; r.Rect.w; r.Rect.h ];
      nl ())
    d.Design.macros;
  Array.iter
    (fun (n : Net.t) ->
      str "net";
      int n.Net.id;
      word n.Net.name;
      Array.iter int n.Net.pins;
      nl ())
    d.Design.nets;
  b

let design_to_string d = Buffer.contents (render_design d)

(* Stand-ins that fill the record arrays until pass 2 writes them. *)
let no_die =
  Die.make ~index:0 ~outline:(Rect.make ~x:0 ~y:0 ~w:0 ~h:0) ~row_height:1 ()

let no_cell = Cell.make ~id:0 ~widths:[| 1 |] ~gp_x:0 ~gp_y:0 ~gp_z:0. ()

let no_macro = Blockage.make ~id:0 ~die:0 ~rect:no_die.Die.outline ()

let no_net = Net.make ~id:0 ~pins:[| 0 |] ()

(* The records in id order.  Files written by [render_design] list them in
   order already; otherwise this is the order a stable sort of the records
   in reverse file order gives, so of two equal ids the later one comes
   first. *)
let by_id id a =
  let n = Array.length a in
  let k = ref 1 in
  while !k < n && id a.(!k - 1) < id a.(!k) do
    incr k
  done;
  if !k < n then begin
    for i = 0 to (n / 2) - 1 do
      let t = a.(i) in
      a.(i) <- a.(n - 1 - i);
      a.(n - 1 - i) <- t
    done;
    Array.stable_sort (fun x y -> Int.compare (id x) (id y)) a
  end;
  a

(* Pass 1 counts the records of each kind, so pass 2 fills arrays of their
   final size.  A counted line that is no record fails pass 2, so the
   counts are exact whenever the read succeeds.  Pass 2 reads the fields
   of a record in the order the list-based reader evaluated them (right to
   left within each constructor call), so a line with several bad fields
   reports the same one. *)
let read_design text =
  try
    let cur = Lines.cursor text in
    let n_dies = ref 0 and n_cells = ref 0 and n_macros = ref 0 and n_nets = ref 0 in
    while Lines.next_head cur do
      if is cur 0 "cell" || is cur 0 "cellw" then incr n_cells
      else if is cur 0 "net" then incr n_nets
      else if is cur 0 "macro" then incr n_macros
      else if is cur 0 "die" then incr n_dies
    done;
    let dies = Array.make !n_dies no_die and cells = Array.make !n_cells no_cell in
    let macros = Array.make !n_macros no_macro and nets = Array.make !n_nets no_net in
    let n_dies = ref 0 and n_cells = ref 0 and n_macros = ref 0 and n_nets = ref 0 in
    let add a n v =
      a.(!n) <- v;
      incr n
    in
    let name = ref "unnamed" in
    let cur = Lines.cursor text in
    while Lines.next cur do
      let n = words cur in
      if n >= 7 && is cur 0 "cell" then begin
        let widths = ints cur 6 in
        let gp_z = float cur 5 in
        let gp_y = int cur 4 in
        let gp_x = int cur 3 in
        add cells n_cells
          (Cell.make ~id:(int cur 1) ~name:(word cur 2) ~widths ~gp_x ~gp_y ~gp_z ())
      end
      else if n >= 8 && is cur 0 "cellw" then begin
        let widths = ints cur 7 in
        let gp_z = float cur 5 in
        let gp_y = int cur 4 in
        let gp_x = int cur 3 in
        let weight = float cur 6 in
        add cells n_cells
          (Cell.make ~id:(int cur 1) ~name:(word cur 2) ~weight ~widths ~gp_x ~gp_y
             ~gp_z ())
      end
      else if n = 8 && is cur 0 "macro" then begin
        let h = int cur 7 in
        let w = int cur 6 in
        let y = int cur 5 in
        let rect = Rect.make ~x:(int cur 4) ~y ~w ~h in
        let die = int cur 3 in
        add macros n_macros
          (Blockage.make ~id:(int cur 1) ~name:(word cur 2) ~die ~rect ())
      end
      else if n >= 4 && is cur 0 "net" then begin
        let pins = ints cur 3 in
        add nets n_nets (Net.make ~id:(int cur 1) ~name:(word cur 2) ~pins ())
      end
      else if n >= 2 && is cur 0 "design" then name := word cur 1
      else if n = 9 && is cur 0 "die" then begin
        let h = int cur 5 in
        let w = int cur 4 in
        let y = int cur 3 in
        let outline = Rect.make ~x:(int cur 2) ~y ~w ~h in
        let max_util = float cur 8 in
        let site_width = int cur 7 in
        let row_height = int cur 6 in
        add dies n_dies
          (Die.make ~index:(int cur 1) ~outline ~row_height ~site_width ~max_util ())
      end
      else fail "line %d: unrecognized record %S" (line cur) (word cur 0)
    done;
    let design =
      Design.make ~name:!name
        ~dies:(by_id (fun d -> d.Die.index) dies)
        ~cells:(by_id (fun c -> c.Cell.id) cells)
        ~macros:(by_id (fun m -> m.Blockage.id) macros)
        ~nets:(by_id (fun n -> n.Net.id) nets)
        ()
    in
    match Design.validate design with
    | Ok () -> Ok design
    | Error (e :: _) -> Error e
    | Error [] -> Ok design
  with
  | Parse msg -> Error msg
  | Assert_failure _ -> Error "invalid field value (assertion)"

let render_placement (p : Placement.t) =
  let n = Placement.n_cells p in
  let b = Buffer.create (32 * n) in
  let int v = Buffer.add_char b ' '; Tdf_util.Decimal.add_int b v in
  for c = 0 to n - 1 do
    Buffer.add_string b "place";
    int c;
    int p.Placement.x.(c);
    int p.Placement.y.(c);
    int p.Placement.die.(c);
    Buffer.add_char b '\n'
  done;
  b

let placement_to_string _design p = Buffer.contents (render_placement p)

let read_placement design text =
  try
    let p = Placement.initial design in
    let cur = Lines.cursor text in
    while Lines.next cur do
      if words cur = 5 && is cur 0 "place" then begin
        let c = int cur 1 in
        if c < 0 || c >= Placement.n_cells p then
          fail "line %d: cell %d out of range" (line cur) c;
        p.Placement.x.(c) <- int cur 2;
        p.Placement.y.(c) <- int cur 3;
        p.Placement.die.(c) <- int cur 4
      end
      else fail "line %d: unrecognized record %S" (line cur) (word cur 0)
    done;
    Ok p
  with Parse msg -> Error msg

let write_file path b = Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc b)

let read_file path = In_channel.with_open_text path In_channel.input_all

let save_design path d = write_file path (render_design d)

let load_design path = read_design (read_file path)

let save_placement path _design p = write_file path (render_placement p)

let load_placement path design = read_placement design (read_file path)

let read_design_exn text =
  match read_design text with
  | Ok v -> v
  | Error msg -> failwith ("Text.read_design: " ^ msg)

let load_design_exn path =
  match load_design path with
  | Ok v -> v
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)

let load_placement_exn path design =
  match load_placement path design with
  | Ok v -> v
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
