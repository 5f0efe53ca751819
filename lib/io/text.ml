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

let read_design text =
  try
    let name = ref "unnamed" in
    let dies = ref [] and cells = ref [] and macros = ref [] and nets = ref [] in
    Lines.iter text (fun line words ->
        match words with
        | "design" :: n :: _ -> name := n
        | [ "die"; i; x; y; w; h; rh; sw; mu ] ->
          let outline =
            Rect.make ~x:(int_of ~line x) ~y:(int_of ~line y) ~w:(int_of ~line w)
              ~h:(int_of ~line h)
          in
          dies :=
            Die.make ~index:(int_of ~line i) ~outline
              ~row_height:(int_of ~line rh) ~site_width:(int_of ~line sw)
              ~max_util:(float_of ~line mu) ()
            :: !dies
        | "cell" :: id :: cname :: x :: y :: z :: ws when ws <> [] ->
          let widths = Array.of_list (List.map (int_of ~line) ws) in
          cells :=
            Cell.make ~id:(int_of ~line id) ~name:cname ~widths
              ~gp_x:(int_of ~line x) ~gp_y:(int_of ~line y)
              ~gp_z:(float_of ~line z) ()
            :: !cells
        | "cellw" :: id :: cname :: x :: y :: z :: wt :: ws when ws <> [] ->
          let widths = Array.of_list (List.map (int_of ~line) ws) in
          cells :=
            Cell.make ~id:(int_of ~line id) ~name:cname
              ~weight:(float_of ~line wt) ~widths ~gp_x:(int_of ~line x)
              ~gp_y:(int_of ~line y) ~gp_z:(float_of ~line z) ()
            :: !cells
        | [ "macro"; id; mname; die; x; y; w; h ] ->
          let rect =
            Rect.make ~x:(int_of ~line x) ~y:(int_of ~line y) ~w:(int_of ~line w)
              ~h:(int_of ~line h)
          in
          macros :=
            Blockage.make ~id:(int_of ~line id) ~name:mname
              ~die:(int_of ~line die) ~rect ()
            :: !macros
        | "net" :: id :: nname :: ps when ps <> [] ->
          let pins = Array.of_list (List.map (int_of ~line) ps) in
          nets := Net.make ~id:(int_of ~line id) ~name:nname ~pins () :: !nets
        | kw :: _ -> fail "line %d: unrecognized record %S" line kw
        | [] -> ());
    let sort_by f l = List.sort (fun a b -> compare (f a) (f b)) l in
    let design =
      Design.make ~name:!name
        ~dies:(Array.of_list (sort_by (fun d -> d.Die.index) !dies))
        ~cells:(Array.of_list (sort_by (fun c -> c.Cell.id) !cells))
        ~macros:(Array.of_list (sort_by (fun m -> m.Blockage.id) !macros))
        ~nets:(Array.of_list (sort_by (fun n -> n.Net.id) !nets))
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
    Lines.iter text (fun line words ->
        match words with
        | [ "place"; c; x; y; d ] ->
          let c = int_of ~line c in
          if c < 0 || c >= Placement.n_cells p then
            fail "line %d: cell %d out of range" line c;
          p.Placement.x.(c) <- int_of ~line x;
          p.Placement.y.(c) <- int_of ~line y;
          p.Placement.die.(c) <- int_of ~line d
        | kw :: _ -> fail "line %d: unrecognized record %S" line kw
        | [] -> ());
    Ok p
  with Parse msg -> Error msg

let write_file path b = Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc b)

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

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
