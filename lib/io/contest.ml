module Rect = Tdf_geometry.Rect
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Blockage = Tdf_netlist.Blockage
module Net = Tdf_netlist.Net
module Design = Tdf_netlist.Design

type terminal_spec = { t_size : int; t_spacing : int }

open Lines

type raw_inst = { ri_name : string; ri_lib : string }

type parse_state = {
  mutable techs : (string, (string, int * int) Hashtbl.t) Hashtbl.t;
  mutable cur_tech : (string, int * int) Hashtbl.t option;
  mutable die_size : (int * int * int * int) option;
  mutable top_util : float;
  mutable bottom_util : float;
  mutable top_rows : (int * int * int * int * int) option;
  mutable bottom_rows : (int * int * int * int * int) option;
  mutable top_tech : string option;
  mutable bottom_tech : string option;
  mutable term_size : int option;
  mutable term_spacing : int option;
  mutable insts : raw_inst list;  (* reversed *)
  mutable nets : (string * string list) list;  (* reversed; pins reversed *)
  mutable cur_net : (string * int * string list) option;
  mutable places : (string, int * int * float) Hashtbl.t;
  mutable fixed : (string * string * int * int * int) list;  (* reversed *)
}

let fresh_state () =
  {
    techs = Hashtbl.create 4;
    cur_tech = None;
    die_size = None;
    top_util = 100.;
    bottom_util = 100.;
    top_rows = None;
    bottom_rows = None;
    top_tech = None;
    bottom_tech = None;
    term_size = None;
    term_spacing = None;
    insts = [];
    nets = [];
    cur_net = None;
    places = Hashtbl.create 64;
    fixed = [];
  }

let flush_net st =
  match st.cur_net with
  | Some (name, expected, pins) ->
    if List.length pins <> expected then
      fail "net %s: expected %d pins, found %d" name expected (List.length pins);
    st.nets <- (name, List.rev pins) :: st.nets;
    st.cur_net <- None
  | None -> ()

let die_of_word cur k =
  if is cur k "Top" || is cur k "top" then 1
  else if is cur k "Bottom" || is cur k "bottom" then 0
  else fail "line %d: expected Top or Bottom, got %S" (line cur) (word cur k)

(* One record.  Fields are read in the order the list-based reader
   evaluated them, right to left within each tuple, so a line with several
   bad fields reports the same one. *)
let handle st cur =
  let n = words cur and kw = is cur 0 in
  if n = 2 && (kw "NumTechnologies" || kw "NumInstances" || kw "NumNets") then ()
  else if n = 3 && kw "Tech" then begin
    let tbl = Hashtbl.create 16 in
    Hashtbl.replace st.techs (word cur 1) tbl;
    st.cur_tech <- Some tbl
  end
  else if n = 4 && kw "LibCell" then begin
    match st.cur_tech with
    | Some tbl ->
      let sy = int cur 3 in
      Hashtbl.replace tbl (word cur 1) (int cur 2, sy)
    | None -> fail "line %d: LibCell outside a Tech section" (line cur)
  end
  else if n = 5 && kw "DieSize" then begin
    let uy = int cur 4 in
    let ux = int cur 3 in
    let ly = int cur 2 in
    st.die_size <- Some (int cur 1, ly, ux, uy)
  end
  else if n = 2 && kw "TopDieMaxUtil" then st.top_util <- float cur 1
  else if n = 2 && kw "BottomDieMaxUtil" then st.bottom_util <- float cur 1
  else if n = 6 && (kw "TopDieRows" || kw "BottomDieRows") then begin
    let rows = int cur 5 in
    let h = int cur 4 in
    let len = int cur 3 in
    let y = int cur 2 in
    let r = Some (int cur 1, y, len, h, rows) in
    if kw "TopDieRows" then st.top_rows <- r else st.bottom_rows <- r
  end
  else if n = 2 && kw "TopDieTech" then st.top_tech <- Some (word cur 1)
  else if n = 2 && kw "BottomDieTech" then st.bottom_tech <- Some (word cur 1)
  else if n = 3 && kw "TerminalSize" then st.term_size <- Some (int cur 1)
  else if n = 2 && kw "TerminalSpacing" then st.term_spacing <- Some (int cur 1)
  else if n = 3 && kw "Inst" then
    st.insts <- { ri_name = word cur 1; ri_lib = word cur 2 } :: st.insts
  else if n = 3 && kw "Net" then begin
    flush_net st;
    st.cur_net <- Some (word cur 1, int cur 2, [])
  end
  else if n = 2 && kw "Pin" then begin
    match st.cur_net with
    | Some (name, expected, pins) ->
      let pin = word cur 1 in
      let inst =
        match String.index_opt pin '/' with
        | Some i -> String.sub pin 0 i
        | None -> pin
      in
      st.cur_net <- Some (name, expected, inst :: pins)
    | None -> fail "line %d: Pin outside a Net section" (line cur)
  end
  else if n = 5 && kw "Place" then begin
    let z = float cur 4 in
    let y = int cur 3 in
    Hashtbl.replace st.places (word cur 1) (int cur 2, y, z)
  end
  else if n = 6 && kw "FixedInst" then begin
    let y = int cur 5 in
    let x = int cur 4 in
    let die = die_of_word cur 3 in
    st.fixed <- (word cur 1, word cur 2, die, x, y) :: st.fixed
  end
  else fail "line %d: unrecognized record %S" (line cur) (word cur 0)

let build st =
  let lx, ly, ux, uy =
    match st.die_size with Some d -> d | None -> fail "missing DieSize"
  in
  let outline = Rect.make ~x:lx ~y:ly ~w:(ux - lx) ~h:(uy - ly) in
  let row_height which = function
    | Some (_, _, _, h, _) -> h
    | None -> fail "missing %sDieRows" which
  in
  let h_bottom = row_height "Bottom" st.bottom_rows in
  let h_top = row_height "Top" st.top_rows in
  let tech_of which = function
    | Some t ->
      (try Hashtbl.find st.techs t
       with Not_found -> fail "unknown tech %s for the %s die" t which)
    | None -> fail "missing %sDieTech" which
  in
  let bottom_lib = tech_of "bottom" st.bottom_tech in
  let top_lib = tech_of "top" st.top_tech in
  let dies =
    [|
      Die.make ~index:0 ~outline ~row_height:h_bottom
        ~max_util:(Float.min 1.0 (st.bottom_util /. 100.)) ();
      Die.make ~index:1 ~outline ~row_height:h_top
        ~max_util:(Float.min 1.0 (st.top_util /. 100.)) ();
    |]
  in
  let lib_dims which tbl lib h_r =
    match Hashtbl.find_opt tbl lib with
    | Some (w, h) ->
      if h <> h_r then
        fail "libcell %s height %d does not match the %s die row height %d" lib h
          which h_r;
      w
    | None -> fail "libcell %s not in the %s die tech" lib which
  in
  let insts = Array.of_list (List.rev st.insts) in
  let name_to_id = Hashtbl.create (Array.length insts) in
  let cells =
    Array.mapi
      (fun id inst ->
        Hashtbl.replace name_to_id inst.ri_name id;
        let w0 = lib_dims "bottom" bottom_lib inst.ri_lib h_bottom in
        let w1 = lib_dims "top" top_lib inst.ri_lib h_top in
        let gp_x, gp_y, gp_z =
          match Hashtbl.find_opt st.places inst.ri_name with
          | Some pos -> pos
          | None -> (lx + ((ux - lx) / 2), ly + ((uy - ly) / 2), 0.5)
        in
        Cell.make ~id ~name:inst.ri_name ~widths:[| w0; w1 |] ~gp_x ~gp_y ~gp_z ())
      insts
  in
  let macros =
    List.rev st.fixed
    |> List.mapi (fun id (name, lib, die, x, y) ->
           let tbl = if die = 0 then bottom_lib else top_lib in
           match Hashtbl.find_opt tbl lib with
           | Some (w, h) ->
             Blockage.make ~id ~name ~die ~rect:(Rect.make ~x ~y ~w ~h) ()
           | None -> fail "fixed inst %s: libcell %s not in its die tech" name lib)
    |> Array.of_list
  in
  let nets =
    List.rev st.nets
    |> List.mapi (fun id (name, pins) ->
           let pins =
             pins
             |> List.map (fun inst ->
                    match Hashtbl.find_opt name_to_id inst with
                    | Some i -> i
                    | None -> fail "net %s references unknown instance %s" name inst)
             |> Array.of_list
           in
           Net.make ~id ~name ~pins ())
    |> Array.of_list
  in
  let design = Design.make ~name:"contest" ~dies ~cells ~macros ~nets () in
  let terminal =
    match (st.term_size, st.term_spacing) with
    | Some t_size, Some t_spacing -> Some { t_size; t_spacing }
    | Some t_size, None -> Some { t_size; t_spacing = 0 }
    | None, _ -> None
  in
  (design, terminal)

let read text =
  try
    let st = fresh_state () in
    let cur = Lines.cursor text in
    while Lines.next cur do
      handle st cur
    done;
    flush_net st;
    let design, terminal = build st in
    match Design.validate design with
    | Ok () -> Ok (design, terminal)
    | Error (e :: _) -> Error e
    | Error [] -> Ok (design, terminal)
  with
  | Parse msg -> Error msg
  | Assert_failure _ -> Error "invalid field value (assertion)"

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let render ?terminal (d : Design.t) =
  if Design.n_dies d <> 2 then
    invalid_arg "Contest.to_string: the contest dialect describes two-die designs";
  let bottom = Design.die d 0 and top = Design.die d 1 in
  (* one libcell per distinct (w0, w1) pair, named C<w0>_<w1> *)
  let pairs = Hashtbl.create 64 in
  Array.iter
    (fun (c : Cell.t) ->
      Hashtbl.replace pairs (c.Cell.widths.(0), c.Cell.widths.(1)) ())
    d.Design.cells;
  let pair_list = Hashtbl.fold (fun k () acc -> k :: acc) pairs [] |> List.sort compare in
  let b = Buffer.create (96 * (Design.n_cells d + Array.length d.Design.nets + 16)) in
  let str = Buffer.add_string b and nl () = Buffer.add_char b '\n' in
  let word s = Buffer.add_char b ' '; str s in
  let lib_name (w0, w1) =
    str " C";
    Tdf_util.Decimal.add_int b w0;
    Buffer.add_char b '_';
    Tdf_util.Decimal.add_int b w1
  in
  let macro_name i = str " MacroLib"; Tdf_util.Decimal.add_int b i in
  let int v = Buffer.add_char b ' '; Tdf_util.Decimal.add_int b v in
  let line kw ints = str kw; List.iter int ints; nl () in
  line "NumTechnologies" [ 2 ];
  let emit_tech name die_idx h_r =
    let n_lib = List.length pair_list + Array.length d.Design.macros in
    str "Tech";
    word name;
    int n_lib;
    nl ();
    List.iter
      (fun (w0, w1) ->
        str "LibCell";
        lib_name (w0, w1);
        int (if die_idx = 0 then w0 else w1);
        int h_r;
        nl ())
      pair_list;
    Array.iteri
      (fun i (m : Blockage.t) ->
        str "LibCell";
        macro_name i;
        int m.Blockage.rect.Rect.w;
        int m.Blockage.rect.Rect.h;
        nl ())
      d.Design.macros
  in
  emit_tech "BottomTech" 0 bottom.Die.row_height;
  emit_tech "TopTech" 1 top.Die.row_height;
  let o = bottom.Die.outline in
  line "DieSize" [ o.Rect.x; o.Rect.y; o.Rect.x + o.Rect.w; o.Rect.y + o.Rect.h ];
  Printf.bprintf b "TopDieMaxUtil %.0f\n" (top.Die.max_util *. 100.);
  Printf.bprintf b "BottomDieMaxUtil %.0f\n" (bottom.Die.max_util *. 100.);
  line "BottomDieRows"
    [ o.Rect.x; o.Rect.y; o.Rect.w; bottom.Die.row_height; Die.num_rows bottom ];
  line "TopDieRows" [ o.Rect.x; o.Rect.y; o.Rect.w; top.Die.row_height; Die.num_rows top ];
  str "BottomDieTech BottomTech\n";
  str "TopDieTech TopTech\n";
  (match terminal with
  | Some t ->
    line "TerminalSize" [ t.t_size; t.t_size ];
    line "TerminalSpacing" [ t.t_spacing ]
  | None -> ());
  line "NumInstances" [ Design.n_cells d ];
  Array.iter
    (fun (c : Cell.t) ->
      str "Inst";
      word c.Cell.name;
      lib_name (c.Cell.widths.(0), c.Cell.widths.(1));
      nl ())
    d.Design.cells;
  line "NumNets" [ Array.length d.Design.nets ];
  Array.iter
    (fun (n : Net.t) ->
      str "Net";
      word n.Net.name;
      int (Array.length n.Net.pins);
      nl ();
      Array.iteri
        (fun i pin ->
          str "Pin";
          word (Design.cell d pin).Cell.name;
          str "/P";
          Tdf_util.Decimal.add_int b i;
          nl ())
        n.Net.pins)
    d.Design.nets;
  Array.iter
    (fun (c : Cell.t) ->
      str "Place";
      word c.Cell.name;
      int c.Cell.gp_x;
      int c.Cell.gp_y;
      Buffer.add_char b ' ';
      Tdf_util.Decimal.add_fixed6 b c.Cell.gp_z;
      nl ())
    d.Design.cells;
  Array.iteri
    (fun i (m : Blockage.t) ->
      str "FixedInst";
      word m.Blockage.name;
      macro_name i;
      word (if m.Blockage.die = 1 then "Top" else "Bottom");
      int m.Blockage.rect.Rect.x;
      int m.Blockage.rect.Rect.y;
      nl ())
    d.Design.macros;
  b

let to_string ?terminal d = Buffer.contents (render ?terminal d)

let load path = read (In_channel.with_open_text path In_channel.input_all)

let save ?terminal path d =
  let b = render ?terminal d in
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc b)

let read_exn text =
  match read text with Ok v -> v | Error msg -> failwith ("Contest.read: " ^ msg)

let load_exn path =
  match load path with
  | Ok v -> v
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
