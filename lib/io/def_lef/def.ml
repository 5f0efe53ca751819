(* DEF-lite reader/writer and the design-model converters; grammar and
   conventions in def.mli.  The reader is a recursive descent over a Lex
   cursor; the writer emits one canonical byte-stable rendering, which is
   what makes `export ∘ import ∘ export` an identity. *)

open Lex
module Rect = Tdf_geometry.Rect
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Blockage = Tdf_netlist.Blockage
module Net = Tdf_netlist.Net
module Design = Tdf_netlist.Design
module Placement = Tdf_netlist.Placement

type status = Placed | Fixed | Unplaced

type component = {
  c_name : string;
  c_macro : string;
  c_status : status;
  c_x : int;
  c_y : int;
  c_orient : string;
}

type pin = {
  p_name : string;
  p_net : string;
  p_dir : string;
  p_use : string;
  p_status : status;
  p_x : int;
  p_y : int;
  p_orient : string;
}

type pin_ref = Comp of string * string | External of string

type net = { n_name : string; n_pins : pin_ref list }

type row = {
  r_name : string;
  r_site : string;
  r_x : int;
  r_y : int;
  r_orient : string;
  r_count : int;
  r_step : int;
}

type t = {
  design : string;
  units : int;
  diearea : Rect.t;
  rows : row list;
  components : component list;
  pins : pin list;
  nets : net list;
  blockages : Rect.t list;
  die : int option;
  n_dies : int option;
  max_util : float option;
  gp : (string * (int * int * float * float)) list;
}

(* ---- reader -------------------------------------------------------- *)

(* ( <x> <y> ) *)
let parse_point cur =
  expect cur "(";
  let x = next cur "point" in
  let y = next cur "point" in
  expect cur ")";
  (int_of ~line:x.line x.word, int_of ~line:y.line y.word)

(* PLACED/FIXED ( x y ) <orient>, or UNPLACED. *)
let parse_status cur t =
  match t.word with
  | "PLACED" | "FIXED" ->
    let x, y = parse_point cur in
    let o = next cur "orientation" in
    ((if t.word = "FIXED" then Fixed else Placed), x, y, o.word)
  | "UNPLACED" -> (Unplaced, 0, 0, "N")
  | w -> fail "line %d: expected PLACED, FIXED or UNPLACED, got %S" t.line w

let check_count ~line what declared found =
  if declared <> found then
    fail "line %d: %s declared %d entries, found %d" line what declared found

let parse_components cur ~line n =
  let comps = ref [] in
  let rec loop () =
    let t = next cur "COMPONENTS" in
    match t.word with
    | "END" -> expect cur "COMPONENTS"
    | "-" ->
      let name = (next cur "component name").word in
      let mac = (next cur "component macro").word in
      let t2 = next cur "component" in
      let status, x, y, orient =
        match t2.word with
        | ";" -> (Unplaced, 0, 0, "N")
        | "+" ->
          let r = parse_status cur (next cur "placement status") in
          expect cur ";";
          r
        | w ->
          fail "line %d: expected + or ; in component %s, got %S" t2.line name
            w
      in
      comps :=
        {
          c_name = name;
          c_macro = mac;
          c_status = status;
          c_x = x;
          c_y = y;
          c_orient = orient;
        }
        :: !comps;
      loop ()
    | w -> fail "line %d: expected - or END COMPONENTS, got %S" t.line w
  in
  loop ();
  let comps = List.rev !comps in
  check_count ~line "COMPONENTS" n (List.length comps);
  comps

let parse_pins cur ~line n =
  let pins = ref [] in
  let rec entry p =
    let t = next cur "PINS" in
    match t.word with
    | ";" -> p
    | "+" -> (
      let k = next cur "pin option" in
      match k.word with
      | "NET" -> entry { p with p_net = (next cur "NET").word }
      | "DIRECTION" -> entry { p with p_dir = (next cur "DIRECTION").word }
      | "USE" -> entry { p with p_use = (next cur "USE").word }
      | "PLACED" | "FIXED" ->
        let x, y = parse_point cur in
        let o = next cur "orientation" in
        entry
          {
            p with
            p_status = (if k.word = "FIXED" then Fixed else Placed);
            p_x = x;
            p_y = y;
            p_orient = o.word;
          }
      | "LAYER" ->
        (* + LAYER <name> ( x y ) ( x y ): not modeled; skip the group. *)
        let rec skip () =
          match peek cur with
          | Some t when t.word <> "+" && t.word <> ";" ->
            ignore (next cur "LAYER");
            skip ()
          | Some _ -> ()
          | None -> fail "unexpected end of file (in PINS)"
        in
        skip ();
        entry p
      | w -> fail "line %d: unrecognized pin option %S" k.line w)
    | w -> fail "line %d: expected + or ; in pin %s, got %S" t.line p.p_name w
  in
  let rec loop () =
    let t = next cur "PINS" in
    match t.word with
    | "END" -> expect cur "PINS"
    | "-" ->
      let name = (next cur "pin name").word in
      pins :=
        entry
          {
            p_name = name;
            p_net = "";
            p_dir = "";
            p_use = "";
            p_status = Unplaced;
            p_x = 0;
            p_y = 0;
            p_orient = "N";
          }
        :: !pins;
      loop ()
    | w -> fail "line %d: expected - or END PINS, got %S" t.line w
  in
  loop ();
  let pins = List.rev !pins in
  check_count ~line "PINS" n (List.length pins);
  pins

let parse_nets cur ~line n =
  let nets = ref [] in
  let rec pins_of acc =
    let t = next cur "NETS" in
    match t.word with
    | ";" -> List.rev acc
    | "(" ->
      let a = next cur "net pin" in
      let r =
        if a.word = "PIN" then External (next cur "net pin").word
        else Comp (a.word, (next cur "net pin").word)
      in
      expect cur ")";
      pins_of (r :: acc)
    | w -> fail "line %d: expected ( or ; in net, got %S" t.line w
  in
  let rec loop () =
    let t = next cur "NETS" in
    match t.word with
    | "END" -> expect cur "NETS"
    | "-" ->
      let name = (next cur "net name").word in
      nets := { n_name = name; n_pins = pins_of [] } :: !nets;
      loop ()
    | w -> fail "line %d: expected - or END NETS, got %S" t.line w
  in
  loop ();
  let nets = List.rev !nets in
  check_count ~line "NETS" n (List.length nets);
  nets

let parse_blockages cur ~line n =
  let rects = ref [] and entries = ref 0 in
  let rec rects_of () =
    let t = next cur "BLOCKAGES" in
    match t.word with
    | ";" -> ()
    | "RECT" ->
      let x1, y1 = parse_point cur in
      let x2, y2 = parse_point cur in
      if x2 <= x1 || y2 <= y1 then
        fail "line %d: blockage RECT is not a positive box" t.line;
      rects := Rect.make ~x:x1 ~y:y1 ~w:(x2 - x1) ~h:(y2 - y1) :: !rects;
      rects_of ()
    | w -> fail "line %d: expected RECT or ; in blockage, got %S" t.line w
  in
  let rec loop () =
    let t = next cur "BLOCKAGES" in
    match t.word with
    | "END" -> expect cur "BLOCKAGES"
    | "-" ->
      expect cur "PLACEMENT";
      incr entries;
      rects_of ();
      loop ()
    | w -> fail "line %d: expected - or END BLOCKAGES, got %S" t.line w
  in
  loop ();
  check_count ~line "BLOCKAGES" n !entries;
  List.rev !rects

let parse cur =
  let design = ref None
  and units = ref None
  and diearea = ref None
  and rows = ref []
  and comps = ref None
  and pins = ref None
  and nets = ref None
  and blocks = ref None in
  let section what stored parse_fn t =
    let nt = next cur what in
    let n = int_of ~line:nt.line nt.word in
    expect cur ";";
    if !stored <> None then fail "line %d: duplicate %s section" t.line what;
    stored := Some (parse_fn cur ~line:t.line n)
  in
  let rec loop () =
    let t = next cur "design" in
    match t.word with
    | "VERSION" | "DIVIDERCHAR" | "BUSBITCHARS" ->
      skip_statement cur;
      loop ()
    | "DESIGN" ->
      let n = next cur "DESIGN" in
      expect cur ";";
      if !design <> None then fail "line %d: duplicate DESIGN" t.line;
      design := Some n.word;
      loop ()
    | "UNITS" ->
      expect cur "DISTANCE";
      expect cur "MICRONS";
      let u = next cur "UNITS" in
      expect cur ";";
      units := Some (int_of ~line:u.line u.word);
      loop ()
    | "DIEAREA" ->
      let x1, y1 = parse_point cur in
      let x2, y2 = parse_point cur in
      expect cur ";";
      if x2 <= x1 || y2 <= y1 then
        fail "line %d: DIEAREA is not a positive two-point box" t.line;
      diearea := Some (Rect.make ~x:x1 ~y:y1 ~w:(x2 - x1) ~h:(y2 - y1));
      loop ()
    | "ROW" ->
      let name = (next cur "ROW name").word in
      let site = (next cur "ROW site").word in
      let xt = next cur "ROW" in
      let yt = next cur "ROW" in
      let orient = (next cur "ROW orientation").word in
      expect cur "DO";
      let ct = next cur "ROW count" in
      expect cur "BY";
      let bt = next cur "ROW" in
      if int_of ~line:bt.line bt.word <> 1 then
        fail "line %d: ROW %s: only DO <n> BY 1 rows are in the subset"
          t.line name;
      let step =
        match peek cur with
        | Some { word = "STEP"; _ } ->
          ignore (next cur "STEP");
          let sx = next cur "STEP" in
          let _sy = next cur "STEP" in
          int_of ~line:sx.line sx.word
        | _ -> 0
      in
      expect cur ";";
      rows :=
        {
          r_name = name;
          r_site = site;
          r_x = int_of ~line:xt.line xt.word;
          r_y = int_of ~line:yt.line yt.word;
          r_orient = orient;
          r_count = int_of ~line:ct.line ct.word;
          r_step = step;
        }
        :: !rows;
      loop ()
    | "COMPONENTS" ->
      section "COMPONENTS" comps parse_components t;
      loop ()
    | "PINS" ->
      section "PINS" pins parse_pins t;
      loop ()
    | "NETS" ->
      section "NETS" nets parse_nets t;
      loop ()
    | "BLOCKAGES" ->
      section "BLOCKAGES" blocks parse_blockages t;
      loop ()
    | "END" ->
      expect cur "DESIGN";
      (match peek cur with
      | Some t -> fail "line %d: trailing tokens after END DESIGN" t.line
      | None -> ())
    | w ->
      fail
        "line %d: unrecognized design statement %S (outside the DEF-lite \
         subset; see lib/io/def_lef/def.mli)"
        t.line w
  in
  loop ();
  (* Extension comments are checked after the body and its trailing-token
     check, so a body error is reported ahead of an extension error. *)
  let die = ref None
  and n_dies = ref None
  and max_util = ref None
  and gp = ref [] in
  List.iter
    (fun (line, ws) ->
      match ws with
      | [ "tdflow.die"; i; "of"; n ] ->
        die := Some (int_of ~line i);
        n_dies := Some (int_of ~line n)
      | "tdflow.die" :: _ ->
        fail "line %d: tdflow.die wants '# tdflow.die <i> of <n>'" line
      | [ "tdflow.max_util"; u ] -> max_util := Some (float_of ~line u)
      | "tdflow.max_util" :: _ ->
        fail "line %d: tdflow.max_util wants one number" line
      | [ "tdflow.gp"; name; x; y; z ] ->
        gp :=
          (name, (int_of ~line x, int_of ~line y, float_of ~line z, 1.0))
          :: !gp
      | [ "tdflow.gp"; name; x; y; z; w ] ->
        gp :=
          ( name,
            (int_of ~line x, int_of ~line y, float_of ~line z,
             float_of ~line w) )
          :: !gp
      | "tdflow.gp" :: _ ->
        fail "line %d: tdflow.gp wants '<comp> <x> <y> <z> [<weight>]'" line
      | kw :: _ -> fail "line %d: unknown extension comment %S" line kw
      | [] -> ())
    (extensions cur);
  {
    design =
      (match !design with
      | Some d -> d
      | None -> fail "missing DESIGN statement");
    units = Option.value !units ~default:1000;
    diearea =
      (match !diearea with
      | Some a -> a
      | None -> fail "missing DIEAREA statement");
    rows = List.rev !rows;
    components = Option.value !comps ~default:[];
    pins = Option.value !pins ~default:[];
    nets = Option.value !nets ~default:[];
    blockages = Option.value !blocks ~default:[];
    die = !die;
    n_dies = !n_dies;
    max_util = !max_util;
    gp = List.rev !gp;
  }

let read text = try Ok (parse (cursor text)) with Parse msg -> Error msg

(* ---- writer -------------------------------------------------------- *)

let render (d : t) =
  let b =
    Buffer.create
      (64 * (List.length d.rows + List.length d.pins + List.length d.nets + 16)
      + (128 * List.length d.components))
  in
  let str = Buffer.add_string b and nl () = Buffer.add_char b '\n' in
  let word s = Buffer.add_char b ' '; str s in
  let int v = word (string_of_int v) in
  let point x y = str " ("; int x; int y; str " )" in
  let placed status x y orient =
    str (match status with Fixed -> " + FIXED" | _ -> " + PLACED");
    point x y;
    word orient
  in
  str "VERSION 5.8 ;\n";
  (match (d.die, d.n_dies) with
  | Some i, Some n ->
    str "# tdflow.die";
    int i;
    str " of";
    int n;
    nl ()
  | _ -> ());
  Option.iter (fun u -> Printf.bprintf b "# tdflow.max_util %.6f\n" u) d.max_util;
  str "DESIGN";
  word d.design;
  str " ;\nUNITS DISTANCE MICRONS";
  int d.units;
  str " ;\nDIEAREA";
  let a = d.diearea in
  point a.Rect.x a.Rect.y;
  point (a.Rect.x + a.Rect.w) (a.Rect.y + a.Rect.h);
  str " ;\n";
  List.iter
    (fun r ->
      str "ROW";
      word r.r_name;
      word r.r_site;
      int r.r_x;
      int r.r_y;
      word r.r_orient;
      str " DO";
      int r.r_count;
      str " BY 1";
      if r.r_step > 0 then begin
        str " STEP";
        int r.r_step;
        str " 0"
      end;
      str " ;\n")
    d.rows;
  str "COMPONENTS";
  int (List.length d.components);
  str " ;\n";
  List.iter
    (fun c ->
      str "  -";
      word c.c_name;
      word c.c_macro;
      (match c.c_status with
      | Placed | Fixed -> placed c.c_status c.c_x c.c_y c.c_orient
      | Unplaced -> str " + UNPLACED");
      str " ;\n")
    d.components;
  str "END COMPONENTS\n";
  List.iter
    (fun (name, (x, y, z, w)) ->
      str "# tdflow.gp";
      word name;
      int x;
      int y;
      Printf.bprintf b " %.6f" z;
      if w <> 1.0 then Printf.bprintf b " %.6f" w;
      nl ())
    d.gp;
  if d.pins <> [] then begin
    str "PINS";
    int (List.length d.pins);
    str " ;\n";
    List.iter
      (fun p ->
        str "  -";
        word p.p_name;
        if p.p_net <> "" then (str " + NET"; word p.p_net);
        if p.p_dir <> "" then (str " + DIRECTION"; word p.p_dir);
        if p.p_use <> "" then (str " + USE"; word p.p_use);
        (match p.p_status with
        | Placed | Fixed -> placed p.p_status p.p_x p.p_y p.p_orient
        | Unplaced -> ());
        str " ;\n")
      d.pins;
    str "END PINS\n"
  end;
  if d.nets <> [] then begin
    str "NETS";
    int (List.length d.nets);
    str " ;\n";
    List.iter
      (fun n ->
        str "  -";
        word n.n_name;
        List.iter
          (function
            | Comp (c, p) -> str " ("; word c; word p; str " )"
            | External p -> str " ( PIN"; word p; str " )")
          n.n_pins;
        str " ;\n")
      d.nets;
    str "END NETS\n"
  end;
  if d.blockages <> [] then begin
    str "BLOCKAGES";
    int (List.length d.blockages);
    str " ;\n";
    List.iter
      (fun (r : Rect.t) ->
        str "  - PLACEMENT RECT";
        point r.Rect.x r.Rect.y;
        point (r.Rect.x + r.Rect.w) (r.Rect.y + r.Rect.h);
        str " ;\n")
      d.blockages;
    str "END BLOCKAGES\n"
  end;
  str "END DESIGN\n";
  b

let to_string t = Buffer.contents (render t)

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load path = read (read_file path)

let save path t =
  let b = render t in
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc b)

let read_exn text =
  match read text with Ok v -> v | Error msg -> failwith ("Def.read: " ^ msg)

let load_exn path =
  match load path with
  | Ok v -> v
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)

(* ---- DEF/LEF -> design --------------------------------------------- *)

let to_design ~lef defs =
  try
    if defs = [] then fail "no DEF files to import";
    let n = List.length defs in
    (* Die pairing: tdflow.die tags (all files or none), else list order. *)
    let tagged = List.length (List.filter (fun d -> d.die <> None) defs) in
    let indexed =
      if tagged = 0 then List.mapi (fun i d -> (i, d)) defs
      else if tagged = n then List.map (fun d -> (Option.get d.die, d)) defs
      else fail "a tdflow.die tag is present in some DEF files but not all"
    in
    let seen = Array.make n false in
    List.iter
      (fun (i, d) ->
        if i < 0 || i >= n then
          fail "%s: tdflow.die %d out of range for %d DEF files" d.design i n;
        if seen.(i) then fail "two DEF files claim die %d" i;
        seen.(i) <- true;
        match d.n_dies with
        | Some m when m <> n ->
          fail "%s: tdflow.die says %d dies but %d DEF files were given"
            d.design m n
        | _ -> ())
      indexed;
    let indexed = List.sort (fun (a, _) (b, _) -> compare a b) indexed in
    let d0 = snd (List.hd indexed) in
    List.iter
      (fun (_, d) ->
        if d.units <> d0.units then
          fail "DEF files disagree on UNITS (%d vs %d)" d0.units d.units;
        if d.design <> d0.design then
          fail "DEF files disagree on DESIGN (%s vs %s)" d0.design d.design)
      (List.tl indexed);
    let dies =
      indexed
      |> List.map (fun (i, d) ->
             let site =
               match d.rows with
               | [] ->
                 fail "die %d: no ROW statement; cannot derive row geometry"
                   i
               | r0 :: rest ->
                 List.iter
                   (fun r ->
                     if r.r_site <> r0.r_site then
                       fail "die %d: rows reference different sites (%s vs %s)"
                         i r0.r_site r.r_site)
                   rest;
                 (match Lef.find_site lef r0.r_site with
                 | Some s -> s
                 | None -> fail "die %d: site %s is not in the LEF" i r0.r_site)
             in
             List.iter
               (fun r ->
                 if r.r_step > 0 && r.r_step <> site.Lef.s_w then
                   fail "die %d: ROW %s STEP %d does not match site %s width %d"
                     i r.r_name r.r_step site.Lef.s_name site.Lef.s_w)
               d.rows;
             let max_util = Option.value d.max_util ~default:1.0 in
             if not (max_util > 0. && max_util <= 1.0) then
               fail "die %d: max_util %g outside (0, 1]" i max_util;
             Die.make ~index:i ~outline:d.diearea ~row_height:site.Lef.s_h
               ~site_width:site.Lef.s_w ~max_util ())
      |> Array.of_list
    in
    let gp_of = Hashtbl.create 256 in
    List.iter
      (fun (_, d) ->
        List.iter
          (fun (name, g) ->
            if Hashtbl.mem gp_of name then
              fail "duplicate tdflow.gp for component %S" name;
            Hashtbl.replace gp_of name g)
          d.gp)
      indexed;
    (* Components: PLACED/UNPLACED become cells (ids in die-then-file
       order), FIXED become blockages; the PLACEMENT blockage rects of
       every file follow the fixed components. *)
    let cells = ref [] and blocks = ref [] in
    let name_to_id = Hashtbl.create 256 in
    let next_cell = ref 0 in
    List.iter
      (fun (i, d) ->
        let die = dies.(i) in
        let o = die.Die.outline in
        List.iter
          (fun c ->
            if Hashtbl.mem name_to_id c.c_name then
              fail "component %S appears more than once across the DEF files"
                c.c_name;
            let m =
              match Lef.find_macro lef c.c_macro with
              | Some m -> m
              | None ->
                fail "component %s: macro %s is not in the LEF" c.c_name
                  c.c_macro
            in
            match c.c_status with
            | Fixed ->
              (* pre-placed macros are blockages for the legalizer (§II-B) *)
              Hashtbl.replace name_to_id c.c_name (-1);
              blocks :=
                ( i,
                  c.c_name,
                  Rect.make ~x:c.c_x ~y:c.c_y ~w:m.Lef.m_w ~h:m.Lef.m_h )
                :: !blocks
            | Placed | Unplaced ->
              if m.Lef.m_class = "BLOCK" then
                fail "component %s: BLOCK macro %s must be FIXED" c.c_name
                  c.c_macro;
              let widths =
                match m.Lef.m_widths with
                | Some ws ->
                  if Array.length ws <> n then
                    fail "macro %s: tdflow.widths has %d entries for %d dies"
                      c.c_macro (Array.length ws) n;
                  Array.copy ws
                | None ->
                  if m.Lef.m_h <> die.Die.row_height then
                    fail
                      "component %s: macro %s height %d does not match die \
                       %d row height %d"
                      c.c_name c.c_macro m.Lef.m_h i die.Die.row_height;
                  Array.make n m.Lef.m_w
              in
              let gp = Hashtbl.find_opt gp_of c.c_name in
              let cx, cy =
                match (c.c_status, gp) with
                | Placed, _ -> (c.c_x, c.c_y)
                | Unplaced, Some (gx, gy, _, _) -> (gx, gy)
                | Unplaced, None ->
                  (o.Rect.x + (o.Rect.w / 2), o.Rect.y + (o.Rect.h / 2))
                | Fixed, _ -> assert false
              in
              let gp_x, gp_y, gp_z, weight =
                match gp with
                | Some g -> g
                | None -> (cx, cy, float_of_int i, 1.0)
              in
              let id = !next_cell in
              incr next_cell;
              Hashtbl.replace name_to_id c.c_name id;
              cells :=
                (id, c.c_name, widths, gp_x, gp_y, gp_z, weight, cx, cy, i)
                :: !cells)
          d.components)
      indexed;
    Hashtbl.iter
      (fun name _ ->
        match Hashtbl.find_opt name_to_id name with
        | Some id when id >= 0 -> ()
        | Some _ -> fail "tdflow.gp names fixed component %S" name
        | None -> fail "tdflow.gp names unknown component %S" name)
      gp_of;
    List.iter
      (fun (i, d) ->
        List.iteri
          (fun j r -> blocks := (i, Printf.sprintf "blk_d%d_%d" i j, r) :: !blocks)
          d.blockages)
      indexed;
    let macros =
      List.rev !blocks
      |> List.mapi (fun id (die, name, rect) ->
             Blockage.make ~id ~name ~die ~rect ())
      |> Array.of_list
    in
    (* Nets merge across files by name (first appearance fixes the id);
       connections to external pins or fixed macros carry no movable
       cell and are dropped, as are nets left with no pin at all. *)
    let net_tbl = Hashtbl.create 64 and net_order = ref [] in
    List.iter
      (fun (_, d) ->
        List.iter
          (fun nt ->
            let resolved =
              List.filter_map
                (function
                  | Comp (comp, _) -> (
                    match Hashtbl.find_opt name_to_id comp with
                    | Some id when id >= 0 -> Some id
                    | Some _ -> None
                    | None ->
                      fail "net %s references unknown component %s" nt.n_name
                        comp)
                  | External _ -> None)
                nt.n_pins
            in
            match Hashtbl.find_opt net_tbl nt.n_name with
            | Some prev -> Hashtbl.replace net_tbl nt.n_name (prev @ resolved)
            | None ->
              net_order := nt.n_name :: !net_order;
              Hashtbl.replace net_tbl nt.n_name resolved)
          d.nets)
      indexed;
    let nets =
      List.rev !net_order
      |> List.filter_map (fun name ->
             match Hashtbl.find net_tbl name with
             | [] -> None
             | pins -> Some (name, Array.of_list pins))
      |> List.mapi (fun id (name, pins) -> Net.make ~id ~name ~pins ())
      |> Array.of_list
    in
    let cells_l = List.rev !cells in
    let cells_a =
      cells_l
      |> List.map (fun (id, name, widths, gx, gy, gz, wt, _, _, _) ->
             Cell.make ~id ~name ~weight:wt ~widths ~gp_x:gx ~gp_y:gy ~gp_z:gz
               ())
      |> Array.of_list
    in
    let design =
      Design.make ~name:d0.design ~dies ~cells:cells_a ~macros ~nets ()
    in
    let nc = Array.length cells_a in
    let px = Array.make nc 0 and py = Array.make nc 0 and pd = Array.make nc 0 in
    List.iter
      (fun (id, _, _, _, _, _, _, cx, cy, die) ->
        px.(id) <- cx;
        py.(id) <- cy;
        pd.(id) <- die)
      cells_l;
    let placement = { Placement.x = px; y = py; die = pd } in
    match Design.validate design with
    | Ok () -> Ok (design, placement)
    | Error (e :: _) -> Error e
    | Error [] -> Ok (design, placement)
  with
  | Parse msg -> Error msg
  | Assert_failure _ -> Error "invalid field value (assertion)"

(* ---- design -> DEF/LEF --------------------------------------------- *)

let lib_name widths =
  "C" ^ String.concat "_" (List.map string_of_int (Array.to_list widths))

let block_name w h = Printf.sprintf "B%d_%d" w h

let site_name i = Printf.sprintf "tdf_site_d%d" i

let of_design ?placement (d : Design.t) =
  let n = Design.n_dies d in
  if n = 0 then invalid_arg "Def.of_design: design has no dies";
  let pl =
    match placement with Some p -> p | None -> Placement.initial d
  in
  if Placement.n_cells pl <> Design.n_cells d then
    invalid_arg "Def.of_design: placement size does not match the design";
  (* DEF components are name-keyed; duplicates cannot round-trip.  The
     duplicate-cell-name preflight (Tdf_robust.Validate) flags and
     repairs this before export. *)
  let seen = Hashtbl.create (Design.n_cells d) in
  Array.iter
    (fun (c : Cell.t) ->
      if Hashtbl.mem seen c.Cell.name then
        invalid_arg
          (Printf.sprintf "Def.of_design: duplicate cell name %S" c.Cell.name);
      Hashtbl.replace seen c.Cell.name ())
    d.Design.cells;
  let sites =
    List.init n (fun i ->
        let die = Design.die d i in
        {
          Lef.s_name = site_name i;
          s_class = "CORE";
          s_w = die.Die.site_width;
          s_h = die.Die.row_height;
        })
  in
  let vec_tbl = Hashtbl.create 64 in
  Array.iter
    (fun (c : Cell.t) -> Hashtbl.replace vec_tbl (Array.to_list c.Cell.widths) ())
    d.Design.cells;
  let vecs =
    Hashtbl.fold (fun k () acc -> k :: acc) vec_tbl [] |> List.sort compare
  in
  let h0 = (Design.die d 0).Die.row_height in
  let core_macros =
    List.map
      (fun ws ->
        let arr = Array.of_list ws in
        {
          Lef.m_name = lib_name arr;
          m_class = "CORE";
          m_w = arr.(0);
          m_h = h0;
          m_widths = Some arr;
        })
      vecs
  in
  let dim_tbl = Hashtbl.create 16 in
  Array.iter
    (fun (m : Blockage.t) ->
      Hashtbl.replace dim_tbl (m.Blockage.rect.Rect.w, m.Blockage.rect.Rect.h) ())
    d.Design.macros;
  let dims =
    Hashtbl.fold (fun k () acc -> k :: acc) dim_tbl [] |> List.sort compare
  in
  let block_macros =
    List.map
      (fun (w, h) ->
        {
          Lef.m_name = block_name w h;
          m_class = "BLOCK";
          m_w = w;
          m_h = h;
          m_widths = None;
        })
      dims
  in
  let lef = { Lef.sites; macros = core_macros @ block_macros } in
  let defs =
    List.init n (fun i ->
        let die = Design.die d i in
        let o = die.Die.outline in
        let rows =
          List.init (Die.num_rows die) (fun r ->
              {
                r_name = Printf.sprintf "row_d%d_%d" i r;
                r_site = site_name i;
                r_x = o.Rect.x;
                r_y = Die.row_y die r;
                r_orient = "N";
                r_count = o.Rect.w / die.Die.site_width;
                r_step = die.Die.site_width;
              })
        in
        let comps = ref [] and gp = ref [] in
        Array.iter
          (fun (c : Cell.t) ->
            if pl.Placement.die.(c.Cell.id) = i then begin
              comps :=
                {
                  c_name = c.Cell.name;
                  c_macro = lib_name c.Cell.widths;
                  c_status = Placed;
                  c_x = pl.Placement.x.(c.Cell.id);
                  c_y = pl.Placement.y.(c.Cell.id);
                  c_orient = "N";
                }
                :: !comps;
              gp :=
                (c.Cell.name, (c.Cell.gp_x, c.Cell.gp_y, c.Cell.gp_z, c.Cell.weight))
                :: !gp
            end)
          d.Design.cells;
        Array.iter
          (fun (m : Blockage.t) ->
            if m.Blockage.die = i then
              comps :=
                {
                  c_name = m.Blockage.name;
                  c_macro =
                    block_name m.Blockage.rect.Rect.w m.Blockage.rect.Rect.h;
                  c_status = Fixed;
                  c_x = m.Blockage.rect.Rect.x;
                  c_y = m.Blockage.rect.Rect.y;
                  c_orient = "N";
                }
                :: !comps)
          d.Design.macros;
        let nets =
          if i = 0 then
            Array.to_list d.Design.nets
            |> List.map (fun (nt : Net.t) ->
                   {
                     n_name = nt.Net.name;
                     n_pins =
                       Array.to_list nt.Net.pins
                       |> List.mapi (fun k p ->
                              Comp
                                ( (Design.cell d p).Cell.name,
                                  Printf.sprintf "P%d" k ));
                   })
          else []
        in
        {
          design = d.Design.name;
          units = 1000;
          diearea = o;
          rows;
          components = List.rev !comps;
          pins = [];
          nets;
          blockages = [];
          die = Some i;
          n_dies = Some n;
          max_util = Some die.Die.max_util;
          gp = List.rev !gp;
        })
  in
  (lef, defs)
