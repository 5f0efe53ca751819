(* DEF-lite reader/writer and the design-model converters; grammar and
   conventions in def.mli.  The reader is a recursive descent over a Lex
   cursor; the writer emits one canonical byte-stable rendering, which is
   what makes `export ∘ import ∘ export` an identity. *)

open Lex
module Decimal = Tdf_util.Decimal
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
  let xt = next cur "point" in
  let yt = next cur "point" in
  expect cur ")";
  (* One [let] per value: tuple components are evaluated right to left,
     and a diagnostic must name the first bad number on the line. *)
  let x = int cur xt in
  let y = int cur yt in
  (x, y)

(* Nearly every orientation is "N": share the literal. *)
let orient cur o = if equal cur o "N" then "N" else word cur o

(* PLACED/FIXED ( x y ) <orient>, or UNPLACED. *)
let parse_status cur t =
  if equal cur t "PLACED" || equal cur t "FIXED" then begin
    let x, y = parse_point cur in
    let o = next cur "orientation" in
    ((if equal cur t "FIXED" then Fixed else Placed), x, y, orient cur o)
  end
  else if equal cur t "UNPLACED" then (Unplaced, 0, 0, "N")
  else
    fail "line %d: expected PLACED, FIXED or UNPLACED, got %S" (line_of cur t)
      (word cur t)

let check_count ~line what declared found =
  if declared <> found then
    fail "line %d: %s declared %d entries, found %d" line what declared found

let parse_components cur ~line n =
  let comps = ref [] in
  let rec loop () =
    let t = next cur "COMPONENTS" in
    if equal cur t "END" then expect cur "COMPONENTS"
    else if equal cur t "-" then begin
      let name = word cur (next cur "component name") in
      let mac = word cur (next cur "component macro") in
      let t2 = next cur "component" in
      let status, x, y, orient =
        if equal cur t2 ";" then (Unplaced, 0, 0, "N")
        else if equal cur t2 "+" then begin
          let r = parse_status cur (next cur "placement status") in
          expect cur ";";
          r
        end
        else
          fail "line %d: expected + or ; in component %s, got %S"
            (line_of cur t2) name (word cur t2)
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
    end
    else
      fail "line %d: expected - or END COMPONENTS, got %S" (line_of cur t)
        (word cur t)
  in
  loop ();
  let comps = List.rev !comps in
  check_count ~line "COMPONENTS" n (List.length comps);
  comps

let parse_pins cur ~line n =
  let pins = ref [] in
  let rec entry p =
    let t = next cur "PINS" in
    if equal cur t ";" then p
    else if equal cur t "+" then begin
      let k = next cur "pin option" in
      if equal cur k "NET" then entry { p with p_net = word cur (next cur "NET") }
      else if equal cur k "DIRECTION" then
        entry { p with p_dir = word cur (next cur "DIRECTION") }
      else if equal cur k "USE" then entry { p with p_use = word cur (next cur "USE") }
      else if equal cur k "PLACED" || equal cur k "FIXED" then begin
        let x, y = parse_point cur in
        let o = next cur "orientation" in
        entry
          {
            p with
            p_status = (if equal cur k "FIXED" then Fixed else Placed);
            p_x = x;
            p_y = y;
            p_orient = word cur o;
          }
      end
      else if equal cur k "LAYER" then begin
        (* + LAYER <name> ( x y ) ( x y ): not modeled; skip the group. *)
        let rec skip () =
          if at_end cur then fail "unexpected end of file (in PINS)"
          else if not (is cur "+" || is cur ";") then begin
            ignore (next cur "LAYER");
            skip ()
          end
        in
        skip ();
        entry p
      end
      else fail "line %d: unrecognized pin option %S" (line_of cur k) (word cur k)
    end
    else
      fail "line %d: expected + or ; in pin %s, got %S" (line_of cur t) p.p_name
        (word cur t)
  in
  let rec loop () =
    let t = next cur "PINS" in
    if equal cur t "END" then expect cur "PINS"
    else if equal cur t "-" then begin
      let name = word cur (next cur "pin name") in
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
    end
    else fail "line %d: expected - or END PINS, got %S" (line_of cur t) (word cur t)
  in
  loop ();
  let pins = List.rev !pins in
  check_count ~line "PINS" n (List.length pins);
  pins

let parse_nets cur ~line n =
  let nets = ref [] in
  let rec pins_of acc =
    let t = next cur "NETS" in
    if equal cur t ";" then List.rev acc
    else if equal cur t "(" then begin
      let a = next cur "net pin" in
      let r =
        if equal cur a "PIN" then External (word cur (next cur "net pin"))
        else Comp (word cur a, word cur (next cur "net pin"))
      in
      expect cur ")";
      pins_of (r :: acc)
    end
    else fail "line %d: expected ( or ; in net, got %S" (line_of cur t) (word cur t)
  in
  let rec loop () =
    let t = next cur "NETS" in
    if equal cur t "END" then expect cur "NETS"
    else if equal cur t "-" then begin
      let name = word cur (next cur "net name") in
      nets := { n_name = name; n_pins = pins_of [] } :: !nets;
      loop ()
    end
    else fail "line %d: expected - or END NETS, got %S" (line_of cur t) (word cur t)
  in
  loop ();
  let nets = List.rev !nets in
  check_count ~line "NETS" n (List.length nets);
  nets

let parse_blockages cur ~line n =
  let rects = ref [] and entries = ref 0 in
  let rec rects_of () =
    let t = next cur "BLOCKAGES" in
    if equal cur t ";" then ()
    else if equal cur t "RECT" then begin
      let x1, y1 = parse_point cur in
      let x2, y2 = parse_point cur in
      if x2 <= x1 || y2 <= y1 then
        fail "line %d: blockage RECT is not a positive box" (line_of cur t);
      rects := Rect.make ~x:x1 ~y:y1 ~w:(x2 - x1) ~h:(y2 - y1) :: !rects;
      rects_of ()
    end
    else
      fail "line %d: expected RECT or ; in blockage, got %S" (line_of cur t)
        (word cur t)
  in
  let rec loop () =
    let t = next cur "BLOCKAGES" in
    if equal cur t "END" then expect cur "BLOCKAGES"
    else if equal cur t "-" then begin
      expect cur "PLACEMENT";
      incr entries;
      rects_of ();
      loop ()
    end
    else
      fail "line %d: expected - or END BLOCKAGES, got %S" (line_of cur t)
        (word cur t)
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
    let line = line_of cur t in
    let nt = next cur what in
    let n = int cur nt in
    expect cur ";";
    if !stored <> None then fail "line %d: duplicate %s section" line what;
    stored := Some (parse_fn cur ~line n)
  in
  let rec loop () =
    let t = next cur "design" in
    if equal cur t "VERSION" || equal cur t "DIVIDERCHAR" || equal cur t "BUSBITCHARS"
    then begin
      skip_statement cur;
      loop ()
    end
    else if equal cur t "DESIGN" then begin
      let n = next cur "DESIGN" in
      expect cur ";";
      if !design <> None then fail "line %d: duplicate DESIGN" (line_of cur t);
      design := Some (word cur n);
      loop ()
    end
    else if equal cur t "UNITS" then begin
      expect cur "DISTANCE";
      expect cur "MICRONS";
      let u = next cur "UNITS" in
      expect cur ";";
      units := Some (int cur u);
      loop ()
    end
    else if equal cur t "DIEAREA" then begin
      let x1, y1 = parse_point cur in
      let x2, y2 = parse_point cur in
      expect cur ";";
      if x2 <= x1 || y2 <= y1 then
        fail "line %d: DIEAREA is not a positive two-point box" (line_of cur t);
      diearea := Some (Rect.make ~x:x1 ~y:y1 ~w:(x2 - x1) ~h:(y2 - y1));
      loop ()
    end
    else if equal cur t "ROW" then begin
      let name = word cur (next cur "ROW name") in
      let site = word cur (next cur "ROW site") in
      let xt = next cur "ROW" in
      let yt = next cur "ROW" in
      let orient = word cur (next cur "ROW orientation") in
      expect cur "DO";
      let ct = next cur "ROW count" in
      expect cur "BY";
      let bt = next cur "ROW" in
      let x = int cur xt in
      let y = int cur yt in
      let count = int cur ct in
      if int cur bt <> 1 then
        fail "line %d: ROW %s: only DO <n> BY 1 rows are in the subset"
          (line_of cur t) name;
      let step =
        if is cur "STEP" then begin
          ignore (next cur "STEP");
          let sx = next cur "STEP" in
          let _sy = next cur "STEP" in
          int cur sx
        end
        else 0
      in
      expect cur ";";
      rows :=
        {
          r_name = name;
          r_site = site;
          r_x = x;
          r_y = y;
          r_orient = orient;
          r_count = count;
          r_step = step;
        }
        :: !rows;
      loop ()
    end
    else if equal cur t "COMPONENTS" then begin
      section "COMPONENTS" comps parse_components t;
      loop ()
    end
    else if equal cur t "PINS" then begin
      section "PINS" pins parse_pins t;
      loop ()
    end
    else if equal cur t "NETS" then begin
      section "NETS" nets parse_nets t;
      loop ()
    end
    else if equal cur t "BLOCKAGES" then begin
      section "BLOCKAGES" blocks parse_blockages t;
      loop ()
    end
    else if equal cur t "END" then begin
      expect cur "DESIGN";
      if not (at_end cur) then
        fail "line %d: trailing tokens after END DESIGN" (line cur)
    end
    else
      fail
        "line %d: unrecognized design statement %S (outside the DEF-lite \
         subset; see lib/io/def_lef/def.mli)"
        (line_of cur t) (word cur t)
  in
  loop ();
  (* Extension comments are checked after the body and its trailing-token
     check, so a body error is reported ahead of an extension error.  Each
     is decoded in place from its first seven words: no form has more
     than six. *)
  let die = ref None
  and n_dies = ref None
  and max_util = ref None
  and gp = ref [] in
  let ws = Array.make 7 0 in
  List.iter
    (fun e ->
      let line = ext_line e and c = ext_cursor cur e in
      let n = ref 0 in
      while !n < 7 && not (at_end c) do
        ws.(!n) <- next c "extension";
        incr n
      done;
      let n = !n and kw = ws.(0) in
      if equal c kw "tdflow.die" then begin
        if not (n = 4 && equal c ws.(2) "of") then
          fail "line %d: tdflow.die wants '# tdflow.die <i> of <n>'" line;
        die := Some (int c ws.(1));
        n_dies := Some (int c ws.(3))
      end
      else if equal c kw "tdflow.max_util" then begin
        if n <> 2 then fail "line %d: tdflow.max_util wants one number" line;
        max_util := Some (float c ws.(1))
      end
      else if equal c kw "tdflow.gp" then begin
        if n <> 5 && n <> 6 then
          fail "line %d: tdflow.gp wants '<comp> <x> <y> <z> [<weight>]'" line;
        let x = int c ws.(2) in
        let y = int c ws.(3) in
        let z = float c ws.(4) in
        let w = if n = 6 then float c ws.(5) else 1.0 in
        gp := (word c ws.(1), (x, y, z, w)) :: !gp
      end
      else fail "line %d: unknown extension comment %S" line (word c kw))
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
  let int v = Buffer.add_char b ' '; Decimal.add_int b v in
  let flt v = Buffer.add_char b ' '; Decimal.add_fixed6 b v in
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
  Option.iter
    (fun u ->
      str "# tdflow.max_util";
      flt u;
      nl ())
    d.max_util;
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
      flt z;
      if w <> 1.0 then flt w;
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

(* Name -> entry, the first of equal names winning as [List.find_opt]
   would. *)
let table_by name_of entries =
  let t = Hashtbl.create (2 * List.length entries) in
  List.iter (fun e -> if not (Hashtbl.mem t (name_of e)) then Hashtbl.add t (name_of e) e) entries;
  t

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

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
    let site_of = table_by (fun s -> s.Lef.s_name) lef.Lef.sites in
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
                 (match Hashtbl.find_opt site_of r0.r_site with
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
    (* The table's iteration order picks which bad tdflow.gp name is
       reported, so it keeps its original initial size. *)
    let gp_of = Hashtbl.create 256 in
    List.iter
      (fun (_, d) ->
        List.iter
          (fun (name, g) ->
            let size = Hashtbl.length gp_of in
            Hashtbl.replace gp_of name g;
            if Hashtbl.length gp_of = size then
              fail "duplicate tdflow.gp for component %S" name)
          d.gp)
      indexed;
    (* Components: PLACED/UNPLACED become cells (ids in die-then-file
       order), FIXED become blockages; the PLACEMENT blockage rects of
       every file follow the fixed components.  Cell fields and the
       placement go straight into arrays sized from the sections. *)
    let macro_of = table_by (fun m -> m.Lef.m_name) lef.Lef.macros in
    let name_to_id =
      Hashtbl.create (2 * sum (fun (_, d) -> List.length d.components) indexed)
    in
    let nc =
      sum
        (fun (_, d) ->
          sum (fun c -> if c.c_status = Fixed then 0 else 1) d.components)
        indexed
    in
    let names = Array.make nc "" and widths = Array.make nc [||] in
    let gx = Array.make nc 0 and gy = Array.make nc 0 in
    let gz = Array.make nc 0. and wt = Array.make nc 1.0 in
    let px = Array.make nc 0 and py = Array.make nc 0 and pd = Array.make nc 0 in
    let blocks = ref [] and next_cell = ref 0 and gp_found = ref 0 in
    List.iter
      (fun (i, d) ->
        let die = dies.(i) in
        let o = die.Die.outline in
        List.iter
          (fun c ->
            (* the id this component gets if it converts: an error ends
               the import and discards the table *)
            let size = Hashtbl.length name_to_id in
            Hashtbl.replace name_to_id c.c_name
              (if c.c_status = Fixed then -1 else !next_cell);
            if Hashtbl.length name_to_id = size then
              fail "component %S appears more than once across the DEF files"
                c.c_name;
            let m =
              match Hashtbl.find_opt macro_of c.c_macro with
              | Some m -> m
              | None ->
                fail "component %s: macro %s is not in the LEF" c.c_name
                  c.c_macro
            in
            match c.c_status with
            | Fixed ->
              (* pre-placed macros are blockages for the legalizer (§II-B) *)
              blocks :=
                ( i,
                  c.c_name,
                  Rect.make ~x:c.c_x ~y:c.c_y ~w:m.Lef.m_w ~h:m.Lef.m_h )
                :: !blocks
            | Placed | Unplaced ->
              if m.Lef.m_class = "BLOCK" then
                fail "component %s: BLOCK macro %s must be FIXED" c.c_name
                  c.c_macro;
              let ws =
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
              let id = !next_cell in
              incr next_cell;
              (match gp with
              | Some (x, y, z, w) ->
                incr gp_found;
                gx.(id) <- x;
                gy.(id) <- y;
                gz.(id) <- z;
                wt.(id) <- w
              | None ->
                gx.(id) <- cx;
                gy.(id) <- cy;
                gz.(id) <- float_of_int i);
              names.(id) <- c.c_name;
              widths.(id) <- ws;
              px.(id) <- cx;
              py.(id) <- cy;
              pd.(id) <- i)
          d.components)
      indexed;
    (* Every tdflow.gp name was a cell unless fewer were found than given;
       only then is the table walked for the name to report. *)
    if !gp_found <> Hashtbl.length gp_of then
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
       cell and are dropped, as are nets left with no pin at all.  Each
       net's cells are resolved into a scratch array and copied out. *)
    let n_nets = sum (fun (_, d) -> List.length d.nets) indexed in
    let slot_of = Hashtbl.create (2 * n_nets) in
    let slot_name = Array.make n_nets "" and slot_pins = Array.make n_nets [||] in
    let n_slots = ref 0 and scratch = ref (Array.make 64 0) in
    List.iter
      (fun (_, d) ->
        List.iter
          (fun nt ->
            let k = ref 0 in
            List.iter
              (function
                | Comp (comp, _) -> (
                  match Hashtbl.find_opt name_to_id comp with
                  | Some id when id >= 0 ->
                    if !k = Array.length !scratch then
                      scratch := Array.append !scratch !scratch;
                    !scratch.(!k) <- id;
                    incr k
                  | Some _ -> ()
                  | None ->
                    fail "net %s references unknown component %s" nt.n_name
                      comp)
                | External _ -> ())
              nt.n_pins;
            let pins = Array.sub !scratch 0 !k in
            match Hashtbl.find_opt slot_of nt.n_name with
            | Some s -> slot_pins.(s) <- Array.append slot_pins.(s) pins
            | None ->
              Hashtbl.add slot_of nt.n_name !n_slots;
              slot_name.(!n_slots) <- nt.n_name;
              slot_pins.(!n_slots) <- pins;
              incr n_slots)
          d.nets)
      indexed;
    let n_kept = ref 0 in
    for s = 0 to !n_slots - 1 do
      if Array.length slot_pins.(s) > 0 then incr n_kept
    done;
    let s = ref 0 in
    let nets =
      Array.init !n_kept (fun id ->
          while Array.length slot_pins.(!s) = 0 do
            incr s
          done;
          let net = Net.make ~id ~name:slot_name.(!s) ~pins:slot_pins.(!s) () in
          incr s;
          net)
    in
    let cells =
      Array.init nc (fun id ->
          Cell.make ~id ~name:names.(id) ~weight:wt.(id) ~widths:widths.(id)
            ~gp_x:gx.(id) ~gp_y:gy.(id) ~gp_z:gz.(id) ())
    in
    let design = Design.make ~name:d0.design ~dies ~cells ~macros ~nets () in
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
  (* One library name per distinct width vector, shared by its cells. *)
  let lib_of = Hashtbl.create 64 in
  Array.iter
    (fun (c : Cell.t) ->
      if not (Hashtbl.mem lib_of c.Cell.widths) then
        Hashtbl.add lib_of c.Cell.widths (lib_name c.Cell.widths))
    d.Design.cells;
  let vecs =
    Hashtbl.fold (fun k _ acc -> Array.to_list k :: acc) lib_of []
    |> List.sort compare
  in
  let h0 = (Design.die d 0).Die.row_height in
  let core_macros =
    List.map
      (fun ws ->
        let arr = Array.of_list ws in
        {
          Lef.m_name = Hashtbl.find lib_of arr;
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
  (* One "P<k>" name per pin index, shared by every net. *)
  let degree =
    Array.fold_left
      (fun a (nt : Net.t) -> max a (Array.length nt.Net.pins))
      0 d.Design.nets
  in
  let pin_name = Array.init degree (fun k -> "P" ^ string_of_int k) in
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
                  c_macro = Hashtbl.find lib_of c.Cell.widths;
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
                              Comp ((Design.cell d p).Cell.name, pin_name.(k)));
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
