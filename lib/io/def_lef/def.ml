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
  names : string array;
  comp_name : int array;
  comp_macro : int array;
  comp_status : status array;
  comp_x : int array;
  comp_y : int array;
  comp_orient : int array;
  pins : pin list;
  net_name : int array;
  net_start : int array;
  net_comp : int array;
  net_pin : int array;
  blockages : Rect.t list;
  die : int option;
  n_dies : int option;
  max_util : float option;
  gp_comp : int array;
  gp_x : int array;
  gp_y : int array;
  gp_z : float array;
  gp_w : float array;
}

(* ---- reader -------------------------------------------------------- *)

(* A column a section fills: an array that doubles when full and is cut
   to its length at the end.  It starts at the section's declared count,
   which a well-formed file states exactly; a bogus count reserves at
   most [max_reserve] entries. *)
type 'a column = { mutable data : 'a array; mutable len : int }

let max_reserve = 1 lsl 16

let column n dummy = { data = Array.make (max 1 (min n max_reserve)) dummy; len = 0 }

let grow c v =
  let data = Array.make (2 * c.len) v in
  Array.blit c.data 0 data 0 c.len;
  c.data <- data

let push c v =
  if c.len = Array.length c.data then grow c v;
  Array.unsafe_set c.data c.len v;
  c.len <- c.len + 1

let contents c = if c.len = Array.length c.data then c.data else Array.sub c.data 0 c.len

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

let check_count ~line what declared found =
  if declared <> found then
    fail "line %d: %s declared %d entries, found %d" line what declared found

(* Each component is one entry of six columns; its name, macro and
   orientation are numbers in the file's name table. *)
let parse_components cur names ~line n =
  let name = column n 0 and macro = column n 0 and status = column n Placed in
  let xs = column n 0 and ys = column n 0 and orient = column n 0 in
  let unplaced () =
    push status Unplaced;
    push xs 0;
    push ys 0;
    push orient (-1)
  in
  let rec loop () =
    let t = next cur "COMPONENTS" in
    if equal cur t "END" then expect cur "COMPONENTS"
    else if equal cur t "-" then begin
      let nt = next cur "component name" in
      push name (intern cur names nt);
      push macro (intern cur names (next cur "component macro"));
      let t2 = next cur "component" in
      if equal cur t2 ";" then unplaced ()
      else if equal cur t2 "+" then begin
        let st = next cur "placement status" in
        if equal cur st "PLACED" || equal cur st "FIXED" then begin
          expect cur "(";
          let xt = next cur "point" in
          let yt = next cur "point" in
          expect cur ")";
          push xs (int cur xt);
          push ys (int cur yt);
          push orient (intern cur names (next cur "orientation"));
          push status (if equal cur st "FIXED" then Fixed else Placed)
        end
        else if equal cur st "UNPLACED" then unplaced ()
        else
          fail "line %d: expected PLACED, FIXED or UNPLACED, got %S" (line_of cur st)
            (word cur st);
        expect cur ";"
      end
      else
        fail "line %d: expected + or ; in component %s, got %S" (line_of cur t2)
          (word cur nt) (word cur t2);
      loop ()
    end
    else
      fail "line %d: expected - or END COMPONENTS, got %S" (line_of cur t)
        (word cur t)
  in
  loop ();
  check_count ~line "COMPONENTS" n name.len;
  (contents name, contents macro, contents status, contents xs, contents ys, contents orient)

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

(* Nets in compressed rows: net [k]'s connections are entries
   [start.(k)] to [start.(k + 1) - 1] of the component and pin columns,
   the component [-1] for an external pin. *)
let parse_nets cur names ~line n =
  let name = column n 0 and start = column (n + 1) 0 in
  let comp = column (3 * n) 0 and pin = column (3 * n) 0 in
  push start 0;
  let rec pins_of () =
    let t = next cur "NETS" in
    if equal cur t ";" then push start comp.len
    else if equal cur t "(" then begin
      let a = next cur "net pin" in
      push comp (if equal cur a "PIN" then -1 else intern cur names a);
      push pin (intern cur names (next cur "net pin"));
      expect cur ")";
      pins_of ()
    end
    else fail "line %d: expected ( or ; in net, got %S" (line_of cur t) (word cur t)
  in
  let rec loop () =
    let t = next cur "NETS" in
    if equal cur t "END" then expect cur "NETS"
    else if equal cur t "-" then begin
      push name (intern cur names (next cur "net name"));
      pins_of ();
      loop ()
    end
    else fail "line %d: expected - or END NETS, got %S" (line_of cur t) (word cur t)
  in
  loop ();
  check_count ~line "NETS" n name.len;
  (contents name, contents start, contents comp, contents pin)

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

(* A canonical export holds about one distinct name per 48 bytes. *)
let parse text =
  let cur = cursor text in
  let names = Lex.names (String.length text / 48) in
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
      section "COMPONENTS" comps (fun cur -> parse_components cur names) t;
      loop ()
    end
    else if equal cur t "PINS" then begin
      section "PINS" pins parse_pins t;
      loop ()
    end
    else if equal cur t "NETS" then begin
      section "NETS" nets (fun cur -> parse_nets cur names) t;
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
  let n = Array.length (match !comps with Some (names, _, _, _, _, _) -> names | None -> [||]) in
  let gp_comp = column n 0 and gp_x = column n 0 and gp_y = column n 0 in
  let gp_z = column n 0. and gp_w = column n 0. in
  let die = ref None
  and n_dies = ref None
  and max_util = ref None in
  let ws = Array.make 7 0 in
  extensions cur (fun line c ->
      let n = ref 0 in
      while !n < 7 && not (at_end c) do
        ws.(!n) <- next c "extension";
        incr n
      done;
      let n = !n and kw = ws.(0) in
      if equal c kw "tdflow.gp" then begin
        if n <> 5 && n <> 6 then
          fail "line %d: tdflow.gp wants '<comp> <x> <y> <z> [<weight>]'" line;
        push gp_x (int c ws.(2));
        push gp_y (int c ws.(3));
        push gp_z (float c ws.(4));
        push gp_w (if n = 6 then float c ws.(5) else 1.0);
        push gp_comp (intern c names ws.(1))
      end
      else if equal c kw "tdflow.die" then begin
        if not (n = 4 && equal c ws.(2) "of") then
          fail "line %d: tdflow.die wants '# tdflow.die <i> of <n>'" line;
        die := Some (int c ws.(1));
        n_dies := Some (int c ws.(3))
      end
      else if equal c kw "tdflow.max_util" then begin
        if n <> 2 then fail "line %d: tdflow.max_util wants one number" line;
        max_util := Some (float c ws.(1))
      end
      else fail "line %d: unknown extension comment %S" line (word c kw));
  let comp_name, comp_macro, comp_status, comp_x, comp_y, comp_orient =
    match !comps with
    | Some c -> c
    | None -> ([||], [||], [||], [||], [||], [||])
  in
  let net_name, net_start, net_comp, net_pin =
    match !nets with Some n -> n | None -> ([||], [| 0 |], [||], [||])
  in
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
    names = names_array names;
    comp_name;
    comp_macro;
    comp_status;
    comp_x;
    comp_y;
    comp_orient;
    pins = Option.value !pins ~default:[];
    net_name;
    net_start;
    net_comp;
    net_pin;
    blockages = Option.value !blocks ~default:[];
    die = !die;
    n_dies = !n_dies;
    max_util = !max_util;
    gp_comp = contents gp_comp;
    gp_x = contents gp_x;
    gp_y = contents gp_y;
    gp_z = contents gp_z;
    gp_w = contents gp_w;
  }

let read text = try Ok (parse text) with Parse msg -> Error msg

(* ---- writer -------------------------------------------------------- *)

let render (d : t) =
  let n_comps = Array.length d.comp_name and n_nets = Array.length d.net_name in
  let b =
    Buffer.create
      ((64 * (List.length d.rows + List.length d.pins + n_nets + 16))
      + (128 * n_comps))
  in
  let str = Buffer.add_string b and nl () = Buffer.add_char b '\n' in
  let word s = Buffer.add_char b ' '; str s in
  let name k = word d.names.(k) in
  let int v = Buffer.add_char b ' '; Decimal.add_int b v in
  let flt v = Buffer.add_char b ' '; Decimal.add_fixed6 b v in
  let point x y = str " ("; int x; int y; str " )" in
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
  int n_comps;
  str " ;\n";
  for j = 0 to n_comps - 1 do
    str "  -";
    name d.comp_name.(j);
    name d.comp_macro.(j);
    (match d.comp_status.(j) with
    | Placed -> str " + PLACED"
    | Fixed -> str " + FIXED"
    | Unplaced -> str " + UNPLACED");
    if d.comp_status.(j) <> Unplaced then begin
      point d.comp_x.(j) d.comp_y.(j);
      name d.comp_orient.(j)
    end;
    str " ;\n"
  done;
  str "END COMPONENTS\n";
  for g = 0 to Array.length d.gp_comp - 1 do
    str "# tdflow.gp";
    name d.gp_comp.(g);
    int d.gp_x.(g);
    int d.gp_y.(g);
    flt d.gp_z.(g);
    if d.gp_w.(g) <> 1.0 then flt d.gp_w.(g);
    nl ()
  done;
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
        | Placed | Fixed ->
          str (if p.p_status = Fixed then " + FIXED" else " + PLACED");
          point p.p_x p.p_y;
          word p.p_orient
        | Unplaced -> ());
        str " ;\n")
      d.pins;
    str "END PINS\n"
  end;
  if n_nets > 0 then begin
    str "NETS";
    int n_nets;
    str " ;\n";
    for k = 0 to n_nets - 1 do
      str "  -";
      name d.net_name.(k);
      for e = d.net_start.(k) to d.net_start.(k + 1) - 1 do
        if d.net_comp.(e) < 0 then str " ( PIN" else (str " ("; name d.net_comp.(e));
        name d.net_pin.(e);
        str " )"
      done;
      str " ;\n"
    done;
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

let load path = read (In_channel.with_open_text path In_channel.input_all)

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

(* What a global name slot holds as a component. *)
let no_component = -2

let fixed_component = -1

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
    let files = Array.of_list (List.map snd indexed) in
    (* One global table numbers the distinct component and tdflow.gp names
       of every file, filled in component order.  Each file's name numbers
       map to these slots once per distinct name ([local]); after that the
       components, seeds and net pins are resolved by indexing. *)
    let n_comps = Array.fold_left (fun a d -> a + Array.length d.comp_name) 0 files in
    let n_gp = Array.fold_left (fun a d -> a + Array.length d.gp_comp) 0 files in
    let slot_of = Lex.names n_comps in
    let local = Array.map (fun d -> Array.make (Array.length d.names) (-1)) files in
    let slot f k =
      let l = local.(f) in
      if l.(k) < 0 then l.(k) <- add_name slot_of files.(f).names.(k);
      l.(k)
    in
    Array.iteri (fun f d -> Array.iter (fun k -> ignore (slot f k)) d.comp_name) files;
    Array.iteri (fun f d -> Array.iter (fun k -> ignore (slot f k)) d.gp_comp) files;
    (* Seeds, keyed by slot: the file and entry of each name's tdflow.gp. *)
    let n_names = Lex.count slot_of in
    let gp_file = Array.make n_names (-1) and gp_entry = Array.make n_names 0 in
    Array.iteri
      (fun f d ->
        Array.iteri
          (fun g k ->
            let s = local.(f).(k) in
            if gp_file.(s) >= 0 then
              fail "duplicate tdflow.gp for component %S" d.names.(k);
            gp_file.(s) <- f;
            gp_entry.(s) <- g)
          d.gp_comp)
      files;
    (* Components: PLACED/UNPLACED become cells (ids in die-then-file
       order), FIXED become blockages; the PLACEMENT blockage rects of
       every file follow the fixed components.  Cell fields and the
       placement go straight into arrays sized from the sections.  A
       file's macro names are looked up in the LEF once each. *)
    let macro_of = table_by (fun m -> m.Lef.m_name) lef.Lef.macros in
    let cell_of = Array.make n_names no_component in
    let nc =
      Array.fold_left
        (fun a d -> Array.fold_left (fun a st -> if st = Fixed then a else a + 1) a d.comp_status)
        0 files
    in
    let names = Array.make nc "" and widths = Array.make nc [||] in
    let gx = Array.make nc 0 and gy = Array.make nc 0 in
    let gz = Array.make nc 0. and wt = Array.make nc 1.0 in
    let px = Array.make nc 0 and py = Array.make nc 0 and pd = Array.make nc 0 in
    let blocks = ref [] and next_cell = ref 0 and gp_found = ref 0 in
    Array.iteri
      (fun i d ->
        let die = dies.(i) in
        let o = die.Die.outline in
        (* the file's macros by name number, looked up once each *)
        let file_macro = Array.make (Array.length d.names) None in
        for j = 0 to Array.length d.comp_name - 1 do
          let name = d.names.(d.comp_name.(j)) and status = d.comp_status.(j) in
          let s = local.(i).(d.comp_name.(j)) in
          if cell_of.(s) <> no_component then
            fail "component %S appears more than once across the DEF files" name;
          cell_of.(s) <- (if status = Fixed then fixed_component else !next_cell);
          let mk = d.comp_macro.(j) in
          let m =
            match file_macro.(mk) with
            | Some m -> m
            | None ->
              let m =
                match Hashtbl.find_opt macro_of d.names.(mk) with
                | Some m -> m
                | None ->
                  fail "component %s: macro %s is not in the LEF" name d.names.(mk)
              in
              file_macro.(mk) <- Some m;
              m
          in
          match status with
          | Fixed ->
            (* pre-placed macros are blockages for the legalizer (§II-B) *)
            blocks :=
              ( i,
                name,
                Rect.make ~x:d.comp_x.(j) ~y:d.comp_y.(j) ~w:m.Lef.m_w ~h:m.Lef.m_h )
              :: !blocks
          | Placed | Unplaced ->
            if m.Lef.m_class = "BLOCK" then
              fail "component %s: BLOCK macro %s must be FIXED" name m.Lef.m_name;
            let ws =
              match m.Lef.m_widths with
              | Some ws ->
                if Array.length ws <> n then
                  fail "macro %s: tdflow.widths has %d entries for %d dies"
                    m.Lef.m_name (Array.length ws) n;
                Array.copy ws
              | None ->
                if m.Lef.m_h <> die.Die.row_height then
                  fail
                    "component %s: macro %s height %d does not match die \
                     %d row height %d"
                    name m.Lef.m_name m.Lef.m_h i die.Die.row_height;
                Array.make n m.Lef.m_w
            in
            let id = !next_cell in
            incr next_cell;
            let gf = gp_file.(s) in
            if gf >= 0 then begin
              let g = files.(gf) and e = gp_entry.(s) in
              incr gp_found;
              gx.(id) <- g.gp_x.(e);
              gy.(id) <- g.gp_y.(e);
              gz.(id) <- g.gp_z.(e);
              wt.(id) <- g.gp_w.(e)
            end;
            (match status with
            | Placed ->
              px.(id) <- d.comp_x.(j);
              py.(id) <- d.comp_y.(j)
            | _ when gf >= 0 ->
              px.(id) <- gx.(id);
              py.(id) <- gy.(id)
            | _ ->
              px.(id) <- o.Rect.x + (o.Rect.w / 2);
              py.(id) <- o.Rect.y + (o.Rect.h / 2));
            if gf < 0 then begin
              gx.(id) <- px.(id);
              gy.(id) <- py.(id);
              gz.(id) <- float_of_int i
            end;
            names.(id) <- name;
            widths.(id) <- ws;
            pd.(id) <- i
        done)
      files;
    (* Every tdflow.gp name was a cell unless fewer were found than given;
       only then are the names walked, in the order of a table of initial
       size 256 filled in die then file order, for the one to report. *)
    if !gp_found <> n_gp then begin
      let gp_of = Hashtbl.create 256 in
      Array.iter (fun d -> Array.iter (fun k -> Hashtbl.replace gp_of d.names.(k) ()) d.gp_comp) files;
      Hashtbl.iter
        (fun name () ->
          let c = cell_of.(find_name slot_of name) in
          if c = fixed_component then fail "tdflow.gp names fixed component %S" name
          else if c = no_component then fail "tdflow.gp names unknown component %S" name)
        gp_of
    end;
    Array.iteri
      (fun i d ->
        List.iteri
          (fun j r -> blocks := (i, Printf.sprintf "blk_d%d_%d" i j, r) :: !blocks)
          d.blockages)
      files;
    let macros =
      List.rev !blocks
      |> List.mapi (fun id (die, name, rect) ->
             Blockage.make ~id ~name ~die ~rect ())
      |> Array.of_list
    in
    (* Nets merge across files by name (first appearance fixes the id);
       connections to external pins or fixed macros carry no movable
       cell and are dropped, as are nets left with no pin at all.  A pin's
       component resolves through its file's slot map, and a name the
       file gives no component of its own (a net naming another die's
       cell) through the global table, once per distinct name.  Each
       net's cells are resolved into a scratch array and copied out. *)
    let n_nets = Array.fold_left (fun a d -> a + Array.length d.net_name) 0 files in
    let net_names = Lex.names n_nets in
    let slot_name = Array.make n_nets "" and slot_pins = Array.make n_nets [||] in
    let n_slots = ref 0 and scratch = ref (Array.make 64 0) in
    Array.iteri
      (fun f d ->
        let l = local.(f) in
        for k = 0 to Array.length d.net_name - 1 do
          let len = ref 0 in
          for e = d.net_start.(k) to d.net_start.(k + 1) - 1 do
            let c = d.net_comp.(e) in
            if c >= 0 then begin
              if l.(c) < 0 then l.(c) <- find_name slot_of d.names.(c);
              let id = if l.(c) < 0 then no_component else cell_of.(l.(c)) in
              if id >= 0 then begin
                if !len = Array.length !scratch then
                  scratch := Array.append !scratch !scratch;
                !scratch.(!len) <- id;
                incr len
              end
              else if id = no_component then
                fail "net %s references unknown component %s" d.names.(d.net_name.(k))
                  d.names.(c)
            end
          done;
          let pins = Array.sub !scratch 0 !len and name = d.names.(d.net_name.(k)) in
          let s = add_name net_names name in
          if s < !n_slots then slot_pins.(s) <- Array.append slot_pins.(s) pins
          else begin
            slot_name.(s) <- name;
            slot_pins.(s) <- pins;
            incr n_slots
          end
        done)
      files;
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
  let seen = Lex.names (Design.n_cells d) in
  Array.iteri
    (fun i (c : Cell.t) ->
      (* a new name is numbered i, the count of names before it *)
      if add_name seen c.Cell.name <> i then
        invalid_arg
          (Printf.sprintf "Def.of_design: duplicate cell name %S" c.Cell.name))
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
  (* One library macro per distinct width vector, shared by its cells:
     [lib.(c)] numbers cell [c]'s. *)
  let lib_of = Hashtbl.create 64 in
  let lib =
    Array.map
      (fun (c : Cell.t) ->
        match Hashtbl.find_opt lib_of c.Cell.widths with
        | Some l -> l
        | None ->
          let l = Hashtbl.length lib_of in
          Hashtbl.add lib_of c.Cell.widths l;
          l)
      d.Design.cells
  in
  let lib_names = Array.make (Hashtbl.length lib_of) "" in
  Hashtbl.iter (fun ws l -> lib_names.(l) <- lib_name ws) lib_of;
  let vecs = Hashtbl.fold (fun ws l acc -> (Array.to_list ws, l) :: acc) lib_of [] |> List.sort compare in
  let h0 = (Design.die d 0).Die.row_height in
  let core_macros =
    List.map
      (fun (ws, l) ->
        {
          Lef.m_name = lib_names.(l);
          m_class = "CORE";
          m_w = List.hd ws;
          m_h = h0;
          m_widths = Some (Array.of_list ws);
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
  let n_cells = Design.n_cells d in
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
        (* The file's name table, numbered as the names are first used;
           [local.(c)] is cell [c]'s number once it has one. *)
        let n_here = ref 0 in
        Array.iter (fun di -> if di = i then incr n_here) pl.Placement.die;
        let n_cells_here = !n_here in
        Array.iter (fun (m : Blockage.t) -> if m.Blockage.die = i then incr n_here) d.Design.macros;
        let nc = !n_here in
        (* Nets go in the die-0 file only. *)
        let nets = if i = 0 then d.Design.nets else [||] in
        let names =
          Lex.names (nc + if i = 0 then n_cells - n_cells_here + Array.length nets else 0)
        in
        let add s = add_name names s in
        let local = Array.make n_cells (-1) in
        let cell_name c =
          if local.(c) < 0 then local.(c) <- add (Design.cell d c).Cell.name;
          local.(c)
        in
        let lib_local = Array.make (Array.length lib_names) (-1) in
        let orient = ref (-1) in
        let comp_name = Array.make nc 0 and comp_macro = Array.make nc 0 in
        let comp_x = Array.make nc 0 and comp_y = Array.make nc 0 in
        let comp_status = Array.make nc Placed and comp_orient = Array.make nc 0 in
        let gp_comp = Array.make n_cells_here 0 and gp_x = Array.make n_cells_here 0 in
        let gp_y = Array.make n_cells_here 0 and gp_z = Array.make n_cells_here 0. in
        let gp_w = Array.make n_cells_here 0. in
        let j = ref 0 in
        let component k macro x y =
          comp_name.(!j) <- k;
          comp_macro.(!j) <- macro;
          comp_x.(!j) <- x;
          comp_y.(!j) <- y;
          if !orient < 0 then orient := add "N";
          comp_orient.(!j) <- !orient;
          incr j
        in
        Array.iter
          (fun (c : Cell.t) ->
            let id = c.Cell.id in
            if pl.Placement.die.(id) = i then begin
              let g = !j and k = cell_name id and l = lib.(id) in
              if lib_local.(l) < 0 then lib_local.(l) <- add lib_names.(l);
              component k lib_local.(l) pl.Placement.x.(id) pl.Placement.y.(id);
              gp_comp.(g) <- k;
              gp_x.(g) <- c.Cell.gp_x;
              gp_y.(g) <- c.Cell.gp_y;
              gp_z.(g) <- c.Cell.gp_z;
              gp_w.(g) <- c.Cell.weight
            end)
          d.Design.cells;
        Array.iter
          (fun (m : Blockage.t) ->
            if m.Blockage.die = i then begin
              let r = m.Blockage.rect in
              let k = add m.Blockage.name in
              comp_status.(!j) <- Fixed;
              component k (add (block_name r.Rect.w r.Rect.h)) r.Rect.x r.Rect.y
            end)
          d.Design.macros;
        let n_pins = Array.fold_left (fun a (nt : Net.t) -> a + Array.length nt.Net.pins) 0 nets in
        let net_start = Array.make (Array.length nets + 1) 0 in
        let net_comp = Array.make n_pins 0 and net_pin = Array.make n_pins 0 in
        let net_name = Array.make (Array.length nets) 0 in
        let pin_local = Array.make degree (-1) and e = ref 0 in
        Array.iteri
          (fun k (nt : Net.t) ->
            net_name.(k) <- add nt.Net.name;
            Array.iteri
              (fun q c ->
                if pin_local.(q) < 0 then pin_local.(q) <- add pin_name.(q);
                net_comp.(!e) <- cell_name c;
                net_pin.(!e) <- pin_local.(q);
                incr e)
              nt.Net.pins;
            net_start.(k + 1) <- !e)
          nets;
        {
          design = d.Design.name;
          units = 1000;
          diearea = o;
          rows;
          names = names_array names;
          comp_name;
          comp_macro;
          comp_status;
          comp_x;
          comp_y;
          comp_orient;
          pins = [];
          net_name;
          net_start;
          net_comp;
          net_pin;
          blockages = [];
          die = Some i;
          n_dies = Some n;
          max_util = Some die.Die.max_util;
          gp_comp;
          gp_x;
          gp_y;
          gp_z;
          gp_w;
        })
  in
  (lef, defs)
