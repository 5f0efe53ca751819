(* Reference readers for the differential tests: verbatim copies of the
   line-format readers as they were when [Lines] handed each line over as
   a list of copied words, kept only under test/ so the in-place cursor
   readers can be checked for the same value (float bits included) or the
   same error string.

   [Lines] is the former word-list tokenizer; [Text], [Delta] and
   [Contest] hold the former readers over it, unchanged apart from the
   module paths. *)

module Rect = Tdf_geometry.Rect
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Blockage = Tdf_netlist.Blockage
module Net = Tdf_netlist.Net
module Design = Tdf_netlist.Design
module Placement = Tdf_netlist.Placement

module Lines = struct
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
end

module Text = struct
  open Lines

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
end

module Delta = struct
  type op = Tdf_io.Delta.op =
    | Move of { cell : int; x : int; y : int; die : int }
    | Resize of { cell : int; widths : int array }
    | Add of { name : string; x : int; y : int; die : int; widths : int array }
    | Remove of { cell : int }
    | Add_macro of { name : string; die : int; x : int; y : int; w : int; h : int }

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

end

module Contest = struct
  type terminal_spec = Tdf_io.Contest.terminal_spec = { t_size : int; t_spacing : int }

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

  let die_of_word ~line = function
    | "Top" | "top" -> 1
    | "Bottom" | "bottom" -> 0
    | w -> fail "line %d: expected Top or Bottom, got %S" line w

  let handle st line words =
    match words with
    | [ "NumTechnologies"; _ ] | [ "NumInstances"; _ ] | [ "NumNets"; _ ] -> ()
    | [ "Tech"; name; _count ] ->
      let tbl = Hashtbl.create 16 in
      Hashtbl.replace st.techs name tbl;
      st.cur_tech <- Some tbl
    | [ "LibCell"; name; sx; sy ] ->
      (match st.cur_tech with
      | Some tbl -> Hashtbl.replace tbl name (int_of ~line sx, int_of ~line sy)
      | None -> fail "line %d: LibCell outside a Tech section" line)
    | [ "DieSize"; lx; ly; ux; uy ] ->
      st.die_size <-
        Some (int_of ~line lx, int_of ~line ly, int_of ~line ux, int_of ~line uy)
    | [ "TopDieMaxUtil"; p ] -> st.top_util <- float_of ~line p
    | [ "BottomDieMaxUtil"; p ] -> st.bottom_util <- float_of ~line p
    | [ "TopDieRows"; x; y; len; h; n ] ->
      st.top_rows <-
        Some (int_of ~line x, int_of ~line y, int_of ~line len, int_of ~line h, int_of ~line n)
    | [ "BottomDieRows"; x; y; len; h; n ] ->
      st.bottom_rows <-
        Some (int_of ~line x, int_of ~line y, int_of ~line len, int_of ~line h, int_of ~line n)
    | [ "TopDieTech"; t ] -> st.top_tech <- Some t
    | [ "BottomDieTech"; t ] -> st.bottom_tech <- Some t
    | [ "TerminalSize"; sx; _sy ] -> st.term_size <- Some (int_of ~line sx)
    | [ "TerminalSpacing"; s ] -> st.term_spacing <- Some (int_of ~line s)
    | [ "Inst"; name; lib ] -> st.insts <- { ri_name = name; ri_lib = lib } :: st.insts
    | [ "Net"; name; npins ] ->
      flush_net st;
      st.cur_net <- Some (name, int_of ~line npins, [])
    | [ "Pin"; pin ] ->
      (match st.cur_net with
      | Some (name, expected, pins) ->
        let inst =
          match String.index_opt pin '/' with
          | Some i -> String.sub pin 0 i
          | None -> pin
        in
        st.cur_net <- Some (name, expected, inst :: pins)
      | None -> fail "line %d: Pin outside a Net section" line)
    | [ "Place"; inst; x; y; z ] ->
      Hashtbl.replace st.places inst (int_of ~line x, int_of ~line y, float_of ~line z)
    | [ "FixedInst"; name; lib; die; x; y ] ->
      st.fixed <-
        (name, lib, die_of_word ~line die, int_of ~line x, int_of ~line y) :: st.fixed
    | kw :: _ -> fail "line %d: unrecognized record %S" line kw
    | [] -> ()

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
      Lines.iter text (handle st);
      flush_net st;
      let design, terminal = build st in
      match Design.validate design with
      | Ok () -> Ok (design, terminal)
      | Error (e :: _) -> Error e
      | Error [] -> Ok (design, terminal)
    with
    | Parse msg -> Error msg
    | Assert_failure _ -> Error "invalid field value (assertion)"
end
