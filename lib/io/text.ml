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

let write_design fmt (d : Design.t) =
  Format.fprintf fmt "design %s@." d.Design.name;
  Array.iter
    (fun (die : Die.t) ->
      let o = die.Die.outline in
      Format.fprintf fmt "die %d %d %d %d %d %d %d %.6f@." die.Die.index o.Rect.x
        o.Rect.y o.Rect.w o.Rect.h die.Die.row_height die.Die.site_width
        die.Die.max_util)
    d.Design.dies;
  Array.iter
    (fun (c : Cell.t) ->
      if c.Cell.weight = 1.0 then
        Format.fprintf fmt "cell %d %s %d %d %.6f" c.Cell.id c.Cell.name
          c.Cell.gp_x c.Cell.gp_y c.Cell.gp_z
      else
        Format.fprintf fmt "cellw %d %s %d %d %.6f %.6f" c.Cell.id c.Cell.name
          c.Cell.gp_x c.Cell.gp_y c.Cell.gp_z c.Cell.weight;
      Array.iter (fun w -> Format.fprintf fmt " %d" w) c.Cell.widths;
      Format.fprintf fmt "@.")
    d.Design.cells;
  Array.iter
    (fun (m : Blockage.t) ->
      let r = m.Blockage.rect in
      Format.fprintf fmt "macro %d %s %d %d %d %d %d@." m.Blockage.id
        m.Blockage.name m.Blockage.die r.Rect.x r.Rect.y r.Rect.w r.Rect.h)
    d.Design.macros;
  Array.iter
    (fun (n : Net.t) ->
      Format.fprintf fmt "net %d %s" n.Net.id n.Net.name;
      Array.iter (fun p -> Format.fprintf fmt " %d" p) n.Net.pins;
      Format.fprintf fmt "@.")
    d.Design.nets

let design_to_string d = Format.asprintf "%a" write_design d

exception Parse of string

let fail fmt = Format.kasprintf (fun s -> raise (Parse s)) fmt

let tokenize text =
  String.split_on_char '\n' text
  |> List.mapi (fun i line -> (i + 1, line))
  |> List.filter_map (fun (i, line) ->
         let line =
           match String.index_opt line '#' with
           | Some j -> String.sub line 0 j
           | None -> line
         in
         let words =
           String.split_on_char ' ' line
           |> List.concat_map (String.split_on_char '\t')
           |> List.filter (fun w -> w <> "")
         in
         if words = [] then None else Some (i, words))

let int_of ~line s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail "line %d: expected integer, got %S" line s

let float_of ~line s =
  match float_of_string_opt s with
  | Some v -> v
  | None -> fail "line %d: expected number, got %S" line s

let read_design text =
  try
    let name = ref "unnamed" in
    let dies = ref [] and cells = ref [] and macros = ref [] and nets = ref [] in
    List.iter
      (fun (line, words) ->
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
        | [] -> ())
      (tokenize text);
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

let write_placement fmt design (p : Placement.t) =
  ignore design;
  for c = 0 to Placement.n_cells p - 1 do
    Format.fprintf fmt "place %d %d %d %d@." c p.Placement.x.(c) p.Placement.y.(c)
      p.Placement.die.(c)
  done

let placement_to_string design p = Format.asprintf "%a" (fun fmt -> write_placement fmt design) p

let read_placement design text =
  try
    let p = Placement.initial design in
    List.iter
      (fun (line, words) ->
        match words with
        | [ "place"; c; x; y; d ] ->
          let c = int_of ~line c in
          if c < 0 || c >= Placement.n_cells p then
            fail "line %d: cell %d out of range" line c;
          p.Placement.x.(c) <- int_of ~line x;
          p.Placement.y.(c) <- int_of ~line y;
          p.Placement.die.(c) <- int_of ~line d
        | kw :: _ -> fail "line %d: unrecognized record %S" line kw
        | [] -> ())
      (tokenize text);
    Ok p
  with Parse msg -> Error msg

let with_out path f =
  let oc = open_out path in
  let fmt = Format.formatter_of_out_channel oc in
  (try f fmt with e -> close_out oc; raise e);
  Format.pp_print_flush fmt ();
  close_out oc

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let save_design path d = with_out path (fun fmt -> write_design fmt d)

let load_design path = read_design (read_file path)

let save_placement path design p = with_out path (fun fmt -> write_placement fmt design p)

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
