module Rect = Tdf_geometry.Rect
module Interval = Tdf_geometry.Interval
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Net = Tdf_netlist.Net
module Blockage = Tdf_netlist.Blockage
module Design = Tdf_netlist.Design

type severity = Warning | Fatal

type issue = {
  severity : severity;
  code : string;
  subject : string;
  message : string;
}

let issue_to_string i =
  Printf.sprintf "%s: [%s] %s: %s"
    (match i.severity with Warning -> "warning" | Fatal -> "error")
    i.code i.subject i.message

let fatal issues = List.filter (fun i -> i.severity = Fatal) issues

(* Widest free segment of a die across all rows (0 when the die has no
   usable placement area at all). *)
let max_segment_width design d =
  let die = Design.die design d in
  let best = ref 0 in
  for r = 0 to Die.num_rows die - 1 do
    List.iter
      (fun (iv : Interval.t) -> best := max !best (Interval.length iv))
      (Tdf_grid.Grid.segments_of_row design d r)
  done;
  !best

(* Bounding window of every die outline: the legal universe for gp_x/gp_y. *)
let window design =
  Array.fold_left
    (fun (acc : Rect.t option) (die : Die.t) ->
      let o = die.Die.outline in
      match acc with
      | None -> Some o
      | Some w ->
        let x = min w.Rect.x o.Rect.x and y = min w.Rect.y o.Rect.y in
        let xh = max (w.Rect.x + w.Rect.w) (o.Rect.x + o.Rect.w) in
        let yh = max (w.Rect.y + w.Rect.h) (o.Rect.y + o.Rect.h) in
        Some (Rect.make ~x ~y ~w:(xh - x) ~h:(yh - y)))
    None design.Design.dies

(* Distinct pins of a net whose pins are all in [0, n_cells): one stamp
   array shared by every net of a design, instead of a table per net. *)
let distinct_pins_counter n_cells =
  let stamp = Array.make n_cells (-1) and round = ref (-1) in
  fun (n : Net.t) ->
    incr round;
    let distinct = ref 0 in
    Array.iter
      (fun p ->
        if stamp.(p) <> !round then begin
          stamp.(p) <- !round;
          incr distinct
        end)
      n.Net.pins;
    !distinct

(* Subjects are formatted only for the cells and nets an issue names. *)
let cell_subject (c : Cell.t) = Printf.sprintf "cell %d" c.Cell.id

let net_subject (n : Net.t) = Printf.sprintf "net %s" n.Net.name

(* Some die d in [0, nd) with [f d]. *)
let exists_die nd f =
  let rec go d = d < nd && (f d || go (d + 1)) in
  go 0

let design (d : Design.t) =
  let issues = ref [] in
  let add severity code subject fmt =
    Format.kasprintf
      (fun message -> issues := { severity; code; subject; message } :: !issues)
      fmt
  in
  let nd = Design.n_dies d in
  let max_seg = Array.init nd (fun i -> max_segment_width d i) in
  (* Dies: rows and capacity. *)
  Array.iteri
    (fun i (die : Die.t) ->
      let subject = Printf.sprintf "die %d" i in
      if Die.num_rows die = 0 then
        add Fatal "no-rows" subject
          "outline height %d holds no complete row of height %d"
          die.Die.outline.Rect.h die.Die.row_height
      else if max_seg.(i) = 0 then
        add
          (if Array.exists (fun w -> w > 0) max_seg then Warning else Fatal)
          "zero-capacity-die" subject
          "every row is fully covered by macros; no cell can be placed here")
    d.Design.dies;
  if nd > 0 && Array.for_all (fun w -> w = 0) max_seg then
    add Fatal "zero-capacity-design" "design"
      "no die has any free row segment; the design cannot host a single cell";
  (* Macros. *)
  Array.iter
    (fun (m : Blockage.t) ->
      let subject = Printf.sprintf "macro %s" m.Blockage.name in
      if m.Blockage.die < 0 || m.Blockage.die >= nd then
        add Fatal "macro-bad-die" subject "placed on invalid die %d"
          m.Blockage.die
      else begin
        let outline = (Design.die d m.Blockage.die).Die.outline in
        if not (Rect.contains_rect outline m.Blockage.rect) then
          add Fatal "macro-outside" subject "escapes the outline of die %d"
            m.Blockage.die
      end)
    d.Design.macros;
  Array.iter
    (fun (m1 : Blockage.t) ->
      Array.iter
        (fun (m2 : Blockage.t) ->
          if
            m1.Blockage.id < m2.Blockage.id
            && m1.Blockage.die = m2.Blockage.die
            && Rect.overlaps m1.Blockage.rect m2.Blockage.rect
          then
            add Fatal "macro-overlap"
              (Printf.sprintf "macro %s" m1.Blockage.name)
              "overlaps macro %s on die %d" m2.Blockage.name m1.Blockage.die)
        d.Design.macros)
    d.Design.macros;
  (* Cells: widths vs segments, gp coordinates. *)
  let win = window d in
  let z_hi = float_of_int (max 0 (nd - 1)) in
  Array.iter
    (fun (c : Cell.t) ->
      if Array.length c.Cell.widths <> nd then
        add Fatal "width-arity" (cell_subject c) "%d widths for %d dies"
          (Array.length c.Cell.widths) nd
      else begin
        let fits_somewhere =
          exists_die nd (fun dd ->
              max_seg.(dd) > 0 && Cell.width_on c dd <= max_seg.(dd))
        in
        if not fits_somewhere then
          add Fatal "unplaceable-cell" (cell_subject c)
            "wider than every row segment of every die (widths %s)"
            (String.concat "/"
               (Array.to_list (Array.map string_of_int c.Cell.widths)))
        else begin
          let home = Cell.nearest_die c ~n_dies:nd in
          if Cell.width_on c home > max_seg.(home) then
            add Warning "wide-cell" (cell_subject c)
              "width %d exceeds the widest segment (%d) of its nearest die %d"
              (Cell.width_on c home) max_seg.(home) home
        end
      end;
      if Float.is_nan c.Cell.gp_z then
        add Fatal "nan-gp-z" (cell_subject c) "gp_z is NaN; the cell has no home die"
      else if c.Cell.gp_z < 0. || c.Cell.gp_z > z_hi then
        add Warning "gp-z-window" (cell_subject c) "gp_z %.3f outside [0, %g]"
          c.Cell.gp_z z_hi;
      (match win with
      | Some w ->
        if
          c.Cell.gp_x < w.Rect.x
          || c.Cell.gp_x > w.Rect.x + w.Rect.w
          || c.Cell.gp_y < w.Rect.y
          || c.Cell.gp_y > w.Rect.y + w.Rect.h
        then
          add Warning "gp-out-of-window" (cell_subject c)
            "gp position (%d, %d) outside the die window" c.Cell.gp_x
            c.Cell.gp_y
      | None -> ()))
    d.Design.cells;
  (* Duplicate cell names: harmless internally (ids key everything) but
     the name-keyed DEF interchange cannot round-trip them. *)
  let names = Hashtbl.create (max 16 (Design.n_cells d)) in
  Array.iter
    (fun (c : Cell.t) ->
      match Hashtbl.find_opt names c.Cell.name with
      | Some first ->
        add Warning "duplicate-cell-name"
          (cell_subject c)
          "name %S is already used by cell %d; DEF export would conflate them"
          c.Cell.name first
      | None -> Hashtbl.add names c.Cell.name c.Cell.id)
    d.Design.cells;
  (* Nets. *)
  let n_cells = Design.n_cells d in
  let distinct_pins = distinct_pins_counter n_cells in
  Array.iter
    (fun (n : Net.t) ->
      if Array.exists (fun p -> p < 0 || p >= n_cells) n.Net.pins then
        add Fatal "net-bad-pin" (net_subject n) "references a cell outside the design"
      else
        let k = distinct_pins n in
        if k < 2 then
          add Warning "degenerate-net" (net_subject n)
            "%d distinct pin(s); contributes nothing to wirelength" k)
    d.Design.nets;
  List.stable_sort
    (fun a b ->
      compare
        (match a.severity with Fatal -> 0 | Warning -> 1)
        (match b.severity with Fatal -> 0 | Warning -> 1))
    (List.rev !issues)

let clamp v lo hi = max lo (min hi v)

let repair (d : Design.t) =
  let repairs = ref [] in
  let note fmt = Format.kasprintf (fun s -> repairs := s :: !repairs) fmt in
  let nd = Design.n_dies d in
  (* Drop macros that escape their die (or sit on a bad die); keep the
     overlap pair's first macro.  Dropping is conservative: the area they
     claimed becomes free space. *)
  let macros =
    d.Design.macros |> Array.to_list
    |> List.filter (fun (m : Blockage.t) ->
           let ok =
             m.Blockage.die >= 0 && m.Blockage.die < nd
             && Rect.contains_rect
                  (Design.die d m.Blockage.die).Die.outline m.Blockage.rect
           in
           if not ok then
             note "dropped macro %s (outside its die)" m.Blockage.name;
           ok)
  in
  let macros =
    let kept = ref [] in
    List.iter
      (fun (m : Blockage.t) ->
        let clashes =
          List.exists
            (fun (k : Blockage.t) ->
              k.Blockage.die = m.Blockage.die
              && Rect.overlaps k.Blockage.rect m.Blockage.rect)
            !kept
        in
        if clashes then
          note "dropped macro %s (overlaps an earlier macro)" m.Blockage.name
        else kept := m :: !kept)
      macros;
    Array.of_list (List.rev !kept)
  in
  let d_nomacro =
    Design.make ~name:d.Design.name ~dies:d.Design.dies ~cells:d.Design.cells
      ~macros ~nets:d.Design.nets ()
  in
  let max_seg = Array.init nd (fun i -> max_segment_width d_nomacro i) in
  let win = window d in
  (* Cells: clamp NaN/out-of-range z, out-of-window positions, oversized
     widths. *)
  let cells =
    Array.map
      (fun (c : Cell.t) ->
        let z_hi = float_of_int (max 0 (nd - 1)) in
        let gp_z =
          if Float.is_nan c.Cell.gp_z then begin
            note "cell %d: gp_z NaN reset to the stack midpoint" c.Cell.id;
            z_hi /. 2.
          end
          else if c.Cell.gp_z < 0. || c.Cell.gp_z > z_hi then begin
            note "cell %d: gp_z %.3f clamped into [0, %g]" c.Cell.id
              c.Cell.gp_z z_hi;
            clamp c.Cell.gp_z 0. z_hi
          end
          else c.Cell.gp_z
        in
        let gp_x, gp_y =
          match win with
          | Some w ->
            let x = clamp c.Cell.gp_x w.Rect.x (w.Rect.x + w.Rect.w) in
            let y = clamp c.Cell.gp_y w.Rect.y (w.Rect.y + w.Rect.h) in
            if x <> c.Cell.gp_x || y <> c.Cell.gp_y then
              note "cell %d: gp position (%d, %d) clamped to (%d, %d)"
                c.Cell.id c.Cell.gp_x c.Cell.gp_y x y;
            (x, y)
          | None -> (c.Cell.gp_x, c.Cell.gp_y)
        in
        let widths =
          if
            Array.length c.Cell.widths = nd
            && not
                 (exists_die nd (fun dd ->
                      max_seg.(dd) > 0 && Cell.width_on c dd <= max_seg.(dd)))
          then begin
            let widths =
              Array.mapi
                (fun dd w ->
                  if max_seg.(dd) > 0 then min w max_seg.(dd) else w)
                c.Cell.widths
            in
            note "cell %d: widths clamped to the widest segment per die"
              c.Cell.id;
            widths
          end
          else c.Cell.widths
        in
        if
          gp_z == c.Cell.gp_z && gp_x = c.Cell.gp_x && gp_y = c.Cell.gp_y
          && widths == c.Cell.widths
        then c
        else
          Cell.make ~id:c.Cell.id ~name:c.Cell.name ~weight:c.Cell.weight
            ~widths ~gp_x ~gp_y ~gp_z ())
      d.Design.cells
  in
  (* Rename duplicate cell names: the DEF interchange keys components by
     name, so later holders get a fresh "<name>_dup<id>" while the first
     keeps the original. *)
  let names = Hashtbl.create (max 16 (Array.length cells)) in
  let cells =
    Array.map
      (fun (c : Cell.t) ->
        if Hashtbl.mem names c.Cell.name then begin
          let rec pick k =
            let cand = Printf.sprintf "%s_dup%d" c.Cell.name k in
            if Hashtbl.mem names cand then pick (k + 1) else cand
          in
          let fresh = pick c.Cell.id in
          note "cell %d: renamed duplicate name %S to %S" c.Cell.id
            c.Cell.name fresh;
          Hashtbl.replace names fresh c.Cell.id;
          Cell.make ~id:c.Cell.id ~name:fresh ~weight:c.Cell.weight
            ~widths:c.Cell.widths ~gp_x:c.Cell.gp_x ~gp_y:c.Cell.gp_y
            ~gp_z:c.Cell.gp_z ()
        end
        else begin
          Hashtbl.replace names c.Cell.name c.Cell.id;
          c
        end)
      cells
  in
  (* Nets: drop degenerate and dangling ones, renumbering densely (net ids
     index the nets array throughout the repo). *)
  let n_cells = Array.length cells in
  let distinct_pins = distinct_pins_counter n_cells in
  let kept_nets =
    d.Design.nets |> Array.to_list
    |> List.filter (fun (n : Net.t) ->
           let bad =
             Array.exists (fun p -> p < 0 || p >= n_cells) n.Net.pins
             || distinct_pins n < 2
           in
           if bad then note "dropped net %s (degenerate or dangling)" n.Net.name;
           not bad)
  in
  let nets =
    kept_nets
    |> List.mapi (fun id (n : Net.t) ->
           if n.Net.id = id then n
           else Net.make ~id ~name:n.Net.name ~pins:n.Net.pins ())
    |> Array.of_list
  in
  let repaired =
    if !repairs = [] then d
    else Design.make ~name:d.Design.name ~dies:d.Design.dies ~cells ~macros ~nets ()
  in
  (repaired, List.rev !repairs)
