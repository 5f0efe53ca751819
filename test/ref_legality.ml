(* Reference legality audit for the differential tests: a verbatim copy
   of the original [Tdf_metrics.Legality.check], which reads row segments
   from [Tdf_grid.Grid.segments_of_row] and buckets cells by (die, row) in
   a hash table, kept only under test/ so the array-bucketed audit can be
   checked for the same violation count, overlap area and messages. *)

module Design = Tdf_netlist.Design
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Placement = Tdf_netlist.Placement
module Interval = Tdf_geometry.Interval

type report = Tdf_metrics.Legality.report = {
  n_violations : int;
  messages : string list;
  overlap_area : int;
}

let max_messages = 20

let check design p =
  let n = Placement.n_cells p in
  let nd = Design.n_dies design in
  let count = ref 0 and messages = ref [] and overlap = ref 0 in
  let add fmt =
    Format.kasprintf
      (fun s ->
        incr count;
        if List.length !messages < max_messages then messages := s :: !messages)
      fmt
  in
  let seg_cache = Hashtbl.create 256 in
  let segments die row =
    match Hashtbl.find_opt seg_cache (die, row) with
    | Some s -> s
    | None ->
      let s = Tdf_grid.Grid.segments_of_row design die row in
      Hashtbl.add seg_cache (die, row) s;
      s
  in
  (* per-(die,row) buckets for the overlap sweep *)
  let buckets = Hashtbl.create 256 in
  for c = 0 to n - 1 do
    let d = p.Placement.die.(c) in
    if d < 0 || d >= nd then add "cell %d on invalid die %d" c d
    else begin
      let die = Design.die design d in
      let cell = Design.cell design c in
      let w = Cell.width_on cell d in
      let x = p.Placement.x.(c) and y = p.Placement.y.(c) in
      let oy = die.Die.outline.Tdf_geometry.Rect.y in
      let ox = die.Die.outline.Tdf_geometry.Rect.x in
      if (y - oy) mod die.Die.row_height <> 0 then
        add "cell %d y=%d not row-aligned on die %d" c y d
      else begin
        let row = (y - oy) / die.Die.row_height in
        if row < 0 || row >= Die.num_rows die then
          add "cell %d on out-of-range row %d of die %d" c row d
        else begin
          if (x - ox) mod die.Die.site_width <> 0 then
            add "cell %d x=%d off the site grid of die %d" c x d;
          let span = Interval.make x (x + w) in
          let inside =
            List.exists
              (fun (s : Interval.t) -> s.Interval.lo <= x && x + w <= s.Interval.hi)
              (segments d row)
          in
          if not inside then
            add "cell %d footprint %a outside row segments (die %d row %d)" c
              Interval.pp span d row;
          let key = (d, row) in
          let prev = try Hashtbl.find buckets key with Not_found -> [] in
          Hashtbl.replace buckets key ((c, x, w) :: prev)
        end
      end
    end
  done;
  Hashtbl.iter
    (fun (d, row) cells ->
      let sorted = List.sort (fun (_, x1, _) (_, x2, _) -> compare x1 x2) cells in
      let rec sweep = function
        | (c1, x1, w1) :: ((c2, x2, w2) :: _ as rest) ->
          if x1 + w1 > x2 then begin
            let ov = min (x1 + w1) (x2 + w2) - x2 in
            overlap := !overlap + ov;
            add "cells %d and %d overlap by %d on die %d row %d" c1 c2 ov d row
          end;
          sweep rest
        | [ _ ] | [] -> ()
      in
      sweep sorted)
    buckets;
  { n_violations = !count; messages = List.rev !messages; overlap_area = !overlap }
