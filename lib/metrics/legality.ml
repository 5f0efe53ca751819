module Design = Tdf_netlist.Design
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Blockage = Tdf_netlist.Blockage
module Placement = Tdf_netlist.Placement
module Interval = Tdf_geometry.Interval
module Rect = Tdf_geometry.Rect

type report = {
  n_violations : int;
  messages : string list;
  overlap_area : int;
}

let max_messages = 20

(* Every row of every die, numbered die by die: row [r] of die [d] is
   [first_row.(d) + r].  Its segments, the row's x span minus the x spans
   of the die's macros overlapping it, are [seg_lo.(k)] to [seg_hi.(k)]
   for [k] from [seg_start.(row)] to [seg_start.(row + 1) - 1], in
   increasing x. *)
type rows = {
  first_row : int array;
  seg_start : int array;
  mutable seg_lo : int array;
  mutable seg_hi : int array;
}

let rows design =
  let nd = Design.n_dies design in
  let first_row = Array.make (nd + 1) 0 in
  for d = 0 to nd - 1 do
    first_row.(d + 1) <- first_row.(d) + Die.num_rows (Design.die design d)
  done;
  let n_rows = first_row.(nd) in
  let t =
    {
      first_row;
      seg_start = Array.make (n_rows + 1) 0;
      seg_lo = Array.make (n_rows + 1) 0;
      seg_hi = Array.make (n_rows + 1) 0;
    }
  in
  let n = ref 0 in
  let push lo hi =
    if !n = Array.length t.seg_lo then begin
      let grow a = Array.append a (Array.make (Array.length a) 0) in
      t.seg_lo <- grow t.seg_lo;
      t.seg_hi <- grow t.seg_hi
    end;
    t.seg_lo.(!n) <- lo;
    t.seg_hi.(!n) <- hi;
    incr n
  in
  let macros = design.Design.macros in
  (* the holes of one row: clipped macro x spans, by increasing left end *)
  let hole_lo = Array.make (Array.length macros) 0 in
  let hole_hi = Array.make (Array.length macros) 0 in
  for d = 0 to nd - 1 do
    let die = Design.die design d in
    let o = die.Die.outline in
    let x_lo = o.Rect.x and x_hi = o.Rect.x + o.Rect.w in
    for r = 0 to Die.num_rows die - 1 do
      t.seg_start.(first_row.(d) + r) <- !n;
      let y_lo = Die.row_y die r in
      let y_hi = y_lo + die.Die.row_height in
      let holes = ref 0 in
      Array.iter
        (fun (m : Blockage.t) ->
          let mr = m.Blockage.rect in
          if m.Blockage.die = d && mr.Rect.y < y_hi && y_lo < mr.Rect.y + mr.Rect.h
          then begin
            let lo = Int.max x_lo mr.Rect.x and hi = Int.min x_hi (mr.Rect.x + mr.Rect.w) in
            if lo < hi then begin
              let i = ref !holes in
              while !i > 0 && hole_lo.(!i - 1) > lo do
                hole_lo.(!i) <- hole_lo.(!i - 1);
                hole_hi.(!i) <- hole_hi.(!i - 1);
                decr i
              done;
              hole_lo.(!i) <- lo;
              hole_hi.(!i) <- hi;
              incr holes
            end
          end)
        macros;
      let cursor = ref x_lo in
      for i = 0 to !holes - 1 do
        if !cursor < hole_lo.(i) then push !cursor hole_lo.(i);
        cursor := Int.max !cursor hole_hi.(i)
      done;
      if !cursor < x_hi then push !cursor x_hi
    done
  done;
  t.seg_start.(n_rows) <- !n;
  t

let row_segments design die row =
  let t = rows design in
  let k = t.first_row.(die) + row in
  List.init
    (t.seg_start.(k + 1) - t.seg_start.(k))
    (fun i ->
      let j = t.seg_start.(k) + i in
      Interval.make t.seg_lo.(j) t.seg_hi.(j))

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
  let t = rows design in
  let n_rows = t.first_row.(nd) in
  (* cell → its row's number for the overlap sweep, -1 when unplaced *)
  let row_of = Array.make n (-1) in
  let width = Array.make n 0 in
  for c = 0 to n - 1 do
    let d = p.Placement.die.(c) in
    if d < 0 || d >= nd then add "cell %d on invalid die %d" c d
    else begin
      let die = Design.die design d in
      let w = Cell.width_on (Design.cell design c) d in
      let x = p.Placement.x.(c) and y = p.Placement.y.(c) in
      let oy = die.Die.outline.Rect.y in
      let ox = die.Die.outline.Rect.x in
      if (y - oy) mod die.Die.row_height <> 0 then
        add "cell %d y=%d not row-aligned on die %d" c y d
      else begin
        let row = (y - oy) / die.Die.row_height in
        if row < 0 || row >= Die.num_rows die then
          add "cell %d on out-of-range row %d of die %d" c row d
        else begin
          if (x - ox) mod die.Die.site_width <> 0 then
            add "cell %d x=%d off the site grid of die %d" c x d;
          let k = t.first_row.(d) + row in
          let inside = ref false in
          for j = t.seg_start.(k) to t.seg_start.(k + 1) - 1 do
            if t.seg_lo.(j) <= x && x + w <= t.seg_hi.(j) then inside := true
          done;
          if not !inside then
            add "cell %d footprint %a outside row segments (die %d row %d)" c
              Interval.pp (Interval.make x (x + w)) d row;
          row_of.(c) <- k;
          width.(c) <- w
        end
      end
    end
  done;
  (* Cells bucketed by row, then each row sorted by x, ties by decreasing
     id: the order the sweep reads (the stable sort of the id-descending
     bucket lists this audit used to keep). *)
  let start = Array.make (n_rows + 1) 0 in
  Array.iter (fun k -> if k >= 0 then start.(k + 1) <- start.(k + 1) + 1) row_of;
  for k = 1 to n_rows do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  let fill = Array.sub start 0 n_rows in
  let order = Array.make start.(n_rows) 0 in
  for c = 0 to n - 1 do
    let k = row_of.(c) in
    if k >= 0 then begin
      order.(fill.(k)) <- c;
      fill.(k) <- fill.(k) + 1
    end
  done;
  let xs = p.Placement.x in
  let minus_id = Array.init n (fun c -> -c) in
  let tmp = Array.make start.(n_rows) 0 in
  let d = ref 0 in
  for k = 0 to n_rows - 1 do
    while k >= t.first_row.(!d + 1) do
      incr d
    done;
    Tdf_util.Int_sort.sort_range ~key:xs ~tie:minus_id order ~tmp ~lo:start.(k)
      ~hi:start.(k + 1);
    for i = start.(k) to start.(k + 1) - 2 do
      let c1 = order.(i) and c2 = order.(i + 1) in
      let x1 = xs.(c1) and x2 = xs.(c2) in
      let w1 = width.(c1) and w2 = width.(c2) in
      if x1 + w1 > x2 then begin
        let ov = Int.min (x1 + w1) (x2 + w2) - x2 in
        overlap := !overlap + ov;
        add "cells %d and %d overlap by %d on die %d row %d" c1 c2 ov !d
          (k - t.first_row.(!d))
      end
    done
  done;
  { n_violations = !count; messages = List.rev !messages; overlap_area = !overlap }

let is_legal design p = (check design p).n_violations = 0

let brief r =
  if r.n_violations = 0 then "legal"
  else
    Printf.sprintf "%d violation%s (overlap area %d)%s" r.n_violations
      (if r.n_violations = 1 then "" else "s")
      r.overlap_area
      (match r.messages with m :: _ -> "; first: " ^ m | [] -> "")
