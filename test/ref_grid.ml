(* Reference grid assignment for the differential tests: verbatim copies
   of the original [Tdf_grid.Grid.find_slot], [add_frag] and
   [distribute_in_segment], which walk every bin of the segment and
   search both fragment lists on every add, kept only under test/ so the
   bin-search assignment can be checked for the exact same fragments.
   [touch], [widest_segment], [place_cell], [assign_initial] and
   [reset_to] are the glue that drives them, as in the grid.  Stamps come
   from a counter of negative values, which the grid's own counter never
   draws, so a test can tell which bins an operation restamped. *)

module Interval = Tdf_geometry.Interval
module Design = Tdf_netlist.Design
module Die = Tdf_netlist.Die
module Placement = Tdf_netlist.Placement
open Tdf_grid.Grid

let stale = -1

let next_stamp = ref (-1)

let fresh_stamp () =
  let s = !next_stamp in
  decr next_stamp;
  s

let find_slot t ~die ~x ~y ~w =
  let d = Design.die t.design die in
  let nrows = Array.length t.row_segments.(die) in
  if nrows = 0 then None
  else begin
    let r0 = Die.nearest_row d y in
    let best = ref None in
    let consider sid =
      let s = t.segments.(sid) in
      if s.s_hi - s.s_lo >= w then begin
        let cx = max s.s_lo (min (s.s_hi - w) x) in
        let cy = Die.row_y d s.s_row in
        let cost = abs (cx - x) + abs (cy - y) in
        match !best with
        | Some (bcost, _, _) when bcost <= cost -> ()
        | _ -> best := Some (cost, sid, cx)
      end
    in
    let row_dist r = abs (Die.row_y d r - y) in
    (* Expand outward from the nearest row; stop once the row's y distance
       alone exceeds the best complete cost. *)
    let rec expand k =
      let lo = r0 - k and hi = r0 + k in
      let lo_ok = lo >= 0 and hi_ok = hi < nrows && k > 0 in
      if (not lo_ok) && not hi_ok then ()
      else begin
        let min_d =
          min
            (if lo_ok then row_dist lo else max_int)
            (if hi_ok then row_dist hi else max_int)
        in
        let prune = match !best with Some (c, _, _) -> min_d > c | None -> false in
        if not prune then begin
          if lo_ok then Array.iter consider t.row_segments.(die).(lo);
          if hi_ok then Array.iter consider t.row_segments.(die).(hi);
          expand (k + 1)
        end
      end
    in
    expand 0;
    match !best with Some (_, sid, cx) -> Some (sid, cx) | None -> None
  end

let touch t b ~cell =
  let s = fresh_stamp () in
  t.stamp.(b.id) <- s;
  List.iter (fun (bid, _) -> t.stamp.(bid) <- s) t.cell_frags.(cell)

let add_frag t b ~cell ~rho ~w =
  let dw = rho *. float_of_int w in
  (match List.find_opt (fun f -> f.cell = cell) b.frags with
  | Some f -> f.rho <- f.rho +. rho
  | None -> b.frags <- { cell; rho } :: b.frags);
  b.used <- b.used +. dw;
  t.die_used.(b.die) <- t.die_used.(b.die) +. dw;
  t.cell_disp.(cell) <- stale;
  t.cell_frags.(cell) <-
    (match List.assoc_opt b.id t.cell_frags.(cell) with
    | Some r ->
      (b.id, r +. rho) :: List.remove_assoc b.id t.cell_frags.(cell)
    | None -> (b.id, rho) :: t.cell_frags.(cell));
  touch t b ~cell

let distribute_in_segment t ~cell ~sid ~x =
  let s = t.segments.(sid) in
  let w = cell_width t ~cell ~die:s.s_die in
  let x = max s.s_lo (min (max s.s_lo (s.s_hi - w)) x) in
  let span = Interval.make x (x + w) in
  let total = ref 0. in
  Array.iter
    (fun bid ->
      let b = t.bins.(bid) in
      let ov = Interval.overlap_length (Interval.make b.x (b.x + b.width)) span in
      if ov > 0 then begin
        let rho = float_of_int ov /. float_of_int w in
        let rho = Float.min rho (1. -. !total) in
        if rho > 0. then begin
          add_frag t b ~cell ~rho ~w;
          total := !total +. rho
        end
      end)
    s.s_bins;
  (* Any residue (cell wider than the segment) lands in the last bin. *)
  if !total < 1. -. 1e-9 then begin
    let last = t.bins.(s.s_bins.(Array.length s.s_bins - 1)) in
    add_frag t last ~cell ~rho:(1. -. !total) ~w
  end;
  t.cell_seg.(cell) <- sid

let widest_segment t die =
  let best = ref None in
  Array.iter
    (fun s ->
      if s.s_die = die then
        match !best with
        | Some b when t.segments.(b).s_hi - t.segments.(b).s_lo >= s.s_hi - s.s_lo ->
          ()
        | _ -> best := Some s.sid)
    t.segments;
  !best

let place_cell t ~cell ~die ~x ~y =
  assert (t.cell_seg.(cell) = -1);
  let try_die d = find_slot t ~die:d ~x ~y ~w:(cell_width t ~cell ~die:d) in
  let slot =
    match try_die die with
    | Some _ as s -> s
    | None ->
      let nd = Design.n_dies t.design in
      let rec others d =
        if d >= nd then None
        else if d = die then others (d + 1)
        else match try_die d with Some _ as s -> s | None -> others (d + 1)
      in
      (match others 0 with
      | Some _ as s -> s
      | None ->
        (match widest_segment t die with
        | Some sid -> Some (sid, max t.segments.(sid).s_lo x)
        | None -> None))
  in
  match slot with
  | Some (sid, cx) -> Ok (distribute_in_segment t ~cell ~sid ~x:cx)
  | None -> Error { pe_cell = cell; pe_die = die }

let assign_initial t p =
  let n = Design.n_cells t.design in
  let rec go cell =
    if cell >= n then Ok ()
    else
      match
        place_cell t ~cell ~die:p.Placement.die.(cell) ~x:p.Placement.x.(cell)
          ~y:p.Placement.y.(cell)
      with
      | Ok () -> go (cell + 1)
      | Error _ as e -> e
  in
  go 0

let reset_to t targets =
  reset t;
  let n = Array.length targets in
  let rec go cell =
    if cell >= n then Ok ()
    else begin
      let x, y, die = targets.(cell) in
      match place_cell t ~cell ~die ~x ~y with
      | Ok () -> go (cell + 1)
      | Error _ as e -> e
    end
  in
  go 0
