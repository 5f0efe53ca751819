module Grid = Tdf_grid.Grid
module Design = Tdf_netlist.Design
module Die = Tdf_netlist.Die

(* Cheapest (cell, destination) pair over src's fragments × bins with
   enough demand, priced by D_c(v) ([Grid.est_disp]).  Ties go to the
   earliest fragment of [src.frags], then to the lowest bin id: the first
   strict minimum a plain fragments × bins scan would meet.

   The scan is pruned by rows and, inside a row, by columns.  D_c(v) is
   the x distance from the cell's initial position to its clamped spot in
   v plus the y distance to v's row.  Rows are uniform and visited outward
   from the row nearest that y, and the bins of a segment are visited
   outward from the one holding that x, so along each direction the row
   distance, then the x distance, only grows: once it can neither beat
   the best cost nor tie it (a tie wins only for the same fragment, the
   tie-break already favouring earlier ones) nothing further on that side
   can win, whatever the best becomes later. *)
let relieve ?mask cfg grid ~src =
  Tdf_telemetry.span "flow3d.relief" @@ fun () ->
  let design = grid.Grid.design in
  let bins = grid.Grid.bins in
  let allowed bid = match mask with None -> true | Some m -> m.(bid) in
  let best_cost = ref max_int and best_frag = ref (-1) in
  let best_cell = ref (-1) and best_bin = ref (-1) in
  let can_win fi cost =
    cost < !best_cost || (cost = !best_cost && fi = !best_frag)
  in
  let consider fi cell w cost (b : Grid.bin) =
    if b.Grid.id <> src.Grid.id && allowed b.Grid.id && Grid.demand b >= w
    then
      if
        cost < !best_cost
        || (cost = !best_cost && fi = !best_frag && b.Grid.id < !best_bin)
      then begin
        best_cost := cost;
        best_frag := fi;
        best_cell := cell;
        best_bin := b.Grid.id
      end
  in
  (* One segment of a row at y distance [dy]: leftward from the last bin
     starting at or before [gx], rightward from the next one.  [wi] is the
     cell's width on the die. *)
  let scan_segment fi cell ~wi ~gx ~dy (s : Grid.segment) =
    let w = float_of_int wi in
    let ids = s.Grid.s_bins in
    let cost (b : Grid.bin) =
      let xmax = Int.max b.Grid.x (b.Grid.x + b.Grid.width - wi) in
      let x = Int.max b.Grid.x (Int.min xmax gx) in
      abs (x - gx) + dy
    in
    let lo = ref 0 and hi = ref (Array.length ids - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if bins.(ids.(mid)).Grid.x <= gx then lo := mid else hi := mid - 1
    done;
    let rec go k step =
      if k >= 0 && k < Array.length ids then begin
        let b = bins.(ids.(k)) in
        let c = cost b in
        if can_win fi c then begin
          consider fi cell w c b;
          go (k + step) step
        end
      end
    in
    go !lo (-1);
    go (!lo + 1) 1
  in
  let scan_die fi cell d =
    (* Width and the utilization cap are per die: [die_used] does not
       change during the scan. *)
    let wi = Grid.cell_width grid ~cell ~die:d in
    let rows = grid.Grid.row_segments.(d) in
    let nrows = Array.length rows in
    if
      nrows > 0
      && (d = src.Grid.die
         || cfg.Config.d2d_edges
            && Grid.util_ok grid ~die:d ~inflow:(float_of_int wi))
    then begin
      let die = Design.die design d in
      let gx = grid.Grid.gp_x.(cell) and gy = grid.Grid.gp_y.(cell) in
      let row_dy r = abs (Die.row_y die r - gy) in
      let row_open r = can_win fi (row_dy r) in
      let scan_row r =
        let dy = row_dy r in
        Array.iter
          (fun sid -> scan_segment fi cell ~wi ~gx ~dy grid.Grid.segments.(sid))
          rows.(r)
      in
      let r0 = Die.nearest_row die gy in
      let rec outward k lo_open hi_open =
        if lo_open || hi_open then begin
          let lo = r0 - k and hi = r0 + k in
          let lo_open = lo_open && lo >= 0 && row_open lo in
          if lo_open then scan_row lo;
          let hi_open = hi_open && hi < nrows && row_open hi in
          if hi_open then scan_row hi;
          outward (k + 1) lo_open hi_open
        end
      in
      if row_open r0 then begin
        scan_row r0;
        outward 1 true true
      end
    end
  in
  let nd = Design.n_dies design in
  List.iteri
    (fun fi (f : Grid.frag) ->
      for d = 0 to nd - 1 do
        scan_die fi f.Grid.cell d
      done)
    src.Grid.frags;
  if !best_cell < 0 then None
  else begin
    let b = grid.Grid.bins.(!best_bin) in
    Grid.move_whole grid ~cell:!best_cell ~dst:b;
    Tdf_telemetry.incr "flow3d.relief.moves";
    Some (!best_cell, b)
  end
