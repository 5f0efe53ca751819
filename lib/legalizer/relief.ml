module Grid = Tdf_grid.Grid
module Design = Tdf_netlist.Design
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell

(* Cheapest (cell, destination) pair over src's fragments × bins with
   enough demand, priced by D_c(v) ([Grid.est_disp]).  Ties go to the
   earliest fragment of [src.frags], then to the lowest bin id: the first
   strict minimum a plain fragments × bins scan would meet.

   The scan is pruned by rows.  D_c(v) is at least the y distance from
   the cell's initial position to v's row, rows are uniform, and the
   visit goes outward from the row nearest that y, so on each side the
   row distance only grows: once it exceeds the best cost (or equals it
   when the best comes from an earlier fragment, which the tie-break
   already favours) no further row on that side can win. *)
let relieve ?mask cfg grid ~src =
  Tdf_telemetry.span "flow3d.relief" @@ fun () ->
  let design = grid.Grid.design in
  let allowed bid = match mask with None -> true | Some m -> m.(bid) in
  let best_cost = ref max_int and best_frag = ref (-1) in
  let best_cell = ref (-1) and best_bin = ref (-1) in
  let consider fi cell w (b : Grid.bin) =
    if b.Grid.id <> src.Grid.id && allowed b.Grid.id && Grid.demand b >= w
    then begin
      let cost = Grid.est_disp grid ~cell b in
      if
        cost < !best_cost
        || (cost = !best_cost && fi = !best_frag && b.Grid.id < !best_bin)
      then begin
        best_cost := cost;
        best_frag := fi;
        best_cell := cell;
        best_bin := b.Grid.id
      end
    end
  in
  let scan_die fi cell c d =
    (* Width and the utilization cap are per die: [die_used] does not
       change during the scan. *)
    let w = float_of_int (Cell.width_on c d) in
    let rows = grid.Grid.row_segments.(d) in
    let nrows = Array.length rows in
    if
      nrows > 0
      && (d = src.Grid.die
         || (cfg.Config.d2d_edges && Grid.util_ok grid ~die:d ~inflow:w))
    then begin
      let die = Design.die design d in
      let gy = c.Cell.gp_y in
      let row_open r =
        let dy = abs (Die.row_y die r - gy) in
        dy < !best_cost || (dy = !best_cost && fi = !best_frag)
      in
      let scan_row r =
        Array.iter
          (fun sid ->
            Array.iter
              (fun bid -> consider fi cell w grid.Grid.bins.(bid))
              grid.Grid.segments.(sid).Grid.s_bins)
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
      let c = Design.cell design f.Grid.cell in
      for d = 0 to nd - 1 do
        scan_die fi f.Grid.cell c d
      done)
    src.Grid.frags;
  if !best_cell < 0 then None
  else begin
    let b = grid.Grid.bins.(!best_bin) in
    Grid.move_whole grid ~cell:!best_cell ~dst:b;
    Tdf_telemetry.incr "flow3d.relief.moves";
    Some (!best_cell, b)
  end
