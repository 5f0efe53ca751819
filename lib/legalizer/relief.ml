module Grid = Tdf_grid.Grid
module Design = Tdf_netlist.Design
module Die = Tdf_netlist.Die

(* Cheapest (cell, destination) pair over src's fragments × bins with
   enough demand, priced by D_c(v) ([Grid.est_disp]).  Ties go to the
   earliest fragment of [src]'s list, then to the lowest bin id: the
   first strict minimum a plain fragments × bins scan would meet.

   The scan is pruned by rows and, inside a row, by columns.  D_c(v) is
   the x distance from the cell's initial position to its clamped spot in
   v plus the y distance to v's row.  Rows are uniform and visited outward
   from the row nearest that y, and the bins of a segment are visited
   outward from the one holding that x, so along each direction the row
   distance, then the x distance, only grows: once it can neither beat
   the best cost nor tie it (a tie wins only for the same fragment, the
   tie-break already favouring earlier ones) nothing further on that side
   can win, whatever the best becomes later.

   One [scan] record per call carries the best pick so far and the
   fragment and die being scanned, so the walks below are plain
   functions: nothing is allocated per row, segment or bin. *)
type scan = {
  grid : Grid.t;
  mask : bool array option;
  src : int;
  mutable fi : int;  (** position of the fragment in [src]'s list *)
  mutable cell : int;
  mutable wi : int;  (** the cell's width on the die being scanned *)
  mutable gx : int;
  mutable best_cost : int;
  mutable best_frag : int;
  mutable best_cell : int;
  mutable best_bin : int;
}

let can_win r cost = cost < r.best_cost || (cost = r.best_cost && r.fi = r.best_frag)

let consider r cost (b : Grid.bin) =
  let id = b.Grid.id in
  if
    id <> r.src
    && (match r.mask with None -> true | Some m -> m.(id))
    && Grid.has_room b r.wi
  then
    if
      cost < r.best_cost
      || (cost = r.best_cost && r.fi = r.best_frag && id < r.best_bin)
    then begin
      r.best_cost <- cost;
      r.best_frag <- r.fi;
      r.best_cell <- r.cell;
      r.best_bin <- id
    end

(* From bin [k] of a segment on, one [step] at a time, while the bin's
   cost can still win; [dy] is the row's y distance. *)
let rec walk r ids ~dy k step =
  if k >= 0 && k < Array.length ids then begin
    let b = r.grid.Grid.bins.(ids.(k)) in
    let xmax = Int.max b.Grid.x (b.Grid.x + b.Grid.width - r.wi) in
    let x = Int.max b.Grid.x (Int.min xmax r.gx) in
    let c = abs (x - r.gx) + dy in
    if can_win r c then begin
      consider r c b;
      walk r ids ~dy (k + step) step
    end
  end

(* One segment of a row: leftward from the last bin starting at or before
   [gx], rightward from the next one. *)
let scan_segment r ~dy (s : Grid.segment) =
  let ids = s.Grid.s_bins and bins = r.grid.Grid.bins in
  let lo = ref 0 and hi = ref (Array.length ids - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if bins.(ids.(mid)).Grid.x <= r.gx then lo := mid else hi := mid - 1
  done;
  walk r ids ~dy !lo (-1);
  walk r ids ~dy (!lo + 1) 1

let scan_row r sids ~dy =
  for i = 0 to Array.length sids - 1 do
    scan_segment r ~dy r.grid.Grid.segments.(sids.(i))
  done

let row_dy die ~gy row = abs (Die.row_y die row - gy)

(* Rows [r0 - k] and [r0 + k], then on outward, each side while its row
   distance can still win. *)
let rec outward r rows die ~gy ~r0 k lo_open hi_open =
  if lo_open || hi_open then begin
    let lo = r0 - k and hi = r0 + k in
    let lo_open = lo_open && lo >= 0 && can_win r (row_dy die ~gy lo) in
    if lo_open then scan_row r rows.(lo) ~dy:(row_dy die ~gy lo);
    let hi_open =
      hi_open && hi < Array.length rows && can_win r (row_dy die ~gy hi)
    in
    if hi_open then scan_row r rows.(hi) ~dy:(row_dy die ~gy hi);
    outward r rows die ~gy ~r0 (k + 1) lo_open hi_open
  end

(* Width and the utilization cap are per die: [die_used] does not change
   during the scan. *)
let scan_die r cfg ~src_die d =
  let grid = r.grid in
  let wi = Grid.cell_width grid ~cell:r.cell ~die:d in
  let rows = grid.Grid.row_segments.(d) in
  if
    Array.length rows > 0
    && (d = src_die
       || cfg.Config.d2d_edges
          && Grid.util_ok grid ~die:d ~inflow:(float_of_int wi))
  then begin
    let die = Design.die grid.Grid.design d in
    let gy = grid.Grid.gp_y.(r.cell) in
    r.wi <- wi;
    r.gx <- grid.Grid.gp_x.(r.cell);
    let r0 = Die.nearest_row die gy in
    if can_win r (row_dy die ~gy r0) then begin
      scan_row r rows.(r0) ~dy:(row_dy die ~gy r0);
      outward r rows die ~gy ~r0 1 true true
    end
  end

let relieve ?mask cfg grid ~src =
  Tdf_telemetry.span "flow3d.relief" @@ fun () ->
  let r =
    {
      grid;
      mask;
      src = src.Grid.id;
      fi = 0;
      cell = -1;
      wi = 0;
      gx = 0;
      best_cost = max_int;
      best_frag = -1;
      best_cell = -1;
      best_bin = -1;
    }
  in
  let nd = Design.n_dies grid.Grid.design in
  let f = ref (Grid.first_in_bin grid src.Grid.id) in
  while !f >= 0 do
    r.cell <- Grid.frag_cell grid !f;
    for d = 0 to nd - 1 do
      scan_die r cfg ~src_die:src.Grid.die d
    done;
    r.fi <- r.fi + 1;
    f := Grid.next_in_bin grid !f
  done;
  if r.best_cell < 0 then None
  else begin
    let b = grid.Grid.bins.(r.best_bin) in
    Grid.move_whole grid ~cell:r.best_cell ~dst:b;
    Tdf_telemetry.incr "flow3d.relief.moves";
    Some (r.best_cell, b)
  end
