(* Reference model of the grid's fractional assignment for the
   differential tests: the fragment lists the grid kept before its index
   arena, with state of its own.  A bin holds a [frag list], newest first;
   a cell holds a [(bin id, rho) list], most recently touched first.
   [touch], [add_frag], [sub_frag], [remove_cell], [move_fraction],
   [move_whole], [compute_cur_disp], [reset] and [rebind] are
   verbatim copies of those list versions; [find_slot] and
   [distribute_in_segment] are the original full-segment walks (no binary
   search), which search both fragment lists on every add.  The model
   reads only the static structure of a [Tdf_grid.Grid.t] (bin geometry,
   segments, rows), never its assignment.  Stamps come from a counter of
   negative values, which the grid's own counter never draws, so a test
   can tell which bins an operation restamped. *)

module G = Tdf_grid.Grid
module Interval = Tdf_geometry.Interval
module Design = Tdf_netlist.Design
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Placement = Tdf_netlist.Placement

type frag = { cell : int; mutable rho : float }

type bin = { mutable frags : frag list; mutable used : float }

type t = {
  g : G.t;  (** static structure only *)
  mutable design : Design.t;
  n_dies : int;
  mutable gp_x : int array;
  mutable gp_y : int array;
  mutable widths : int array;
  bins : bin array;
  cell_frags : (int * float) list array;
  cell_seg : int array;
  cell_disp : int array;
  die_used : float array;
  stamp : int array;
}

let stale = -1

let next_stamp = ref (-1)

let fresh_stamp () =
  let s = !next_stamp in
  decr next_stamp;
  s

let geometry design =
  let n = Design.n_cells design and nd = Design.n_dies design in
  let cell = Design.cell design in
  ( Array.init n (fun c -> (cell c).Cell.gp_x),
    Array.init n (fun c -> (cell c).Cell.gp_y),
    Array.init (n * nd) (fun k -> Cell.width_on (cell (k / nd)) (k mod nd)) )

(* An empty model over [g]'s bins and segments, for [g]'s design. *)
let create (g : G.t) =
  let design = g.G.design in
  let gp_x, gp_y, widths = geometry design in
  let nc = Design.n_cells design and nb = G.n_bins g in
  {
    g;
    design;
    n_dies = g.G.n_dies;
    gp_x;
    gp_y;
    widths;
    bins = Array.init nb (fun _ -> { frags = []; used = 0. });
    cell_frags = Array.make nc [];
    cell_seg = Array.make nc (-1);
    cell_disp = Array.make nc stale;
    die_used = Array.make g.G.n_dies 0.;
    stamp = Array.make nb (fresh_stamp ());
  }

let cell_width t ~cell ~die = t.widths.((cell * t.n_dies) + die)

let sbin t bid = t.g.G.bins.(bid)

let compute_cur_disp t cell =
  match t.cell_frags.(cell) with
  | [] -> 0
  | (bid0, _) :: _ as frags ->
    let b0 = sbin t bid0 in
    let w = cell_width t ~cell ~die:b0.G.die in
    let gx = t.gp_x.(cell) in
    let rec span lo hi = function
      | [] ->
        let xmax = Int.max lo (hi - w) in
        let x = Int.max lo (Int.min xmax gx) in
        abs (x - gx) + abs (b0.G.y - t.gp_y.(cell))
      | (bid, _) :: rest ->
        let b = sbin t bid in
        span (Int.min lo b.G.x) (Int.max hi (b.G.x + b.G.width)) rest
    in
    span max_int min_int frags

let cur_disp t cell =
  let d = t.cell_disp.(cell) in
  if d <> stale then d
  else begin
    let d = compute_cur_disp t cell in
    t.cell_disp.(cell) <- d;
    d
  end

let find_slot t ~die ~x ~y ~w =
  let g = t.g in
  let d = Design.die t.design die in
  let nrows = Array.length g.G.row_segments.(die) in
  if nrows = 0 then None
  else begin
    let r0 = Die.nearest_row d y in
    let best = ref None in
    let consider sid =
      let s = g.G.segments.(sid) in
      if s.G.s_hi - s.G.s_lo >= w then begin
        let cx = max s.G.s_lo (min (s.G.s_hi - w) x) in
        let cy = Die.row_y d s.G.s_row in
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
          if lo_ok then Array.iter consider g.G.row_segments.(die).(lo);
          if hi_ok then Array.iter consider g.G.row_segments.(die).(hi);
          expand (k + 1)
        end
      end
    in
    expand 0;
    match !best with Some (_, sid, cx) -> Some (sid, cx) | None -> None
  end

let touch t bid ~cell =
  let s = fresh_stamp () in
  t.stamp.(bid) <- s;
  List.iter (fun (bid, _) -> t.stamp.(bid) <- s) t.cell_frags.(cell)

let add_frag t bid ~cell ~rho ~w =
  let b = t.bins.(bid) and die = (sbin t bid).G.die in
  let dw = rho *. float_of_int w in
  (match List.find_opt (fun f -> f.cell = cell) b.frags with
  | Some f -> f.rho <- f.rho +. rho
  | None -> b.frags <- { cell; rho } :: b.frags);
  b.used <- b.used +. dw;
  t.die_used.(die) <- t.die_used.(die) +. dw;
  t.cell_disp.(cell) <- stale;
  t.cell_frags.(cell) <-
    (match List.assoc_opt bid t.cell_frags.(cell) with
    | Some r ->
      (bid, r +. rho) :: List.remove_assoc bid t.cell_frags.(cell)
    | None -> (bid, rho) :: t.cell_frags.(cell));
  touch t bid ~cell

let sub_frag t bid ~cell ~rho ~w =
  let b = t.bins.(bid) and die = (sbin t bid).G.die in
  touch t bid ~cell;
  let dw = rho *. float_of_int w in
  (match List.find_opt (fun f -> f.cell = cell) b.frags with
  | Some f ->
    f.rho <- f.rho -. rho;
    if f.rho <= 1e-9 then b.frags <- List.filter (fun g -> g.cell <> cell) b.frags
  | None -> invalid_arg "Grid.sub_frag: cell not in bin");
  b.used <- Float.max 0. (b.used -. dw);
  t.die_used.(die) <- Float.max 0. (t.die_used.(die) -. dw);
  t.cell_disp.(cell) <- stale;
  let remaining =
    match List.assoc_opt bid t.cell_frags.(cell) with
    | Some r -> r -. rho
    | None -> 0.
  in
  t.cell_frags.(cell) <-
    (if remaining <= 1e-9 then List.remove_assoc bid t.cell_frags.(cell)
     else (bid, remaining) :: List.remove_assoc bid t.cell_frags.(cell))

let distribute_in_segment t ~cell ~sid ~x =
  let s = t.g.G.segments.(sid) in
  let w = cell_width t ~cell ~die:s.G.s_die in
  let x = max s.G.s_lo (min (max s.G.s_lo (s.G.s_hi - w)) x) in
  let span = Interval.make x (x + w) in
  let total = ref 0. in
  Array.iter
    (fun bid ->
      let b = sbin t bid in
      let ov =
        Interval.overlap_length (Interval.make b.G.x (b.G.x + b.G.width)) span
      in
      if ov > 0 then begin
        let rho = float_of_int ov /. float_of_int w in
        let rho = Float.min rho (1. -. !total) in
        if rho > 0. then begin
          add_frag t bid ~cell ~rho ~w;
          total := !total +. rho
        end
      end)
    s.G.s_bins;
  (* Any residue (cell wider than the segment) lands in the last bin. *)
  if !total < 1. -. 1e-9 then begin
    let last = s.G.s_bins.(Array.length s.G.s_bins - 1) in
    add_frag t last ~cell ~rho:(1. -. !total) ~w
  end;
  t.cell_seg.(cell) <- sid

let widest_segment t die =
  let segments = t.g.G.segments in
  let best = ref None in
  Array.iter
    (fun (s : G.segment) ->
      if s.G.s_die = die then
        match !best with
        | Some b
          when segments.(b).G.s_hi - segments.(b).G.s_lo >= s.G.s_hi - s.G.s_lo ->
          ()
        | _ -> best := Some s.G.sid)
    segments;
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
        | Some sid -> Some (sid, max t.g.G.segments.(sid).G.s_lo x)
        | None -> None))
  in
  match slot with
  | Some (sid, cx) -> Ok (distribute_in_segment t ~cell ~sid ~x:cx)
  | None -> Error { G.pe_cell = cell; pe_die = die }

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

let reset t =
  Array.iter
    (fun b ->
      b.frags <- [];
      b.used <- 0.)
    t.bins;
  let nc = Array.length t.cell_frags in
  Array.fill t.cell_frags 0 nc [];
  Array.fill t.cell_seg 0 nc (-1);
  Array.fill t.cell_disp 0 nc stale;
  Array.fill t.die_used 0 (Array.length t.die_used) 0.;
  Array.fill t.stamp 0 (Array.length t.stamp) (fresh_stamp ())

let reset_to t p =
  reset t;
  assign_initial t p

let remove_cell t ~cell =
  let frags = t.cell_frags.(cell) in
  List.iter
    (fun (bid, rho) ->
      sub_frag t bid ~cell ~rho ~w:(cell_width t ~cell ~die:(sbin t bid).G.die))
    frags;
  t.cell_frags.(cell) <- [];
  t.cell_seg.(cell) <- -1;
  t.cell_disp.(cell) <- stale

let move_fraction t ~cell ~src ~dst ~rho =
  let s = sbin t src and d = sbin t dst in
  assert (s.G.seg = d.G.seg);
  let w = cell_width t ~cell ~die:s.G.die in
  let avail =
    match List.find_opt (fun f -> f.cell = cell) t.bins.(src).frags with
    | Some f -> f.rho
    | None -> 0.
  in
  let rho = Float.min rho avail in
  if rho > 0. then begin
    sub_frag t src ~cell ~rho ~w;
    add_frag t dst ~cell ~rho ~w
  end

let move_whole t ~cell ~dst =
  let d = sbin t dst in
  remove_cell t ~cell;
  add_frag t dst ~cell ~rho:1.0 ~w:(cell_width t ~cell ~die:d.G.die);
  t.cell_seg.(cell) <- d.G.seg

let rebind t design =
  let gp_x, gp_y, widths = geometry design in
  t.design <- design;
  t.gp_x <- gp_x;
  t.gp_y <- gp_y;
  t.widths <- widths;
  Array.fill t.cell_disp 0 (Array.length t.cell_disp) stale;
  Array.fill t.stamp 0 (Array.length t.stamp) (fresh_stamp ())

(* ---- list views of a grid, read through its fragment cursors ------ *)

(* A bin's fragments as (cell, rho), newest first. *)
let bin_frags (g : G.t) bid =
  let rec go f =
    if f < 0 then [] else (G.frag_cell g f, G.frag_rho g f) :: go (G.next_in_bin g f)
  in
  go (G.first_in_bin g bid)

(* A cell's fragments as (bin id, rho), most recently touched first. *)
let cell_frags (g : G.t) cell =
  let rec go f =
    if f < 0 then [] else (G.frag_bin g f, G.frag_rho g f) :: go (G.next_of_cell g f)
  in
  go (G.first_of_cell g cell)
