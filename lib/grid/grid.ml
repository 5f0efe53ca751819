module Interval = Tdf_geometry.Interval
module Rect = Tdf_geometry.Rect
module Design = Tdf_netlist.Design
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Blockage = Tdf_netlist.Blockage
module Placement = Tdf_netlist.Placement

type edge_kind = Horizontal | Vertical | D2d

type edge = { dst : int; kind : edge_kind }

type frag = { cell : int; mutable rho : float }

type bin = {
  id : int;
  die : int;
  row : int;
  seg : int;
  x : int;
  y : int;
  width : int;
  mutable frags : frag list;
  mutable used : float;
}

type segment = {
  sid : int;
  s_die : int;
  s_row : int;
  s_lo : int;
  s_hi : int;
  s_bins : int array;
}

type t = {
  mutable design : Design.t;
  n_dies : int;
  mutable gp_x : int array;
  mutable gp_y : int array;
  mutable weight : float array;
  mutable widths : int array;
  bins : bin array;
  segments : segment array;
  row_segments : int array array array;
  edges : edge array array;
  cell_frags : (int * float) list array;
  cell_seg : int array;
  cell_disp : int array;
  die_used : float array;
  die_cap : float array;
  stamp : int array;
}

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let segments_of_row design d r =
  let die = Design.die design d in
  let row_y = Die.row_y die r in
  let row_span = Interval.make row_y (row_y + die.Die.row_height) in
  let x_span = Rect.x_span die.Die.outline in
  let holes =
    design.Design.macros
    |> Array.to_list
    |> List.filter_map (fun m ->
           if
             m.Blockage.die = d
             && Interval.overlaps (Rect.y_span m.Blockage.rect) row_span
           then Some (Rect.x_span m.Blockage.rect)
           else None)
  in
  Interval.subtract x_span holes

(* Split a segment of length [len] into near-uniform bins of target width
   [w_v]: the remainder is spread one unit at a time instead of leaving a
   sliver bin at the end. *)
let bin_widths ~len ~bin_width =
  let nbins = max 1 ((len + (bin_width / 2)) / bin_width) in
  let base = len / nbins and rem = len mod nbins in
  Array.init nbins (fun i -> if i < rem then base + 1 else base)

(* [cell_disp] marker for "recompute on next read"; real values are
   distances, never negative. *)
let stale = -1

(* Bin stamps come from one process-wide counter, never from a per-grid
   one: a search state reused across diverging clones must not see two
   different bin states under one stamp.  0 is never drawn. *)
let stamps = Atomic.make 1

let fresh_stamp () = Atomic.fetch_and_add stamps 1

(* The per-cell inputs of D_c: gp anchors, weights and widths
   ([cell * n_dies + die]), copied out of the design's records. *)
let geometry design =
  let n = Design.n_cells design and nd = Design.n_dies design in
  let cell = Design.cell design in
  ( Array.init n (fun c -> (cell c).Cell.gp_x),
    Array.init n (fun c -> (cell c).Cell.gp_y),
    Array.init n (fun c -> (cell c).Cell.weight),
    Array.init (n * nd) (fun k -> Cell.width_on (cell (k / nd)) (k mod nd)) )

let build design ~bin_width =
  assert (bin_width > 0);
  let nd = Design.n_dies design in
  let bins = ref [] and segments = ref [] in
  let n_bin = ref 0 and n_seg = ref 0 in
  let row_segments =
    Array.init nd (fun d ->
        let die = Design.die design d in
        Array.init (Die.num_rows die) (fun r ->
            let segs = segments_of_row design d r in
            let y = Die.row_y die r in
            let ids =
              List.filter_map
                (fun (iv : Interval.t) ->
                  let len = Interval.length iv in
                  if len <= 0 then None
                  else begin
                    let sid = !n_seg in
                    incr n_seg;
                    let widths = bin_widths ~len ~bin_width in
                    let cursor = ref iv.Interval.lo in
                    let bin_ids =
                      Array.map
                        (fun w ->
                          let id = !n_bin in
                          incr n_bin;
                          bins :=
                            { id; die = d; row = r; seg = sid; x = !cursor; y;
                              width = w; frags = []; used = 0. }
                            :: !bins;
                          cursor := !cursor + w;
                          id)
                        widths
                    in
                    segments :=
                      { sid; s_die = d; s_row = r; s_lo = iv.Interval.lo;
                        s_hi = iv.Interval.hi; s_bins = bin_ids }
                      :: !segments;
                    Some sid
                  end)
                segs
            in
            Array.of_list ids))
  in
  let bins = Array.of_list (List.rev !bins) in
  let segments = Array.of_list (List.rev !segments) in
  Array.iteri (fun i b -> assert (b.id = i)) bins;
  let edges = Array.make (Array.length bins) [] in
  let add_edge src dst kind = edges.(src) <- { dst; kind } :: edges.(src) in
  (* Horizontal edges: consecutive bins of a segment. *)
  Array.iter
    (fun s ->
      let ids = s.s_bins in
      for i = 0 to Array.length ids - 2 do
        add_edge ids.(i) ids.(i + 1) Horizontal;
        add_edge ids.(i + 1) ids.(i) Horizontal
      done)
    segments;
  (* Bins of a row in x order (concatenating its segments). *)
  let row_bins d r =
    row_segments.(d).(r)
    |> Array.to_list
    |> List.concat_map (fun sid -> Array.to_list segments.(sid).s_bins)
    |> Array.of_list
  in
  let x_overlap a b =
    Interval.overlaps
      (Interval.make a.x (a.x + a.width))
      (Interval.make b.x (b.x + b.width))
  in
  (* Connect x-overlapping bins of two sorted bin-id arrays. *)
  let connect_overlapping ids1 ids2 kind =
    let n1 = Array.length ids1 and n2 = Array.length ids2 in
    let j = ref 0 in
    for i = 0 to n1 - 1 do
      let b1 = bins.(ids1.(i)) in
      while !j < n2 && bins.(ids2.(!j)).x + bins.(ids2.(!j)).width <= b1.x do
        incr j
      done;
      let k = ref !j in
      while !k < n2 && bins.(ids2.(!k)).x < b1.x + b1.width do
        let b2 = bins.(ids2.(!k)) in
        if x_overlap b1 b2 then begin
          add_edge b1.id b2.id kind;
          add_edge b2.id b1.id kind
        end;
        incr k
      done
    done
  in
  (* Vertical edges: adjacent rows of a die. *)
  for d = 0 to nd - 1 do
    let nrows = Array.length row_segments.(d) in
    for r = 0 to nrows - 2 do
      connect_overlapping (row_bins d r) (row_bins d (r + 1)) Vertical
    done
  done;
  (* D2D edges: adjacent dies in the stack, rows with planar y-overlap. *)
  for d = 0 to nd - 2 do
    let die_lo = Design.die design d and die_hi = Design.die design (d + 1) in
    let nrows_lo = Array.length row_segments.(d) in
    for r1 = 0 to nrows_lo - 1 do
      let y1 = Die.row_y die_lo r1 in
      let span1 = Interval.make y1 (y1 + die_lo.Die.row_height) in
      let nrows_hi = Array.length row_segments.(d + 1) in
      for r2 = 0 to nrows_hi - 1 do
        let y2 = Die.row_y die_hi r2 in
        let span2 = Interval.make y2 (y2 + die_hi.Die.row_height) in
        if Interval.overlaps span1 span2 then
          connect_overlapping (row_bins d r1) (row_bins (d + 1) r2) D2d
      done
    done
  done;
  let die_cap = Array.make nd 0. in
  Array.iter
    (fun b -> die_cap.(b.die) <- die_cap.(b.die) +. float_of_int b.width)
    bins;
  let gp_x, gp_y, weight, widths = geometry design in
  {
    design;
    n_dies = nd;
    gp_x;
    gp_y;
    weight;
    widths;
    bins;
    segments;
    row_segments;
    edges = Array.map Array.of_list edges;
    cell_frags = Array.make (Design.n_cells design) [];
    cell_seg = Array.make (Design.n_cells design) (-1);
    cell_disp = Array.make (Design.n_cells design) stale;
    die_used = Array.make nd 0.;
    die_cap;
    stamp = Array.make (Array.length bins) (fresh_stamp ());
  }

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let n_bins t = Array.length t.bins

let cap b = b.width

let supply b = Float.max 0. (b.used -. float_of_int b.width)

let demand b = Float.max 0. (float_of_int b.width -. b.used)

let total_overflow t = Array.fold_left (fun acc b -> acc +. supply b) 0. t.bins

let overflowed_bins t =
  Array.fold_left (fun acc b -> if supply b > 0. then b :: acc else acc) [] t.bins

let die_utilization t d =
  if t.die_cap.(d) <= 0. then 1.0 else t.die_used.(d) /. t.die_cap.(d)

let util_ok t ~die ~inflow =
  let max_util = (Design.die t.design die).Die.max_util in
  t.die_cap.(die) <= 0.
  || (t.die_used.(die) +. inflow) /. t.die_cap.(die) <= max_util

let cell_width t ~cell ~die = t.widths.((cell * t.n_dies) + die)

(* D_c(u) from scratch.  All fragments of a cell share one segment, so the
   die and row read off the first one hold for all; only the x span of the
   fragment bins varies. *)
let compute_cur_disp t cell =
  match t.cell_frags.(cell) with
  | [] -> 0
  | (bid0, _) :: _ as frags ->
    let b0 = t.bins.(bid0) in
    let w = cell_width t ~cell ~die:b0.die in
    let gx = t.gp_x.(cell) in
    let rec span lo hi = function
      | [] ->
        let xmax = Int.max lo (hi - w) in
        let x = Int.max lo (Int.min xmax gx) in
        abs (x - gx) + abs (b0.y - t.gp_y.(cell))
      | (bid, _) :: rest ->
        let b = t.bins.(bid) in
        span (Int.min lo b.x) (Int.max hi (b.x + b.width)) rest
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

let est_disp t ~cell b =
  let w = cell_width t ~cell ~die:b.die in
  let gx = t.gp_x.(cell) in
  let xmax = Int.max b.x (b.x + b.width - w) in
  let x = Int.max b.x (Int.min xmax gx) in
  abs (x - gx) + abs (b.y - t.gp_y.(cell))

(* ------------------------------------------------------------------ *)
(* Slot search                                                         *)
(* ------------------------------------------------------------------ *)

let find_slot t ~die ~x ~y ~w =
  let d = Design.die t.design die in
  let nrows = Array.length t.row_segments.(die) in
  if nrows = 0 then None
  else begin
    let r0 = Die.nearest_row d y in
    (* The best candidate so far; [best_sid] is -1 until there is one, and
       only a strictly smaller cost replaces it. *)
    let best_cost = ref 0 and best_sid = ref (-1) and best_x = ref 0 in
    let consider sid =
      let s = t.segments.(sid) in
      if s.s_hi - s.s_lo >= w then begin
        let cx = Int.max s.s_lo (Int.min (s.s_hi - w) x) in
        let cy = Die.row_y d s.s_row in
        let cost = abs (cx - x) + abs (cy - y) in
        if !best_sid < 0 || cost < !best_cost then begin
          best_cost := cost;
          best_sid := sid;
          best_x := cx
        end
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
          Int.min
            (if lo_ok then row_dist lo else max_int)
            (if hi_ok then row_dist hi else max_int)
        in
        if not (!best_sid >= 0 && min_d > !best_cost) then begin
          if lo_ok then Array.iter consider t.row_segments.(die).(lo);
          if hi_ok then Array.iter consider t.row_segments.(die).(hi);
          expand (k + 1)
        end
      end
    in
    expand 0;
    if !best_sid >= 0 then Some (!best_sid, !best_x) else None
  end

(* ------------------------------------------------------------------ *)
(* Mutation                                                            *)
(* ------------------------------------------------------------------ *)

(* A fragment change in [b] changes [b]'s contents and the cell's D_c(u),
   which every bin holding a fragment of the cell prices with: one fresh
   stamp for [b] and all of them. *)
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

(* [add_frag] where both of its searches would miss ([b] holds no
   fragment of the cell, and the cell's list has no entry for [b]): the
   same updates in the same order, without the searches. *)
let add_new_frag t b ~cell ~rho ~w =
  let dw = rho *. float_of_int w in
  b.frags <- { cell; rho } :: b.frags;
  b.used <- b.used +. dw;
  t.die_used.(b.die) <- t.die_used.(b.die) +. dw;
  t.cell_disp.(cell) <- stale;
  t.cell_frags.(cell) <- (b.id, rho) :: t.cell_frags.(cell);
  touch t b ~cell

let sub_frag t b ~cell ~rho ~w =
  touch t b ~cell;
  let dw = rho *. float_of_int w in
  (match List.find_opt (fun f -> f.cell = cell) b.frags with
  | Some f ->
    f.rho <- f.rho -. rho;
    if f.rho <= 1e-9 then b.frags <- List.filter (fun g -> g.cell <> cell) b.frags
  | None -> invalid_arg "Grid.sub_frag: cell not in bin");
  b.used <- Float.max 0. (b.used -. dw);
  t.die_used.(b.die) <- Float.max 0. (t.die_used.(b.die) -. dw);
  t.cell_disp.(cell) <- stale;
  let remaining =
    match List.assoc_opt b.id t.cell_frags.(cell) with
    | Some r -> r -. rho
    | None -> 0.
  in
  t.cell_frags.(cell) <-
    (if remaining <= 1e-9 then List.remove_assoc b.id t.cell_frags.(cell)
     else (b.id, remaining) :: List.remove_assoc b.id t.cell_frags.(cell))

(* A segment's bins are x-sorted and abut (see [build]), so the bins
   [x, x + w) overlaps are a run found by binary search: the first bin
   whose right edge is past [x], then on while bins start before
   [x + w].  These are the bins a walk over the whole segment would give
   a positive overlap, in the same order.  A cell with no fragments at
   all cannot be in any bin of the run yet, so it takes [add_new_frag]. *)
let distribute_in_segment t ~cell ~sid ~x =
  let s = t.segments.(sid) in
  let w = cell_width t ~cell ~die:s.s_die in
  let x = Int.max s.s_lo (Int.min (Int.max s.s_lo (s.s_hi - w)) x) in
  let x_end = x + w in
  let ids = s.s_bins and bins = t.bins in
  let nb = Array.length ids in
  let lo = ref 0 and hi = ref nb in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let b = bins.(ids.(mid)) in
    if b.x + b.width <= x then lo := mid + 1 else hi := mid
  done;
  let add = if t.cell_frags.(cell) = [] then add_new_frag else add_frag in
  let total = ref 0. in
  let i = ref !lo in
  while !i < nb && bins.(ids.(!i)).x < x_end do
    let b = bins.(ids.(!i)) in
    let ov = Int.min (b.x + b.width) x_end - Int.max b.x x in
    if ov > 0 then begin
      let rho = float_of_int ov /. float_of_int w in
      let rho = Float.min rho (1. -. !total) in
      if rho > 0. then begin
        add t b ~cell ~rho ~w;
        total := !total +. rho
      end
    end;
    incr i
  done;
  (* Any residue (cell wider than the segment) lands in the last bin,
     which may already hold part of the cell. *)
  if !total < 1. -. 1e-9 then begin
    let last = bins.(ids.(nb - 1)) in
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

type place_error = { pe_cell : int; pe_die : int }

let place_error_to_string e =
  Printf.sprintf "cell %d: no segment available on any die (requested die %d)"
    e.pe_cell e.pe_die

let place_cell t ~cell ~die ~x ~y =
  assert (t.cell_seg.(cell) = -1);
  let try_die d = find_slot t ~die:d ~x ~y ~w:(cell_width t ~cell ~die:d) in
  let slot =
    match try_die die with
    | Some _ as s -> s
    | None ->
      (* Nothing fits on the requested die: other dies, then the widest
         segment anywhere as a last resort. *)
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

let place_cell_exn t ~cell ~die ~x ~y =
  match place_cell t ~cell ~die ~x ~y with
  | Ok () -> ()
  | Error e -> invalid_arg ("Grid.place_cell: " ^ place_error_to_string e)

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

let assign_initial_exn t p =
  match assign_initial t p with
  | Ok () -> ()
  | Error e -> invalid_arg ("Grid.assign_initial: " ^ place_error_to_string e)

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
  Array.fill t.stamp 0 (Array.length t.stamp) (fresh_stamp ());
  Tdf_telemetry.incr "grid.resets"

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

let remove_cell t ~cell =
  let frags = t.cell_frags.(cell) in
  List.iter
    (fun (bid, rho) ->
      let b = t.bins.(bid) in
      sub_frag t b ~cell ~rho ~w:(cell_width t ~cell ~die:b.die))
    frags;
  t.cell_frags.(cell) <- [];
  t.cell_seg.(cell) <- -1;
  t.cell_disp.(cell) <- stale

let move_fraction t ~cell ~src ~dst ~rho =
  assert (src.seg = dst.seg);
  let w = cell_width t ~cell ~die:src.die in
  let avail =
    match List.find_opt (fun f -> f.cell = cell) src.frags with
    | Some f -> f.rho
    | None -> 0.
  in
  let rho = Float.min rho avail in
  if rho > 0. then begin
    sub_frag t src ~cell ~rho ~w;
    add_frag t dst ~cell ~rho ~w
  end

let move_whole t ~cell ~dst =
  remove_cell t ~cell;
  add_frag t dst ~cell ~rho:1.0 ~w:(cell_width t ~cell ~die:dst.die);
  t.cell_seg.(cell) <- dst.seg

let cell_bins t cell = List.map fst t.cell_frags.(cell)

(* Breadth-first ball around the seed bins over the full adjacency
   (horizontal, vertical and D2D edges alike): the flow search moves cells
   along exactly these edges, so a radius-k ball bounds where k relay hops
   can reach.  With [within], the walk never leaves the allowed set — the
   halo query of the tiled legalizer, where a tile's reach is additionally
   confined to an ECO dirty region. *)
let region ?within t ~seeds ~radius =
  let n = Array.length t.bins in
  let allowed bid =
    match within with None -> true | Some m -> m.(bid)
  in
  let dist = Array.make n (-1) in
  let q = Queue.create () in
  List.iter
    (fun bid ->
      if bid >= 0 && bid < n && dist.(bid) < 0 && allowed bid then begin
        dist.(bid) <- 0;
        Queue.add bid q
      end)
    seeds;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    if dist.(u) < radius then
      Array.iter
        (fun (e : edge) ->
          if dist.(e.dst) < 0 && allowed e.dst then begin
            dist.(e.dst) <- dist.(u) + 1;
            Queue.add e.dst q
          end)
        t.edges.(u)
  done;
  Array.map (fun d -> d >= 0) dist

let dirty_region t ~seeds ~radius = region t ~seeds ~radius

(* Deep copy of the mutable assignment state; the static structure
   (design, segments, adjacency, row index, die capacities) is shared.
   The copy and the original then evolve independently — the speculation
   substrate of the tiled legalizer.  The D_c(u) cache travels with the
   assignment it describes, so each copy invalidates its own entries. *)
let clone t =
  {
    t with
    bins =
      Array.map
        (fun b ->
          {
            b with
            frags = List.map (fun f -> { f with rho = f.rho }) b.frags;
          })
        t.bins;
    cell_frags = Array.copy t.cell_frags;
    cell_seg = Array.copy t.cell_seg;
    cell_disp = Array.copy t.cell_disp;
    die_used = Array.copy t.die_used;
    stamp = Array.copy t.stamp;
  }

(* Every cached D_c(u) and every order priced from the old anchors is
   stale once they change: all cells and all bins are invalidated. *)
let rebind t design =
  if
    Design.n_cells design <> Design.n_cells t.design
    || Design.n_dies design <> t.n_dies
  then invalid_arg "Grid.rebind: cell or die count differs";
  let gp_x, gp_y, weight, widths = geometry design in
  t.design <- design;
  t.gp_x <- gp_x;
  t.gp_y <- gp_y;
  t.weight <- weight;
  t.widths <- widths;
  Array.fill t.cell_disp 0 (Array.length t.cell_disp) stale;
  Array.fill t.stamp 0 (Array.length t.stamp) (fresh_stamp ())

let frag_rho_in t ~cell b =
  match List.assoc_opt b.id t.cell_frags.(cell) with Some r -> r | None -> 0.

let segment_of_cell t cell = t.cell_seg.(cell)

let cells_of_segment t sid =
  let s = t.segments.(sid) in
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun bid ->
      List.iter
        (fun f -> if not (Hashtbl.mem seen f.cell) then Hashtbl.add seen f.cell ())
        t.bins.(bid).frags)
    s.s_bins;
  Hashtbl.fold (fun c () acc -> c :: acc) seen []

(* ------------------------------------------------------------------ *)
(* Invariants (test hook)                                              *)
(* ------------------------------------------------------------------ *)

let check_invariants t =
  let eps = 1e-6 in
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let result = ref (Ok ()) in
  (* [distribute_in_segment]'s binary search needs each segment's bins to
     tile it left to right. *)
  Array.iter
    (fun s ->
      let edge = ref s.s_lo in
      Array.iter
        (fun bid ->
          let b = t.bins.(bid) in
          if !result = Ok () && (b.seg <> s.sid || b.x <> !edge || b.width <= 0)
          then
            result :=
              fail "segment %d: bin %d at x=%d width %d does not abut at %d" s.sid
                bid b.x b.width !edge;
          edge := b.x + b.width)
        s.s_bins;
      if !result = Ok () && !edge <> s.s_hi then
        result := fail "segment %d: bins end at %d, not at %d" s.sid !edge s.s_hi)
    t.segments;
  let ncells = Design.n_cells t.design in
  for cell = 0 to ncells - 1 do
    if !result = Ok () then begin
      let frags = t.cell_frags.(cell) in
      let total = List.fold_left (fun acc (_, r) -> acc +. r) 0. frags in
      if frags <> [] && Float.abs (total -. 1.) > eps then
        result := fail "cell %d total rho = %f" cell total;
      if frags = [] && t.cell_seg.(cell) <> -1 then
        result := fail "cell %d has no frags but segment %d" cell t.cell_seg.(cell);
      List.iter
        (fun (bid, _) ->
          if t.bins.(bid).seg <> t.cell_seg.(cell) then
            result :=
              fail "cell %d fragment in segment %d but registered in %d" cell
                t.bins.(bid).seg t.cell_seg.(cell))
        frags;
      let c = Design.cell t.design cell in
      if
        !result = Ok ()
        && (t.gp_x.(cell) <> c.Cell.gp_x
           || t.gp_y.(cell) <> c.Cell.gp_y
           || t.weight.(cell) <> c.Cell.weight
           || Array.sub t.widths (cell * t.n_dies) t.n_dies <> c.Cell.widths)
      then result := fail "cell %d geometry differs from the design's" cell;
      let cached = t.cell_disp.(cell) in
      if !result = Ok () && cached <> stale && cached <> compute_cur_disp t cell
      then
        result :=
          fail "cell %d cached D_c(u) = %d but its fragments give %d" cell cached
            (compute_cur_disp t cell)
    end
  done;
  Array.iter
    (fun b ->
      if !result = Ok () then begin
        let used =
          List.fold_left
            (fun acc f ->
              let c = Design.cell t.design f.cell in
              acc +. (f.rho *. float_of_int (Cell.width_on c b.die)))
            0. b.frags
        in
        if Float.abs (used -. b.used) > 1e-3 then
          result := fail "bin %d used=%f but frags sum to %f" b.id b.used used
      end)
    t.bins;
  !result
