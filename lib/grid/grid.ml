module Interval = Tdf_geometry.Interval
module Rect = Tdf_geometry.Rect
module Design = Tdf_netlist.Design
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Blockage = Tdf_netlist.Blockage
module Placement = Tdf_netlist.Placement

type edge_kind = Horizontal | Vertical | D2d

type edge = { dst : int; kind : edge_kind }

type bin = {
  id : int;
  die : int;
  row : int;
  seg : int;
  x : int;
  y : int;
  width : int;
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

(* The fractional assignment Γ(v) as one index arena.  Fragment [f] is
   the pair ([f_cell.(f)], [f_bin.(f)]) holding [f_rho.(f)] of the cell;
   a (cell, bin) pair has at most one fragment.  Every fragment sits on
   two singly linked lists at once: its bin's ([bin_head], [f_bnext]),
   newest first, and its cell's ([cell_head], [f_cnext]), most recently
   touched first.  Released slots are chained through [f_bnext] from
   [free]; slots from [top] on were never handed out since the last
   reset. *)
type arena = {
  mutable f_cell : int array;
  mutable f_bin : int array;
  mutable f_rho : float array;
  mutable f_bnext : int array;
  mutable f_cnext : int array;
  mutable top : int;
  mutable free : int;
  bin_head : int array;
  bin_n : int array;
  cell_head : int array;
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
  frags : arena;
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
   one: a selection cache handed a second grid must not see two different
   bin states under one stamp.  0 is never drawn. *)
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

(* ------------------------------------------------------------------ *)
(* Fragment arena                                                      *)
(* ------------------------------------------------------------------ *)

let arena ~n_bins ~n_cells =
  {
    f_cell = [||];
    f_bin = [||];
    f_rho = [||];
    f_bnext = [||];
    f_cnext = [||];
    top = 0;
    free = -1;
    bin_head = Array.make n_bins (-1);
    bin_n = Array.make n_bins 0;
    cell_head = Array.make n_cells (-1);
  }

let grow a =
  let cap = Int.max 64 (2 * Array.length a.f_cell) in
  let ext arr fill =
    let arr' = Array.make cap fill in
    Array.blit arr 0 arr' 0 a.top;
    arr'
  in
  a.f_cell <- ext a.f_cell 0;
  a.f_bin <- ext a.f_bin 0;
  a.f_rho <- ext a.f_rho 0.;
  a.f_bnext <- ext a.f_bnext (-1);
  a.f_cnext <- ext a.f_cnext (-1)

(* A new fragment at the head of both its lists. *)
let alloc a ~cell ~bin ~rho =
  let f =
    if a.free >= 0 then begin
      let f = a.free in
      a.free <- a.f_bnext.(f);
      f
    end
    else begin
      if a.top = Array.length a.f_cell then grow a;
      let f = a.top in
      a.top <- f + 1;
      f
    end
  in
  a.f_cell.(f) <- cell;
  a.f_bin.(f) <- bin;
  a.f_rho.(f) <- rho;
  a.f_bnext.(f) <- a.bin_head.(bin);
  a.bin_head.(bin) <- f;
  a.bin_n.(bin) <- a.bin_n.(bin) + 1;
  a.f_cnext.(f) <- a.cell_head.(cell);
  a.cell_head.(cell) <- f

(* The fragment of [cell] in bin [bin], or -1. *)
let find a ~cell ~bin =
  let f = ref a.cell_head.(cell) in
  while !f >= 0 && a.f_bin.(!f) <> bin do
    f := a.f_cnext.(!f)
  done;
  !f

let unlink_cell a f =
  let cell = a.f_cell.(f) in
  let g = a.cell_head.(cell) in
  if g = f then a.cell_head.(cell) <- a.f_cnext.(f)
  else begin
    let g = ref g in
    while a.f_cnext.(!g) <> f do
      g := a.f_cnext.(!g)
    done;
    a.f_cnext.(!g) <- a.f_cnext.(f)
  end

let to_cell_front a f =
  let cell = a.f_cell.(f) in
  if a.cell_head.(cell) <> f then begin
    unlink_cell a f;
    a.f_cnext.(f) <- a.cell_head.(cell);
    a.cell_head.(cell) <- f
  end

(* Off both lists, the rest of each keeping its order, onto the free
   list. *)
let release a f =
  let bin = a.f_bin.(f) in
  let g = a.bin_head.(bin) in
  if g = f then a.bin_head.(bin) <- a.f_bnext.(f)
  else begin
    let g = ref g in
    while a.f_bnext.(!g) <> f do
      g := a.f_bnext.(!g)
    done;
    a.f_bnext.(!g) <- a.f_bnext.(f)
  end;
  a.bin_n.(bin) <- a.bin_n.(bin) - 1;
  unlink_cell a f;
  a.f_bnext.(f) <- a.free;
  a.free <- f

let clear a =
  Array.fill a.bin_head 0 (Array.length a.bin_head) (-1);
  Array.fill a.bin_n 0 (Array.length a.bin_n) 0;
  Array.fill a.cell_head 0 (Array.length a.cell_head) (-1);
  a.top <- 0;
  a.free <- -1

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
                              width = w; used = 0. }
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
    frags = arena ~n_bins:(Array.length bins) ~n_cells:(Design.n_cells design);
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

let has_room b w = demand b >= float_of_int w

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

(* Fragment cursors: a bin's fragments newest first, a cell's most
   recently touched first; -1 ends either walk. *)
let first_in_bin t bid = t.frags.bin_head.(bid)

let next_in_bin t f = t.frags.f_bnext.(f)

let first_of_cell t cell = t.frags.cell_head.(cell)

let next_of_cell t f = t.frags.f_cnext.(f)

let frag_cell t f = t.frags.f_cell.(f)

let frag_bin t f = t.frags.f_bin.(f)

let frag_rho t f = t.frags.f_rho.(f)

let n_frags t bid = t.frags.bin_n.(bid)

let read_bin t bid ~cells ~rhos =
  let a = t.frags in
  let n = ref 0 and f = ref a.bin_head.(bid) in
  while !f >= 0 do
    cells.(!n) <- a.f_cell.(!f);
    rhos.(!n) <- a.f_rho.(!f);
    incr n;
    f := a.f_bnext.(!f)
  done;
  !n

(* D_c(u) from scratch.  All fragments of a cell share one segment, so the
   die and row read off the first one hold for all; only the x span of the
   fragment bins varies. *)
let compute_cur_disp t cell =
  let a = t.frags in
  let f0 = a.cell_head.(cell) in
  if f0 < 0 then 0
  else begin
    let b0 = t.bins.(a.f_bin.(f0)) in
    let w = cell_width t ~cell ~die:b0.die in
    let gx = t.gp_x.(cell) in
    let lo = ref max_int and hi = ref min_int in
    let f = ref f0 in
    while !f >= 0 do
      let b = t.bins.(a.f_bin.(!f)) in
      lo := Int.min !lo b.x;
      hi := Int.max !hi (b.x + b.width);
      f := a.f_cnext.(!f)
    done;
    let xmax = Int.max !lo (!hi - w) in
    let x = Int.max !lo (Int.min xmax gx) in
    abs (x - gx) + abs (b0.y - t.gp_y.(cell))
  end

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

(* The segment of [find_slot], or -1.  Rows are visited outward from the
   nearest one, the lower row of a pair first; the best candidate so far
   is replaced only by a strictly smaller cost, and the walk stops once a
   row's y distance alone exceeds it. *)
let best_segment t ~die ~x ~y ~w =
  let d = Design.die t.design die in
  let rows = t.row_segments.(die) in
  let nrows = Array.length rows in
  if nrows = 0 then -1
  else begin
    let r0 = Die.nearest_row d y in
    let best_cost = ref 0 and best_sid = ref (-1) in
    let k = ref 0 and go = ref true in
    while !go do
      let lo = r0 - !k and hi = r0 + !k in
      let lo_ok = lo >= 0 and hi_ok = hi < nrows && !k > 0 in
      if (not lo_ok) && not hi_ok then go := false
      else begin
        let min_d =
          Int.min
            (if lo_ok then abs (Die.row_y d lo - y) else max_int)
            (if hi_ok then abs (Die.row_y d hi - y) else max_int)
        in
        if !best_sid >= 0 && min_d > !best_cost then go := false
        else begin
          for side = 0 to 1 do
            if (side = 0 && lo_ok) || (side = 1 && hi_ok) then begin
              let sids = rows.(if side = 0 then lo else hi) in
              for i = 0 to Array.length sids - 1 do
                let s = t.segments.(sids.(i)) in
                if s.s_hi - s.s_lo >= w then begin
                  let cx = Int.max s.s_lo (Int.min (s.s_hi - w) x) in
                  let cost = abs (cx - x) + abs (Die.row_y d s.s_row - y) in
                  if !best_sid < 0 || cost < !best_cost then begin
                    best_cost := cost;
                    best_sid := s.sid
                  end
                end
              done
            end
          done;
          incr k
        end
      end
    done;
    !best_sid
  end

(* Where a width-[w] cell placed at [x] sits in segment [sid]. *)
let slot_x t ~sid ~x ~w =
  let s = t.segments.(sid) in
  Int.max s.s_lo (Int.min (s.s_hi - w) x)

let find_slot t ~die ~x ~y ~w =
  let sid = best_segment t ~die ~x ~y ~w in
  if sid < 0 then None else Some (sid, slot_x t ~sid ~x ~w)

(* ------------------------------------------------------------------ *)
(* Mutation                                                            *)
(* ------------------------------------------------------------------ *)

(* A fragment change in [b] changes [b]'s contents and the cell's D_c(u),
   which every bin holding a fragment of the cell prices with: one fresh
   stamp for [b] and all of them. *)
let touch t b ~cell =
  let s = fresh_stamp () in
  t.stamp.(b.id) <- s;
  let a = t.frags in
  let f = ref a.cell_head.(cell) in
  while !f >= 0 do
    t.stamp.(a.f_bin.(!f)) <- s;
    f := a.f_cnext.(!f)
  done

(* An existing fragment keeps its place in the bin's list and moves to
   the front of the cell's; a new one heads both. *)
let add_frag t b ~cell ~rho ~w =
  let dw = rho *. float_of_int w in
  let a = t.frags in
  let f = find a ~cell ~bin:b.id in
  if f >= 0 then begin
    a.f_rho.(f) <- a.f_rho.(f) +. rho;
    to_cell_front a f
  end
  else alloc a ~cell ~bin:b.id ~rho;
  b.used <- b.used +. dw;
  t.die_used.(b.die) <- t.die_used.(b.die) +. dw;
  t.cell_disp.(cell) <- stale;
  touch t b ~cell

(* A fragment left with at most 1e-9 of the cell leaves both lists;
   otherwise it keeps its place in the bin's list and moves to the front
   of the cell's. *)
let sub_frag t b ~cell ~rho ~w =
  touch t b ~cell;
  let dw = rho *. float_of_int w in
  let a = t.frags in
  let f = find a ~cell ~bin:b.id in
  if f < 0 then invalid_arg "Grid.sub_frag: cell not in bin";
  let left = a.f_rho.(f) -. rho in
  b.used <- Float.max 0. (b.used -. dw);
  t.die_used.(b.die) <- Float.max 0. (t.die_used.(b.die) -. dw);
  t.cell_disp.(cell) <- stale;
  if left <= 1e-9 then release a f
  else begin
    a.f_rho.(f) <- left;
    to_cell_front a f
  end

(* A segment's bins are x-sorted and abut (see [build]), so the bins
   [x, x + w) overlaps are a run found by binary search: the first bin
   whose right edge is past [x], then on while bins start before
   [x + w].  These are the bins a walk over the whole segment would give
   a positive overlap, in the same order. *)
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
  let total = ref 0. in
  let i = ref !lo in
  while !i < nb && bins.(ids.(!i)).x < x_end do
    let b = bins.(ids.(!i)) in
    let ov = Int.min (b.x + b.width) x_end - Int.max b.x x in
    if ov > 0 then begin
      let rho = float_of_int ov /. float_of_int w in
      let rho = Float.min rho (1. -. !total) in
      if rho > 0. then begin
        add_frag t b ~cell ~rho ~w;
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
  let sid = ref (best_segment t ~die ~x ~y ~w:(cell_width t ~cell ~die)) in
  (* Nothing fits on the requested die: the other dies in order, then the
     widest segment of the requested die as a last resort. *)
  let d = ref 0 and nd = Design.n_dies t.design in
  while !sid < 0 && !d < nd do
    if !d <> die then
      sid := best_segment t ~die:!d ~x ~y ~w:(cell_width t ~cell ~die:!d);
    incr d
  done;
  if !sid >= 0 then begin
    let sid = !sid in
    let w = cell_width t ~cell ~die:t.segments.(sid).s_die in
    distribute_in_segment t ~cell ~sid ~x:(slot_x t ~sid ~x ~w);
    Ok ()
  end
  else
    match widest_segment t die with
    | Some sid ->
      Ok (distribute_in_segment t ~cell ~sid ~x:(Int.max t.segments.(sid).s_lo x))
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
  Array.iter (fun b -> b.used <- 0.) t.bins;
  clear t.frags;
  let nc = Array.length t.cell_seg in
  Array.fill t.cell_seg 0 nc (-1);
  Array.fill t.cell_disp 0 nc stale;
  Array.fill t.die_used 0 (Array.length t.die_used) 0.;
  Array.fill t.stamp 0 (Array.length t.stamp) (fresh_stamp ());
  Tdf_telemetry.incr "grid.resets"

let reset_to t p =
  reset t;
  assign_initial t p

(* The cell's fragments in list order, each subtracted whole, so [used]
   and [die_used] drop in that order. *)
let remove_cell t ~cell =
  let a = t.frags in
  let f = ref a.cell_head.(cell) in
  while !f >= 0 do
    let next = a.f_cnext.(!f) in
    let b = t.bins.(a.f_bin.(!f)) in
    sub_frag t b ~cell ~rho:a.f_rho.(!f) ~w:(cell_width t ~cell ~die:b.die);
    f := next
  done;
  t.cell_seg.(cell) <- -1;
  t.cell_disp.(cell) <- stale

let frag_rho_in t ~cell b =
  let f = find t.frags ~cell ~bin:b.id in
  if f >= 0 then t.frags.f_rho.(f) else 0.

let move_fraction t ~cell ~src ~dst ~rho =
  assert (src.seg = dst.seg);
  let w = cell_width t ~cell ~die:src.die in
  let rho = Float.min rho (frag_rho_in t ~cell src) in
  if rho > 0. then begin
    sub_frag t src ~cell ~rho ~w;
    add_frag t dst ~cell ~rho ~w
  end

let move_whole t ~cell ~dst =
  remove_cell t ~cell;
  add_frag t dst ~cell ~rho:1.0 ~w:(cell_width t ~cell ~die:dst.die);
  t.cell_seg.(cell) <- dst.seg

let cell_bins t cell =
  let a = t.frags in
  let rec go f = if f < 0 then [] else a.f_bin.(f) :: go a.f_cnext.(f) in
  go a.cell_head.(cell)

(* Breadth-first ball around the seed bins over the full adjacency
   (horizontal, vertical and D2D edges alike): the flow search moves cells
   along exactly these edges, so a radius-k ball bounds where k relay hops
   can reach. *)
let dirty_region t ~seeds ~radius =
  let n = Array.length t.bins in
  let dist = Array.make n (-1) in
  let q = Queue.create () in
  List.iter
    (fun bid ->
      if bid >= 0 && bid < n && dist.(bid) < 0 then begin
        dist.(bid) <- 0;
        Queue.add bid q
      end)
    seeds;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    if dist.(u) < radius then
      Array.iter
        (fun (e : edge) ->
          if dist.(e.dst) < 0 then begin
            dist.(e.dst) <- dist.(u) + 1;
            Queue.add e.dst q
          end)
        t.edges.(u)
  done;
  Array.map (fun d -> d >= 0) dist

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

let segment_of_cell t cell = t.cell_seg.(cell)

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
  let a = t.frags in
  let ncells = Design.n_cells t.design in
  (* Every fragment on both lists exactly once: a cell's list holds only
     its own fragments, in distinct bins, and its bin's list holds each. *)
  let on_cell_list = ref 0 in
  for cell = 0 to ncells - 1 do
    let f = ref a.cell_head.(cell) in
    while !result = Ok () && !f >= 0 do
      incr on_cell_list;
      let bin = a.f_bin.(!f) in
      if a.f_cell.(!f) <> cell then
        result := fail "fragment %d of cell %d is on cell %d's list" !f a.f_cell.(!f) cell
      else if find a ~cell ~bin <> !f then
        result := fail "cell %d has two fragments in bin %d" cell bin
      else begin
        let g = ref a.bin_head.(bin) in
        while !g >= 0 && !g <> !f do
          g := a.f_bnext.(!g)
        done;
        if !g < 0 then
          result := fail "fragment of cell %d missing from bin %d's list" cell bin
      end;
      f := a.f_cnext.(!f)
    done
  done;
  let on_bin_list = ref 0 in
  Array.iter
    (fun b ->
      let n = ref 0 and f = ref a.bin_head.(b.id) in
      while !f >= 0 do
        incr n;
        if !result = Ok () && a.f_bin.(!f) <> b.id then
          result := fail "fragment %d of bin %d is on bin %d's list" !f a.f_bin.(!f) b.id;
        f := a.f_bnext.(!f)
      done;
      on_bin_list := !on_bin_list + !n;
      if !result = Ok () && !n <> a.bin_n.(b.id) then
        result := fail "bin %d holds %d fragments but counts %d" b.id !n a.bin_n.(b.id))
    t.bins;
  if !result = Ok () && !on_bin_list <> !on_cell_list then
    result :=
      fail "%d fragments on bin lists but %d on cell lists" !on_bin_list
        !on_cell_list;
  for cell = 0 to ncells - 1 do
    if !result = Ok () then begin
      let total = ref 0. and f = ref a.cell_head.(cell) in
      while !f >= 0 do
        total := !total +. a.f_rho.(!f);
        if t.bins.(a.f_bin.(!f)).seg <> t.cell_seg.(cell) then
          result :=
            fail "cell %d fragment in segment %d but registered in %d" cell
              t.bins.(a.f_bin.(!f)).seg t.cell_seg.(cell);
        f := a.f_cnext.(!f)
      done;
      let assigned = a.cell_head.(cell) >= 0 in
      if assigned && Float.abs (!total -. 1.) > eps then
        result := fail "cell %d total rho = %f" cell !total;
      if (not assigned) && t.cell_seg.(cell) <> -1 then
        result := fail "cell %d has no frags but segment %d" cell t.cell_seg.(cell);
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
        let used = ref 0. and f = ref a.bin_head.(b.id) in
        while !f >= 0 do
          let c = Design.cell t.design a.f_cell.(!f) in
          used := !used +. (a.f_rho.(!f) *. float_of_int (Cell.width_on c b.die));
          f := a.f_bnext.(!f)
        done;
        if Float.abs (!used -. b.used) > 1e-3 then
          result := fail "bin %d used=%f but frags sum to %f" b.id b.used !used
      end)
    t.bins;
  !result
