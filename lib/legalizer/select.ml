module Grid = Tdf_grid.Grid
module Cell = Tdf_netlist.Cell
module Design = Tdf_netlist.Design

type pick = { p_cell : int; p_rho : float }

type selection = {
  picks : pick list;
  freed : float;
  inflow : float;
  sel_cost : float;
}

(* The part of a unit cost that depends only on the edge: 0, or on a D2D
   edge the fixed D2D cost plus the Eq. 7 term. *)
let edge_extra cfg grid ~(dst : Grid.bin) ~kind =
  match kind with
  | Grid.D2d ->
    let h_r =
      float_of_int
        (Design.die grid.Grid.design dst.Grid.die).Tdf_netlist.Die.row_height
    in
    (* Eq. 7 term, normalized from width units to distance units so it is
       commensurate with D_c: (sup − dem)/cap ∈ [−1, …] scaled by h_r. *)
    let congestion =
      (Grid.supply dst -. Grid.demand dst) /. float_of_int (max 1 (Grid.cap dst)) *. h_r
    in
    (cfg.Config.d2d_base_cost *. h_r) +. congestion
  | Grid.Horizontal | Grid.Vertical -> 0.

let unit_cost cfg grid ~cell ~dst ~kind =
  let cur_d = Grid.cur_disp grid cell in
  let weight = (Design.cell grid.Grid.design cell).Cell.weight in
  let base = weight *. float_of_int (Grid.est_disp grid ~cell dst - cur_d) in
  let c = base +. edge_extra cfg grid ~dst ~kind in
  if cfg.Config.allow_negative_cost then c else Float.max 0. c

(* The float results of one pick scan; see the interface. *)
type sums = {
  mutable s_freed : float;
  mutable s_inflow : float;
  mutable s_cost : float;
  mutable s_last : float;
}

let sums () = { s_freed = 0.; s_inflow = 0.; s_cost = 0.; s_last = 0. }

(* The rest of a scan's outcome, enough to rebuild its picks without
   scanning again: the first [taken] candidates in cost order, then
   candidate [swap] unless it is -1. *)
type taken = { mutable taken : int; mutable swap : int }

(* The candidates of one source bin, in flat arrays indexed by their
   position in the bin's fragment list: the cell, and the width its
   fraction holds in [src].  Writes them into [cell]/[held] (room for
   every fragment) and returns the held widths' total, summed in that
   order. *)
let fill_candidates grid (src : Grid.bin) cell held =
  let n = Grid.read_bin grid src.Grid.id ~cells:cell ~rhos:held in
  let nd = grid.Grid.n_dies and widths = grid.Grid.widths in
  for i = 0 to n - 1 do
    held.(i) <- held.(i) *. float_of_int widths.((cell.(i) * nd) + src.Grid.die)
  done;
  let total = ref 0. in
  for i = 0 to n - 1 do
    total := !total +. held.(i)
  done;
  !total

(* Every pick sheds at most what its fraction holds, so when the
   fractions together hold clearly less than [need] no pick sequence
   reaches it.  The 1e-6 margin dwarfs any difference between summing in
   this order and in cost order, so this only skips work the scan in
   [scan] would end in failure anyway. *)
let too_small total ~need = total < need -. 1e-6

(* [unit_cost] of the [n] candidates into [uc], with everything that
   depends only on the edge computed once: [edge_extra], the
   destination's geometry and the clamp.  Per candidate it reads the flat
   per-cell arrays and performs [unit_cost]'s float operations in its
   order. *)
let price cfg grid cell ~n ~(dst : Grid.bin) ~kind uc =
  let extra = edge_extra cfg grid ~dst ~kind in
  let clamp = not cfg.Config.allow_negative_cost in
  let nd = grid.Grid.n_dies and widths = grid.Grid.widths in
  let gp_x = grid.Grid.gp_x and gp_y = grid.Grid.gp_y in
  let weight = grid.Grid.weight and disp = grid.Grid.cell_disp in
  let bx = dst.Grid.x and bw = dst.Grid.width in
  let by = dst.Grid.y and bd = dst.Grid.die in
  for i = 0 to n - 1 do
    let c = cell.(i) in
    (* [Grid.cur_disp], read straight from its cache when fresh *)
    let cur = if disp.(c) >= 0 then disp.(c) else Grid.cur_disp grid c in
    (* [Grid.est_disp] *)
    let gx = gp_x.(c) in
    let xmax = Int.max bx (bx + bw - widths.((c * nd) + bd)) in
    let x = Int.max bx (Int.min xmax gx) in
    let est = abs (x - gx) + abs (by - gp_y.(c)) in
    let v = (weight.(c) *. float_of_int (est - cur)) +. extra in
    uc.(i) <- (if clamp then Float.max 0. v else v)
  done

(* [order.(0 .. n-1)] becomes the candidate indices sorted by unit cost:
   stdlib's [Array.sort] (a ternary heapsort) on [Array.init n Fun.id]
   with [fun i j -> Float.compare uc.(i) uc.(j)], specialised to that
   comparison.  Heapsort moves elements according to comparison outcomes
   alone and this copy makes the same comparisons in the same order, so it
   gives the same permutation, ties included.  [-1] from [maxson] stands
   for stdlib's [Bottom] exception. *)
let cmp uc i j = Float.compare uc.(i) uc.(j)

let maxson uc order l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if cmp uc order.(i31) order.(i31 + 1) < 0 then i31 + 1 else i31 in
    if cmp uc order.(x) order.(i31 + 2) < 0 then i31 + 2 else x
  end
  else if i31 + 1 < l && cmp uc order.(i31) order.(i31 + 1) < 0 then i31 + 1
  else if i31 < l then i31
  else -1

let rec trickledown uc order l i e =
  let j = maxson uc order l i in
  if j >= 0 && cmp uc order.(j) e > 0 then begin
    order.(i) <- order.(j);
    trickledown uc order l j e
  end
  else order.(i) <- e

let rec bubble uc order l i =
  let j = maxson uc order l i in
  if j < 0 then i
  else begin
    order.(i) <- order.(j);
    bubble uc order l j
  end

let rec trickleup uc order i e =
  let father = (i - 1) / 3 in
  if cmp uc order.(father) e < 0 then begin
    order.(i) <- order.(father);
    if father > 0 then trickleup uc order father e else order.(0) <- e
  end
  else order.(i) <- e

let sort_by_cost uc order n =
  for i = 0 to n - 1 do
    order.(i) <- i
  done;
  for i = ((n + 1) / 3) - 1 downto 0 do
    trickledown uc order n i order.(i)
  done;
  for i = n - 1 downto 2 do
    let e = order.(i) in
    order.(i) <- order.(0);
    trickleup uc order (bubble uc order i 0) e
  done;
  if n > 1 then begin
    let e = order.(1) in
    order.(1) <- order.(0);
    order.(0) <- e
  end

(* The pick scan: C(src, dst) from the [n] candidates in cost order
   ([order.(k)] for the k-th cheapest, unit costs in [uc]).  Writes what
   it took into [t] and the sums into [s], and tells whether the
   selection exists.  [sm] is scratch with room for [n] floats.
   Allocates nothing. *)
let scan grid cell held ~n ~uc ~order ~sm ~(src : Grid.bin)
    ~(dst : Grid.bin) ~kind ~need t s =
  let nd = grid.Grid.n_dies and widths = grid.Grid.widths in
  let freed = ref 0. and cost = ref 0. and k = ref 0 in
  t.swap <- -1;
  match kind with
  | Grid.Horizontal ->
    (* Fractional moves: stop exactly at [need]. *)
    let last = ref 0. in
    while (not (!freed >= need -. 1e-9)) && !k < n do
      let i = order.(!k) in
      let w_src = float_of_int widths.((cell.(i) * nd) + src.Grid.die) in
      let moved_w = Float.min held.(i) (need -. !freed) in
      let moved_rho = moved_w /. w_src in
      freed := !freed +. moved_w;
      cost := !cost +. (moved_rho *. uc.(i));
      last := moved_rho;
      incr k
    done;
    t.taken <- !k;
    s.s_freed <- need;
    s.s_inflow <- need;
    s.s_cost <- !cost;
    s.s_last <- !last;
    !freed >= need -. 1e-9
  | Grid.Vertical | Grid.D2d ->
    (* Whole-cell moves: the width freed in [src] is only the fragment
       living in [src]; the width arriving in [dst] is the full cell width
       on the destination die.  The last pick is swapped for a similar-cost
       better-fitting cell when possible: overshoot compounds along the
       path (flow(v) grows every whole-cell hop) and can strand the search
       in lightly-used regions. *)
    let h_r =
      float_of_int
        (Design.die grid.Grid.design src.Grid.die).Tdf_netlist.Die.row_height
    in
    (* sm.(k): the widest held width among candidates k.. in cost order.
       A better fit must hold at least the remainder, so none exists
       from k on when sm.(k) falls short of it. *)
    let widest = ref neg_infinity in
    for k' = n - 1 downto 0 do
      let h = held.(order.(k')) in
      if h > !widest then widest := h;
      sm.(k') <- !widest
    done;
    let swapped = ref false in
    while (not !swapped) && (not (!freed >= need -. 1e-9)) && !k < n do
      let i = order.(!k) in
      let remaining = need -. !freed in
      (* better fit: among the remaining candidates within one-row-height
         extra cost, the narrowest one that alone covers the remainder
         (the first such in cost order) *)
      let fit = ref (-1) in
      if sm.(!k) >= remaining -. 1e-9 then
        for k' = !k to n - 1 do
          let j = order.(k') in
          if
            uc.(j) <= uc.(i) +. h_r
            && held.(j) >= remaining -. 1e-9
            && not (!fit >= 0 && held.(!fit) <= held.(j))
          then fit := j
        done;
      let j = !fit in
      if j >= 0 && (held.(j) < held.(i) || uc.(j) <= uc.(i)) then begin
        t.swap <- j;
        freed := !freed +. held.(j);
        cost := !cost +. uc.(j);
        swapped := true
      end
      else begin
        freed := !freed +. held.(i);
        cost := !cost +. uc.(i);
        incr k
      end
    done;
    t.taken <- !k;
    if not (!swapped || !freed >= need -. 1e-9) then false
    else begin
      (* summed in pick order: the prefix, then the swapped-in cell *)
      let inflow = ref 0. in
      for m = 0 to !k - 1 do
        inflow :=
          !inflow +. float_of_int widths.((cell.(order.(m)) * nd) + dst.Grid.die)
      done;
      if t.swap >= 0 then
        inflow :=
          !inflow +. float_of_int widths.((cell.(t.swap) * nd) + dst.Grid.die);
      s.s_freed <- !freed;
      s.s_inflow <- !inflow;
      s.s_cost <- !cost;
      s.s_last <- 1.0;
      kind <> Grid.D2d
      ||
      Grid.util_ok grid ~die:dst.Grid.die ~inflow:!inflow
    end

(* The picks of a successful [scan].  A horizontal pick short of its
   whole fraction ends the scan (it brings [freed] to [need] up to a
   rounding error far below the 1e-9 margin), so every horizontal pick
   but the last moves what it holds; whole-cell picks move all of it. *)
let picks_of grid cell held ~order ~(src : Grid.bin) ~kind t s =
  let whole i = { p_cell = cell.(i); p_rho = 1.0 } in
  match kind with
  | Grid.Horizontal ->
    List.init t.taken (fun m ->
        let i = order.(m) in
        let w_src = Grid.cell_width grid ~cell:cell.(i) ~die:src.Grid.die in
        {
          p_cell = cell.(i);
          p_rho =
            (if m = t.taken - 1 then s.s_last
             else held.(i) /. float_of_int w_src);
        })
  | Grid.Vertical | Grid.D2d ->
    List.init t.taken (fun m -> whole order.(m))
    @ if t.swap >= 0 then [ whole t.swap ] else []

let nothing = { picks = []; freed = 0.; inflow = 0.; sel_cost = 0. }

(* Callers batch "flow3d.select.calls" counting (one flush per search /
   realization) — a per-call [Telemetry.incr] here would emit millions of
   counter events into trace sinks on full-size runs. *)
let select cfg grid ~src ~dst ~kind ~need =
  if need <= 0. then Some nothing
  else begin
    let n = Grid.n_frags grid src.Grid.id in
    let cell = Array.make n 0 and held = Array.make n 0. in
    let total = fill_candidates grid src cell held in
    if too_small total ~need then None
    else begin
      let uc = Array.make n 0. and order = Array.make n 0 in
      let sm = Array.make n 0. in
      price cfg grid cell ~n ~dst ~kind uc;
      sort_by_cost uc order n;
      let t = { taken = 0; swap = -1 } and s = sums () in
      if
        scan grid cell held ~n ~uc ~order ~sm ~src ~dst ~kind ~need t s
      then
        Some
          {
            picks = picks_of grid cell held ~order ~src ~kind t s;
            freed = s.s_freed;
            inflow = s.s_inflow;
            sel_cost = s.s_cost;
          }
      else None
    end
  end

(* ------------------------------------------------------------------ *)
(* Selection cache                                                     *)
(* ------------------------------------------------------------------ *)

(* A slot order is a byte permutation, so it indexes at most 256
   candidates; larger bins are sorted afresh on every call. *)
let max_cached = 256

(* The orders of one source bin's [ne] out-edges for its [n] current
   candidates live in one block: a filled flag per edge, then a
   destination stamp per edge (8 bytes, 0 unless D2D), then [n] order
   bytes per edge.  A block belongs to the candidates the table holds:
   a table refill clears every flag, and the block is only reallocated
   to grow. *)
let block_size ~ne ~n = ne * (9 + n)

let stamp_at ~ne edge = ne + (8 * edge)

let order_at ~ne ~n edge = (9 * ne) + (n * edge)

type cache = {
  tb_stamp : int array;  (** bin id → stamp its candidates were read at *)
  tb_n : int array;  (** bin id → number of candidates *)
  tb_cell : int array array;  (** bin id → candidate cells (room for more) *)
  tb_held : float array array;  (** bin id → held widths (room for more) *)
  tb_total : float array;  (** bin id → Σ held *)
  blocks : Bytes.t array;  (** bin id → its slot orders (see above) *)
  mutable uc : float array;  (** per-call unit costs, grown to fit *)
  mutable order : int array;  (** per-call order, grown to fit *)
  mutable sm : float array;  (** per-call suffix maxima for [scan] *)
  taken : taken;  (** per-call scan outcome *)
  mutable cfg : Config.t option;  (** configuration the orders assume *)
  mutable priced : int;
}

let create_cache grid =
  let nb = Grid.n_bins grid in
  {
    tb_stamp = Array.make nb 0;
    tb_n = Array.make nb 0;
    tb_cell = Array.make nb [||];
    tb_held = Array.make nb [||];
    tb_total = Array.make nb 0.;
    blocks = Array.make nb Bytes.empty;
    uc = Array.make max_cached 0.;
    order = Array.make max_cached 0;
    sm = Array.make max_cached 0.;
    taken = { taken = 0; swap = -1 };
    cfg = None;
    priced = 0;
  }

let priced c = c.priced

let load c cfg grid ~(src : Grid.bin) ~need =
  need <= 0.
  || begin
    (match c.cfg with
    | Some cfg' when cfg' == cfg -> ()
    | Some _ | None ->
      (* every order is stale: refill every table, which clears its block *)
      Array.fill c.tb_stamp 0 (Array.length c.tb_stamp) 0;
      c.cfg <- Some cfg);
    let b = src.Grid.id in
    let stamp = grid.Grid.stamp.(b) in
    if c.tb_stamp.(b) <> stamp then begin
      (* refilled in place, so a table is reallocated only to grow *)
      let n = Grid.n_frags grid src.Grid.id in
      if Array.length c.tb_cell.(b) < n then begin
        c.tb_cell.(b) <- Array.make n 0;
        c.tb_held.(b) <- Array.make n 0.
      end;
      c.tb_n.(b) <- n;
      c.tb_total.(b) <- fill_candidates grid src c.tb_cell.(b) c.tb_held.(b);
      c.tb_stamp.(b) <- stamp;
      if Bytes.length c.blocks.(b) > 0 then
        Bytes.fill c.blocks.(b) 0 (Array.length grid.Grid.edges.(b)) '\000'
    end;
    not (too_small c.tb_total.(b) ~need)
  end

let select_cost c cfg grid ~(src : Grid.bin) ~edge ~need s =
  if need <= 0. then begin
    s.s_freed <- 0.;
    s.s_inflow <- 0.;
    s.s_cost <- 0.;
    s.s_last <- 0.;
    true
  end
  else begin
    let b = src.Grid.id in
    (match c.cfg with
    | Some cfg' when cfg' == cfg && c.tb_stamp.(b) = grid.Grid.stamp.(b) -> ()
    | Some _ | None -> invalid_arg "Select.select_cost: source bin not loaded");
    let edges = grid.Grid.edges.(b) in
    let ne = Array.length edges in
    let e = edges.(edge) in
    let dst = grid.Grid.bins.(e.Grid.dst) and kind = e.Grid.kind in
    let cell = c.tb_cell.(b) and held = c.tb_held.(b) and n = c.tb_n.(b) in
    if Array.length c.uc < n then begin
      c.uc <- Array.make n 0.;
      c.order <- Array.make n 0;
      c.sm <- Array.make n 0.
    end;
    let uc = c.uc and order = c.order in
    price cfg grid cell ~n ~dst ~kind uc;
    if n > max_cached then begin
      c.priced <- c.priced + 1;
      sort_by_cost uc order n
    end
    else begin
      (* A block too small for [n] was cleared at the table refill that
         grew [n], so a fresh one loses no filled slot. *)
      if Bytes.length c.blocks.(b) < block_size ~ne ~n then
        c.blocks.(b) <- Bytes.make (block_size ~ne ~n) '\000';
      let blk = c.blocks.(b) in
      (* The order reads D_c(u) of the source's cells, which the table's
         stamp covers, and through the Eq. 7 term the destination's
         [used], which the destination stamp covers. *)
      let dst_stamp =
        match kind with
        | Grid.D2d -> grid.Grid.stamp.(dst.Grid.id)
        | Grid.Horizontal | Grid.Vertical -> 0
      in
      let at = order_at ~ne ~n edge in
      if
        Bytes.get blk edge <> '\000'
        && Int64.to_int (Bytes.get_int64_ne blk (stamp_at ~ne edge)) = dst_stamp
      then
        for k = 0 to n - 1 do
          order.(k) <- Char.code (Bytes.get blk (at + k))
        done
      else begin
        c.priced <- c.priced + 1;
        sort_by_cost uc order n;
        for k = 0 to n - 1 do
          Bytes.set blk (at + k) (Char.chr order.(k))
        done;
        Bytes.set blk edge '\001';
        Bytes.set_int64_ne blk (stamp_at ~ne edge) (Int64.of_int dst_stamp)
      end
    end;
    scan grid cell held ~n ~uc ~order ~sm:c.sm ~src ~dst ~kind ~need c.taken s
  end
