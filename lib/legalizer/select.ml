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

let unit_cost cfg grid ~cell ~dst ~kind =
  let cur_d = Grid.cur_disp grid cell in
  let weight = (Design.cell grid.Grid.design cell).Cell.weight in
  let base = weight *. float_of_int (Grid.est_disp grid ~cell dst - cur_d) in
  let extra =
    match kind with
    | Grid.D2d ->
      let h_r =
        float_of_int
          (Tdf_netlist.Design.die grid.Grid.design dst.Grid.die)
            .Tdf_netlist.Die.row_height
      in
      (* Eq. 7 term, normalized from width units to distance units so it is
         commensurate with D_c: (sup − dem)/cap ∈ [−1, …] scaled by h_r. *)
      let congestion =
        if cfg.Config.d2d_penalty then
          (Grid.supply dst -. Grid.demand dst)
          /. float_of_int (max 1 (Grid.cap dst))
          *. h_r
        else 0.
      in
      (cfg.Config.d2d_base_cost *. h_r) +. congestion
    | Grid.Horizontal | Grid.Vertical -> 0.
  in
  let c = base +. extra in
  if cfg.Config.allow_negative_cost then c else Float.max 0. c

(* The candidates of one source bin, in flat arrays indexed by their
   position in [src.frags]: the cell, and the width its fraction holds in
   [src].  Writes them into [cell]/[held] (room for every fragment) and
   returns the held widths' total, summed in that order. *)
let fill_candidates design (src : Grid.bin) cell held =
  let total = ref 0. in
  List.iteri
    (fun i (f : Grid.frag) ->
      let w =
        float_of_int (Cell.width_on (Design.cell design f.Grid.cell) src.Grid.die)
      in
      cell.(i) <- f.Grid.cell;
      held.(i) <- f.Grid.rho *. w;
      total := !total +. held.(i))
    src.Grid.frags;
  !total

(* Every pick sheds at most what its fraction holds, so when the
   fractions together hold clearly less than [need] no pick sequence
   reaches it.  The 1e-6 margin dwarfs any difference between summing in
   this order and in cost order, so this only skips work the scan in
   [pick] would end in [None] anyway. *)
let too_small total ~need = total < need -. 1e-6

let price cfg grid cell ~n ~dst ~kind uc =
  for i = 0 to n - 1 do
    uc.(i) <- unit_cost cfg grid ~cell:cell.(i) ~dst ~kind
  done

(* The candidate indices heap-sorted by unit cost with [Array.sort]:
   heapsort moves elements according to comparison outcomes alone, so this
   is the permutation sorting (cell, rho, cost) tuples would produce, and
   equal costs always give the same permutation. *)
let sorted_order uc n =
  let order = Array.init n Fun.id in
  Array.sort (fun i j -> Float.compare uc.(i) uc.(j)) order;
  order

(* C(src, dst) from the [n] candidates in cost order ([order.(k)] for the
   k-th cheapest, unit costs in [uc]). *)
let pick ?util_probe grid cell held ~n ~uc ~order ~src ~dst ~kind ~need =
  let design = grid.Grid.design in
  match kind with
  | Grid.Horizontal ->
    (* Fractional moves: stop exactly at [need]. *)
    let rec take k acc freed cost =
      if freed >= need -. 1e-9 then Some (List.rev acc, need, cost)
      else if k = n then None
      else begin
        let i = order.(k) in
        let w_src =
          float_of_int (Cell.width_on (Design.cell design cell.(i)) src.Grid.die)
        in
        let moved_w = Float.min held.(i) (need -. freed) in
        let moved_rho = moved_w /. w_src in
        take (k + 1)
          ({ p_cell = cell.(i); p_rho = moved_rho } :: acc)
          (freed +. moved_w)
          (cost +. (moved_rho *. uc.(i)))
      end
    in
    (match take 0 [] 0. 0. with
    | None -> None
    | Some (picks, freed, cost) ->
      Some { picks; freed; inflow = freed; sel_cost = cost })
  | Grid.Vertical | Grid.D2d ->
    (* Whole-cell moves: the width freed in [src] is only the fragment
       living in [src]; the width arriving in [dst] is the full cell width
       on the destination die.  The last pick is swapped for a similar-cost
       better-fitting cell when possible: overshoot compounds along the
       path (flow(v) grows every whole-cell hop) and can strand the search
       in lightly-used regions. *)
    let h_r =
      float_of_int (Design.die design src.Grid.die).Tdf_netlist.Die.row_height
    in
    let rec take k acc freed cost =
      if freed >= need -. 1e-9 then Some (List.rev acc, freed, cost)
      else if k = n then None
      else begin
        let i = order.(k) in
        let remaining = need -. freed in
        (* better fit: among the remaining candidates within one-row-height
           extra cost, the narrowest one that alone covers the remainder
           (the first such in cost order) *)
        let fit = ref (-1) in
        for k' = k to n - 1 do
          let j = order.(k') in
          if
            uc.(j) <= uc.(i) +. h_r
            && held.(j) >= remaining -. 1e-9
            && not (!fit >= 0 && held.(!fit) <= held.(j))
          then fit := j
        done;
        let j = !fit in
        if j >= 0 && (held.(j) < held.(i) || uc.(j) <= uc.(i)) then
          Some
            ( List.rev ({ p_cell = cell.(j); p_rho = 1.0 } :: acc),
              freed +. held.(j),
              cost +. uc.(j) )
        else
          take (k + 1)
            ({ p_cell = cell.(i); p_rho = 1.0 } :: acc)
            (freed +. held.(i))
            (cost +. uc.(i))
      end
    in
    (match take 0 [] 0. 0. with
    | None -> None
    | Some (picks, freed, cost) ->
      let inflow =
        List.fold_left
          (fun acc p ->
            acc
            +. float_of_int
                 (Cell.width_on (Design.cell design p.p_cell) dst.Grid.die))
          0. picks
      in
      let util_ok =
        kind <> Grid.D2d
        ||
        let d = dst.Grid.die in
        let ok = Grid.util_ok grid ~die:d ~inflow in
        (match util_probe with
        | Some f -> f ~die:d ~inflow ~ok
        | None -> ());
        ok
      in
      if util_ok then Some { picks; freed; inflow; sel_cost = cost } else None)

let nothing = { picks = []; freed = 0.; inflow = 0.; sel_cost = 0. }

(* Pricing from scratch: unit costs and their order for this one call. *)
let price_and_pick ?util_probe cfg grid cell held ~n ~src ~dst ~kind ~need =
  let uc = Array.make n 0. in
  price cfg grid cell ~n ~dst ~kind uc;
  pick ?util_probe grid cell held ~n ~uc ~order:(sorted_order uc n) ~src ~dst
    ~kind ~need

(* Callers batch "flow3d.select.calls" counting (one flush per search /
   realization) — a per-call [Telemetry.incr] here would emit millions of
   counter events into trace sinks on full-size runs. *)
let select ?util_probe cfg grid ~src ~dst ~kind ~need =
  if need <= 0. then Some nothing
  else begin
    let n = List.length src.Grid.frags in
    let cell = Array.make n 0 and held = Array.make n 0. in
    let total = fill_candidates grid.Grid.design src cell held in
    if too_small total ~need then None
    else price_and_pick ?util_probe cfg grid cell held ~n ~src ~dst ~kind ~need
  end

(* ------------------------------------------------------------------ *)
(* Selection cache                                                     *)
(* ------------------------------------------------------------------ *)

(* A slot order is a byte permutation, so it indexes at most 256
   candidates; larger bins are priced from scratch on every call. *)
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
  uc : float array;  (** per-call unit costs *)
  order : int array;  (** per-call decoded order *)
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
    cfg = None;
    priced = 0;
  }

let priced c = c.priced

let select_cached ?util_probe c cfg grid ~src ~edge ~need =
  let b = src.Grid.id in
  let ne = Array.length grid.Grid.edges.(b) in
  let e = grid.Grid.edges.(b).(edge) in
  let dst = grid.Grid.bins.(e.Grid.dst) and kind = e.Grid.kind in
  if need <= 0. then Some nothing
  else begin
    (match c.cfg with
    | Some cfg' when cfg' == cfg -> ()
    | Some _ | None ->
      (* every order is stale: refill every table, which clears its block *)
      Array.fill c.tb_stamp 0 (Array.length c.tb_stamp) 0;
      c.cfg <- Some cfg);
    let stamp = grid.Grid.stamp.(b) in
    if c.tb_stamp.(b) <> stamp then begin
      (* refilled in place, so a table is reallocated only to grow *)
      let n = List.length src.Grid.frags in
      if Array.length c.tb_cell.(b) < n then begin
        c.tb_cell.(b) <- Array.make n 0;
        c.tb_held.(b) <- Array.make n 0.
      end;
      c.tb_n.(b) <- n;
      c.tb_total.(b) <-
        fill_candidates grid.Grid.design src c.tb_cell.(b) c.tb_held.(b);
      c.tb_stamp.(b) <- stamp;
      if Bytes.length c.blocks.(b) > 0 then Bytes.fill c.blocks.(b) 0 ne '\000'
    end;
    let cell = c.tb_cell.(b) and held = c.tb_held.(b) and n = c.tb_n.(b) in
    if too_small c.tb_total.(b) ~need then None
    else if n > max_cached then begin
      c.priced <- c.priced + 1;
      price_and_pick ?util_probe cfg grid cell held ~n ~src ~dst ~kind ~need
    end
    else begin
      let uc = c.uc and order = c.order in
      price cfg grid cell ~n ~dst ~kind uc;
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
        let sorted = sorted_order uc n in
        for k = 0 to n - 1 do
          Bytes.set blk (at + k) (Char.chr sorted.(k));
          order.(k) <- sorted.(k)
        done;
        Bytes.set blk edge '\001';
        Bytes.set_int64_ne blk (stamp_at ~ne edge) (Int64.of_int dst_stamp)
      end;
      pick ?util_probe grid cell held ~n ~uc ~order ~src ~dst ~kind ~need
    end
  end
