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

(* Callers batch "flow3d.select.calls" counting (one flush per search /
   realization) — a per-call [Telemetry.incr] here would emit millions of
   counter events into trace sinks on full-size runs.

   The candidates live in flat arrays indexed by their position in
   [src.frags], and [order] is that index array heap-sorted by unit cost
   with [Array.sort]: heapsort moves elements according to comparison
   outcomes alone, so this is the permutation sorting (cell, rho, cost)
   tuples would produce. *)
let select ?util_probe cfg grid ~src ~dst ~kind ~need =
  if need <= 0. then Some { picks = []; freed = 0.; inflow = 0.; sel_cost = 0. }
  else begin
    let design = grid.Grid.design in
    let n = List.length src.Grid.frags in
    (* Per candidate: its cell, the cell's width on [src]'s die, and the
       width its fraction holds in [src]. *)
    let cell = Array.make n 0 and w_src = Array.make n 0. in
    let held = Array.make n 0. in
    List.iteri
      (fun i (f : Grid.frag) ->
        let w =
          float_of_int (Cell.width_on (Design.cell design f.Grid.cell) src.Grid.die)
        in
        cell.(i) <- f.Grid.cell;
        w_src.(i) <- w;
        held.(i) <- f.Grid.rho *. w)
      src.Grid.frags;
    (* Every pick sheds at most what its fraction holds, so when the
       fractions together hold clearly less than [need] no pick sequence
       reaches it.  The 1e-6 margin dwarfs any difference between summing
       in this order and in cost order, so this only skips work the scan
       below would end in [None] anyway. *)
    let total = ref 0. in
    for i = 0 to n - 1 do
      total := !total +. held.(i)
    done;
    if !total < need -. 1e-6 then None
    else begin
      let uc = Array.make n 0. in
      for i = 0 to n - 1 do
        uc.(i) <- unit_cost cfg grid ~cell:cell.(i) ~dst ~kind
      done;
      let order = Array.init n Fun.id in
      Array.sort (fun i j -> Float.compare uc.(i) uc.(j)) order;
      match kind with
      | Grid.Horizontal ->
        (* Fractional moves: stop exactly at [need]. *)
        let rec take k acc freed cost =
          if freed >= need -. 1e-9 then Some (List.rev acc, need, cost)
          else if k = n then None
          else begin
            let i = order.(k) in
            let moved_w = Float.min held.(i) (need -. freed) in
            let moved_rho = moved_w /. w_src.(i) in
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
           living in [src]; the width arriving in [dst] is the full cell
           width on the destination die.  The last pick is swapped for a
           similar-cost better-fitting cell when possible: overshoot
           compounds along the path (flow(v) grows every whole-cell hop)
           and can strand the search in lightly-used regions. *)
        let h_r =
          float_of_int
            (Design.die design src.Grid.die).Tdf_netlist.Die.row_height
        in
        let rec take k acc freed cost =
          if freed >= need -. 1e-9 then Some (List.rev acc, freed, cost)
          else if k = n then None
          else begin
            let i = order.(k) in
            let remaining = need -. freed in
            (* better fit: among the remaining candidates within
               one-row-height extra cost, the narrowest one that alone
               covers the remainder (the first such in cost order) *)
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
          if util_ok then Some { picks; freed; inflow; sel_cost = cost }
          else None)
    end
  end
