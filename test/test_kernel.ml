(* Flow-pass kernel: the grid-owned D_c(u) cache, the selection cache,
   the search's cost-only selection and the pruned relief, each checked
   against a from-scratch reference.

   - The cache must equal a recomputation after every kind of grid
     mutation.
   - Every mutation must restamp the bins whose pricing inputs it
     changed.  The cost-only selection the search runs, through one cache
     serving two diverging grids, must give bit for bit the [inflow] and
     [sel_cost] of [Select.select] from scratch, and the hoisted pricing
     must equal [Select.unit_cost] per candidate.
   - The heapsort copy must give [Array.sort]'s permutation, ties
     included.
   - The row- and column-pruned relief must pick the same (cell, bin) as
     the plain full scan kept in [Ref_relief], including on equal-cost
     ties, after random mutations, under masks, with and without D2D
     edges, and on dies sitting exactly at their utilization cap. *)

module G = Tdf_grid.Grid
module L = Tdf_legalizer
module Config = Tdf_legalizer.Config
module Design = Tdf_netlist.Design
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Placement = Tdf_netlist.Placement
module Rect = Tdf_geometry.Rect
module Prng = Tdf_util.Prng

(* D_c(u) straight from the fragment list, written independently of the
   grid's own computation. *)
let ref_cur_disp g cell =
  match Ref_grid.cell_frags g cell with
  | [] -> 0
  | frags ->
    let c = Design.cell g.G.design cell in
    let first = g.G.bins.(fst (List.hd frags)) in
    let w = Cell.width_on c first.G.die in
    let lo, hi =
      List.fold_left
        (fun (lo, hi) (bid, _) ->
          let b = g.G.bins.(bid) in
          (min lo b.G.x, max hi (b.G.x + b.G.width)))
        (max_int, min_int) frags
    in
    let x = max lo (min (max lo (hi - w)) c.Cell.gp_x) in
    abs (x - c.Cell.gp_x) + abs (first.G.y - c.Cell.gp_y)

(* Every cached entry matches its fragments, and reading every cell (which
   refills the cache) agrees with the reference. *)
let coherent g =
  G.check_invariants g = Ok ()
  &&
  let ok = ref true in
  for c = 0 to Design.n_cells g.G.design - 1 do
    if G.cur_disp g c <> ref_cur_disp g c then ok := false
  done;
  !ok

let random_bin rng g = g.G.bins.(Prng.int rng (G.n_bins g))

(* One grid mutation through a public mutator: [k] = 0 re-places the
   cell, 1 moves a fraction of it to a neighbouring bin, 2 moves it whole,
   3 removes it, 4 resets the grid and 5 re-places every cell. *)
let mutate rng g ~cell k =
  let n = Design.n_cells g.G.design in
  match k with
  | 0 ->
    if G.segment_of_cell g cell >= 0 then G.remove_cell g ~cell;
    ignore
      (G.place_cell g ~cell ~die:(Prng.int rng 2) ~x:(Prng.int rng 120)
         ~y:(Prng.int rng 50))
  | 1 ->
    let sid = G.segment_of_cell g cell in
    if sid >= 0 then begin
      let s = g.G.segments.(sid) in
      if Array.length s.G.s_bins >= 2 then begin
        let i = Prng.int rng (Array.length s.G.s_bins - 1) in
        let b0 = g.G.bins.(s.G.s_bins.(i)) in
        let b1 = g.G.bins.(s.G.s_bins.(i + 1)) in
        if Prng.bool rng then
          G.move_fraction g ~cell ~src:b0 ~dst:b1 ~rho:(Prng.float rng 1.0)
        else G.move_fraction g ~cell ~src:b1 ~dst:b0 ~rho:(Prng.float rng 1.0)
      end
    end
  | 2 -> G.move_whole g ~cell ~dst:(random_bin rng g)
  | 3 -> G.remove_cell g ~cell
  | 4 -> G.reset g
  | _ ->
    let targets =
      Array.init n (fun _ -> (Prng.int rng 120, Prng.int rng 50, Prng.int rng 2))
    in
    ignore (G.reset_to g (Fixtures.targets targets))

let prop_cache_coherent =
  Props.test "D_c(u) cache coherent under mutations of one grid" ~count:60
    Props.(pair (int_range 0 1_000_000) (int_range 8 30))
    (fun (seed, bin_width) ->
      let d = Fixtures.random ~n:40 ~with_macros:(seed mod 2 = 0) seed in
      let n = Design.n_cells d in
      let rng = Prng.create (seed + 7) in
      let g = G.build d ~bin_width in
      G.assign_initial_exn g (Placement.initial d);
      let ok = ref (coherent g) in
      for _ = 1 to 120 do
        if !ok then begin
          mutate rng g ~cell:(Prng.int rng n) (Prng.int rng 6);
          ok := coherent g
        end
      done;
      !ok)

(* The most overflowed bin, if any. *)
let hottest g =
  Array.fold_left
    (fun best (b : G.bin) ->
      if G.supply b <= 1e-6 then best
      else
        match best with
        | Some (h : G.bin) when G.supply h >= G.supply b -> best
        | _ -> Some b)
    None g.G.bins

let grid_of design ~bin_width =
  let g = G.build design ~bin_width in
  G.assign_initial_exn g (Placement.initial design);
  g

(* Everything a selection out of [b] reads from the assignment: its
   fragments in list order (the order fixes candidate indices, so ties),
   D_c(u) of each of their cells, and [used] (the Eq. 7 term of a D2D
   edge into [b]). *)
let pricing_inputs g (b : G.bin) =
  ( List.map
      (fun (cell, rho) -> (cell, rho, ref_cur_disp g cell))
      (Ref_grid.bin_frags g b.G.id),
    b.G.used )

(* A mutation that changes a bin's pricing inputs must restamp it, on
   whichever grid it ran; and since stamps are process-wide, two grids
   never show one stamp for a bin. *)
let prop_stamps_track_inputs =
  Props.test "every mutation restamps the bins whose pricing inputs changed"
    ~count:60
    Props.(pair (int_range 0 1_000_000) (int_range 8 30))
    (fun (seed, bin_width) ->
      let d = Fixtures.random ~n:40 ~with_macros:(seed mod 2 = 0) seed in
      let n = Design.n_cells d in
      let rng = Prng.create (seed + 13) in
      let a = grid_of d ~bin_width and b = grid_of d ~bin_width in
      let inputs g = Array.map (pricing_inputs g) g.G.bins in
      let ok = ref true in
      for _ = 1 to 120 do
        if !ok then begin
          let g = if Prng.bool rng then a else b in
          let stamps = Array.copy g.G.stamp and before = inputs g in
          mutate rng g ~cell:(Prng.int rng n) (Prng.int rng 6);
          let after = inputs g in
          Array.iteri
            (fun i s -> if after.(i) <> before.(i) && g.G.stamp.(i) = s then ok := false)
            stamps;
          Array.iteri (fun i s -> if s = b.G.stamp.(i) then ok := false) a.G.stamp
        end
      done;
      !ok)

(* The search's cost-only selection, [Select.load] then
   [Select.select_cost], against [Select.select] from scratch: [true]
   exactly when [select] gives [Some], with bit-equal [inflow], [sel_cost]
   and [freed]. *)
let bits = Int64.bits_of_float

let cost_only_matches cache cfg g ~(src : G.bin) ~edge ~need s want =
  let got =
    L.Select.load cache cfg g ~src ~need
    && L.Select.select_cost cache cfg g ~src ~edge ~need s
  in
  match want with
  | None -> not got
  | Some (sel : L.Select.selection) ->
    got
    && bits s.L.Select.s_inflow = bits sel.L.Select.inflow
    && bits s.L.Select.s_cost = bits sel.L.Select.sel_cost
    && bits s.L.Select.s_freed = bits sel.L.Select.freed

(* [Select.price] against [Select.unit_cost], candidate by candidate. *)
let price_matches cfg g ~(src : G.bin) ~dst ~kind =
  let cells = Array.of_list (List.map fst (Ref_grid.bin_frags g src.G.id)) in
  let n = Array.length cells in
  let uc = Array.make n Float.nan in
  L.Select.price cfg g cells ~n ~dst ~kind uc;
  Array.for_all2
    (fun cell u -> bits u = bits (L.Select.unit_cost cfg g ~cell ~dst ~kind))
    cells uc

(* One cache serves two diverging grids, mutated through every mutator,
   and every slot of one grid is tried with a random need after each
   step, so most slots are tried again after their bins changed or did
   not.  The configuration flips now and then between the default and one
   that clamps costs at 0 with no fixed D2D cost: the clamp turns cheap
   candidates into ties, so it reorders costs, and under it a D2D order
   also depends on the destination's [used]. *)
let prop_select_cache_matches =
  Props.test "cached selection equals a from-scratch selection" ~count:40
    Props.(pair (int_range 0 1_000_000) (int_range 8 30))
    (fun (seed, bin_width) ->
      let d = Fixtures.random ~n:80 ~with_macros:(seed mod 2 = 0) seed in
      let n = Design.n_cells d in
      let rng = Prng.create (seed + 17) in
      (* far from their initial positions, cells have negative costs *)
      let targets =
        Fixtures.targets
          (Array.init n (fun _ -> (Prng.int rng 120, Prng.int rng 50, Prng.int rng 2)))
      in
      let far () =
        let g = grid_of d ~bin_width in
        ignore (G.reset_to g targets);
        g
      in
      let grids = [| far (); far () |] in
      let cache = L.Select.create_cache grids.(0) in
      let s = L.Select.sums () in
      let clamped =
        { Config.default with Config.allow_negative_cost = false; d2d_base_cost = 0. }
      in
      let cfg = ref Config.default in
      let ok = ref true and found = ref 0 in
      for _ = 1 to 40 do
        if !ok then begin
          let g = Prng.choose rng grids in
          (* resets are rare, so most steps move a few bins' contents *)
          let k = if Prng.int rng 10 = 0 then 4 + Prng.int rng 2 else Prng.int rng 4 in
          mutate rng g ~cell:(Prng.int rng n) k;
          if Prng.int rng 8 = 0 then
            cfg := if !cfg == clamped then Config.default else clamped;
          let cfg = !cfg in
          let g = Prng.choose rng grids in
          Array.iter
            (fun (src : G.bin) ->
              Array.iteri
                (fun edge (e : G.edge) ->
                  let need =
                    if Prng.int rng 10 = 0 then 0.
                    else Prng.float rng (1.2 *. src.G.used)
                  in
                  let dst = g.G.bins.(e.G.dst) and kind = e.G.kind in
                  let want = L.Select.select cfg g ~src ~dst ~kind ~need in
                  if not (cost_only_matches cache cfg g ~src ~edge ~need s want)
                  then ok := false;
                  if not (price_matches cfg g ~src ~dst ~kind) then ok := false;
                  if want <> None && need > 0. then incr found)
                g.G.edges.(src.G.id))
            g.G.bins
        end
      done;
      (* not vacuous: fewer sorts than priced selections means slots hit *)
      !ok && L.Select.priced cache < !found)

(* A bin holding more candidates than a slot order can index is sorted
   afresh on every call, and still selects what [select] does. *)
let test_select_large_bin () =
  let dies =
    [|
      Die.make ~index:0 ~outline:(Rect.make ~x:0 ~y:0 ~w:400 ~h:20) ~row_height:10 ();
      Die.make ~index:1 ~outline:(Rect.make ~x:0 ~y:0 ~w:400 ~h:20) ~row_height:10 ();
    |]
  in
  let cells =
    Array.init 300 (fun id ->
        Cell.make ~id ~widths:[| 1 + (id mod 3); 2 |] ~gp_x:(id mod 50) ~gp_y:0
          ~gp_z:0. ())
  in
  let g = grid_of (Design.make ~name:"pile" ~dies ~cells ()) ~bin_width:200 in
  let src = g.G.bins.(0) in
  Alcotest.(check bool) "over 256 candidates" true (G.n_frags g src.G.id > 256);
  let cache = L.Select.create_cache g in
  let s = L.Select.sums () in
  let cfg = Config.default in
  Array.iteri
    (fun edge (e : G.edge) ->
      List.iter
        (fun need ->
          let want =
            L.Select.select cfg g ~src ~dst:g.G.bins.(e.G.dst) ~kind:e.G.kind ~need
          in
          let before = L.Select.priced cache in
          Alcotest.(check bool) "same selection" true
            (cost_only_matches cache cfg g ~src ~edge ~need s want);
          Alcotest.(check int) "sorted afresh" (before + 1) (L.Select.priced cache))
        [ 5.; 40.; 150. ])
    g.G.edges.(src.G.id)

(* The whole-cell pick loop without the suffix-maximum skip: each step
   searches every remaining candidate for a better fit.  Gives the picked
   cells, freed width and cost, or [None] short of [need], and counts in
   [skips]/[runs] the steps whose search the skip would leave out or
   keep. *)
let ref_whole_cell cfg g ~(src : G.bin) ~dst ~kind ~need ~skips ~runs =
  let frags = Array.of_list (Ref_grid.bin_frags g src.G.id) in
  let n = Array.length frags in
  let cell = Array.map fst frags in
  let held =
    Array.map
      (fun (c, rho) -> rho *. float_of_int (G.cell_width g ~cell:c ~die:src.G.die))
      frags
  in
  let uc = Array.make n 0. and order = Array.make n 0 in
  L.Select.price cfg g cell ~n ~dst ~kind uc;
  L.Select.sort_by_cost uc order n;
  let h_r = float_of_int (Design.die g.G.design src.G.die).Die.row_height in
  let freed = ref 0. and cost = ref 0. and k = ref 0 and swap = ref (-1) in
  while !swap < 0 && (not (!freed >= need -. 1e-9)) && !k < n do
    let i = order.(!k) in
    let remaining = need -. !freed in
    let fit = ref (-1) in
    for k' = !k to n - 1 do
      let j = order.(k') in
      if
        uc.(j) <= uc.(i) +. h_r
        && held.(j) >= remaining -. 1e-9
        && not (!fit >= 0 && held.(!fit) <= held.(j))
      then fit := j
    done;
    let widest = ref neg_infinity in
    for k' = !k to n - 1 do
      widest := Float.max !widest held.(order.(k'))
    done;
    incr (if !widest >= remaining -. 1e-9 then runs else skips);
    let j = !fit in
    if j >= 0 && (held.(j) < held.(i) || uc.(j) <= uc.(i)) then begin
      swap := j;
      freed := !freed +. held.(j);
      cost := !cost +. uc.(j)
    end
    else begin
      freed := !freed +. held.(i);
      cost := !cost +. uc.(i);
      incr k
    end
  done;
  if !swap < 0 && not (!freed >= need -. 1e-9) then None
  else
    Some
      ( List.init !k (fun m -> cell.(order.(m)))
        @ (if !swap >= 0 then [ cell.(!swap) ] else []),
        !freed,
        !cost )

(* Bins that each hold one wide cell among many narrow ones: once the
   wide cell is picked or passed, no remaining candidate covers a large
   remainder, so the better-fit search is skipped; before that, and for
   small remainders, it runs.  On every edge and a spread of needs, the
   cached cost-only selection equals [Select.select], and on whole-cell
   edges [select] picks what the loop without the skip picks. *)
let test_select_wide_among_narrow () =
  let dies =
    [|
      Die.make ~index:0 ~outline:(Rect.make ~x:0 ~y:0 ~w:240 ~h:30) ~row_height:10 ();
      Die.make ~index:1 ~outline:(Rect.make ~x:0 ~y:0 ~w:240 ~h:30) ~row_height:10 ();
    |]
  in
  let rng = Prng.create 5 in
  let cells =
    Array.init 240 (fun id ->
        let group = id / 40 in
        let w = if id mod 40 = 0 then 24 + Prng.int rng 8 else 1 + Prng.int rng 3 in
        Cell.make ~id ~widths:[| w; w + Prng.int rng 2 |]
          ~gp_x:((80 * (group mod 3)) + 10 + Prng.int rng 30)
          ~gp_y:(10 * (group / 3)) ~gp_z:(Prng.float rng 1.0) ())
  in
  let g = grid_of (Design.make ~name:"wide" ~dies ~cells ()) ~bin_width:40 in
  let cache = L.Select.create_cache g in
  let s = L.Select.sums () in
  let cfg = Config.default in
  let skips = ref 0 and runs = ref 0 in
  Array.iter
    (fun (src : G.bin) ->
      Array.iteri
        (fun edge (e : G.edge) ->
          let dst = g.G.bins.(e.G.dst) and kind = e.G.kind in
          List.iter
            (fun need ->
              let want = L.Select.select cfg g ~src ~dst ~kind ~need in
              Alcotest.(check bool) "cost-only selection" true
                (cost_only_matches cache cfg g ~src ~edge ~need s want);
              if kind <> G.Horizontal then
                match
                  (want, ref_whole_cell cfg g ~src ~dst ~kind ~need ~skips ~runs)
                with
                | None, None -> ()
                | None, Some _ ->
                  Alcotest.(check bool) "only the utilization cap refuses" true
                    (kind = G.D2d)
                | Some _, None -> Alcotest.fail "select found what the loop did not"
                | Some sel, Some (picked, freed, cost) ->
                  Alcotest.(check (list int)) "picks" picked
                    (List.map
                       (fun (p : L.Select.pick) -> p.L.Select.p_cell)
                       sel.L.Select.picks);
                  Alcotest.(check bool) "freed and cost" true
                    (bits freed = bits sel.L.Select.freed
                    && bits cost = bits sel.L.Select.sel_cost))
            [ 0.5; 2.; 3.5; 8.; 20.; 27.; 40.; 60.; 0.9 *. src.G.used ])
        g.G.edges.(src.G.id))
    g.G.bins;
  Alcotest.(check bool) "searches both skipped and run" true (!skips > 0 && !runs > 0)

(* [Select.sort_by_cost] against [Array.sort] on the identity: the same
   permutation, so the same order among equal costs.  Costs come mostly
   from a few values, signed zeros included, so most arrays are full of
   ties; the rest are random and half of them negative. *)
let prop_sort_matches_stdlib =
  let cost =
    Props.make ~print:string_of_float (fun rng ->
        match Prng.int rng 4 with
        | 0 -> Prng.float rng 10. -. 5.
        | _ -> Prng.choose rng [| 0.; -0.; 1.; -1.; 2.5; -7.; 1e-300; Float.nan |])
  in
  Props.test "heapsort copy gives Array.sort's permutation" ~count:300
    (Props.array ~max_len:256 cost)
    (fun uc ->
      let n = Array.length uc in
      let want = Array.init n Fun.id in
      Array.sort (fun i j -> Float.compare uc.(i) uc.(j)) want;
      (* room beyond [n], as in the search's scratch *)
      let got = Array.make (n + 3) (-1) in
      L.Select.sort_by_cost uc got n;
      Array.sub got 0 n = want && Array.for_all (( = ) (-1)) (Array.sub got n 3))

(* A design built for ties: coarse global positions (x on a 10-grid, y on
   a 5-grid), three widths, and a top die whose rows differ from the
   bottom die's in height and offset. *)
let tie_design rng ~max_util =
  let row_top = if Prng.bool rng then 10 else 8 in
  let y_top = if Prng.bool rng then 0 else 5 in
  let dies =
    [|
      Die.make ~index:0 ~outline:(Rect.make ~x:0 ~y:0 ~w:100 ~h:40) ~row_height:10
        ~max_util:max_util.(0) ();
      Die.make ~index:1
        ~outline:(Rect.make ~x:0 ~y:y_top ~w:100 ~h:40)
        ~row_height:row_top ~max_util:max_util.(1) ();
    |]
  in
  let widths = [| 2; 4; 5 |] in
  let cells =
    Array.init (Prng.int_in rng 20 60) (fun id ->
        Cell.make ~id
          ~widths:[| Prng.choose rng widths; Prng.choose rng widths |]
          ~gp_x:(10 * Prng.int rng 10)
          ~gp_y:(5 * Prng.int rng 9)
          ~gp_z:(Prng.float rng 1.0) ())
  in
  Design.make ~name:"ties" ~dies ~cells ()

(* Rebuild [design] so that die [d] is exactly at its cap once [w] more
   width arrives: [die_used] depends only on the assignment, so the
   rebuilt grid evaluates [(used + w) / cap] to exactly [max_util]. *)
let at_boundary design ~bin_width ~d ~w =
  let g = grid_of design ~bin_width in
  let m = (g.G.die_used.(d) +. w) /. g.G.die_cap.(d) in
  if m <= 0. || m > 1. then design
  else begin
    let dies =
      Array.map
        (fun (die : Die.t) ->
          if die.Die.index <> d then die
          else
            Die.make ~index:d ~outline:die.Die.outline ~row_height:die.Die.row_height
              ~max_util:m ())
        design.Design.dies
    in
    { design with Design.dies }
  end

let pick_of = Option.map (fun (c, (b : G.bin)) -> (c, b.G.id))

let prop_relief_matches_reference =
  Props.test "row-pruned relief picks what the full scan picks" ~count:80
    Props.(pair (int_range 0 1_000_000) (int_range 6 25))
    (fun (seed, bin_width) ->
      let rng = Prng.create seed in
      let caps = [| 1.0; 0.8; 0.6 |] in
      let max_util = Array.init 2 (fun _ -> Prng.choose rng caps) in
      let design = tie_design rng ~max_util in
      let design =
        if Prng.bool rng then design
        else begin
          (* put the other die of some overflowed bin's first cell exactly
             at its cap for that cell's width *)
          let g = grid_of design ~bin_width in
          match hottest g with
          | Some src when G.n_frags g src.G.id > 0 ->
            let cell = G.frag_cell g (G.first_in_bin g src.G.id) in
            let d = 1 - src.G.die in
            let w = float_of_int (Cell.width_on (Design.cell design cell) d) in
            at_boundary design ~bin_width ~d ~w
          | Some _ | None -> design
        end
      in
      let cfg = if Prng.bool rng then Config.default else Config.no_d2d in
      (* a random assignment history (moves, removals and re-placements),
         taken by two grids alike *)
      let history = Prng.int rng 1_000_000 in
      let after_history () =
        let g = grid_of design ~bin_width and rng = Prng.create history in
        for _ = 1 to Prng.int rng 12 do
          mutate rng g
            ~cell:(Prng.int rng (Design.n_cells design))
            (Prng.choose rng [| 0; 1; 2; 3; 5 |])
        done;
        g
      in
      let a = after_history () and b = after_history () in
      let mask =
        if Prng.bool rng then None
        else Some (Array.init (G.n_bins a) (fun _ -> Prng.int rng 4 <> 0))
      in
      (* Relieve every overflowed bin, three sweeps: both grids take the
         same moves, so each later pick starts from the same state. *)
      let ok = ref true in
      for _ = 1 to 3 do
        Array.iter
          (fun (src : G.bin) ->
            if !ok && G.supply src > 0. then begin
              let want = Ref_relief.relieve ?mask cfg a ~src:a.G.bins.(src.G.id) in
              let got = L.Relief.relieve ?mask cfg b ~src:b.G.bins.(src.G.id) in
              if pick_of want <> pick_of got then ok := false
            end)
          a.G.bins
      done;
      !ok)

(* The boundary case by construction: die 1 holds 196 of its 400 units at
   a 0.5 cap, so a width-4 cell fits exactly and a width-5 cell does not. *)
let test_relief_util_boundary () =
  let dies =
    [|
      Die.make ~index:0 ~outline:(Rect.make ~x:0 ~y:0 ~w:100 ~h:40) ~row_height:10 ();
      Die.make ~index:1 ~outline:(Rect.make ~x:0 ~y:0 ~w:100 ~h:40) ~row_height:10
        ~max_util:0.5 ();
    |]
  in
  let cell id ~w0 ~w1 ~x ~y ~z =
    Cell.make ~id ~widths:[| w0; w1 |] ~gp_x:x ~gp_y:y ~gp_z:z ()
  in
  (* die 0: a pile of 25-wide cells at one spot, then one width-4 and one
     width-5 candidate (on die 1) among them; die 1: 196 units spread in
     whole 14-wide cells, one per 20-wide bin *)
  let pile =
    List.init 6 (fun i -> cell i ~w0:25 ~w1:25 ~x:40 ~y:10 ~z:0.)
    @ [ cell 6 ~w0:6 ~w1:5 ~x:40 ~y:10 ~z:0.; cell 7 ~w0:6 ~w1:4 ~x:40 ~y:10 ~z:0. ]
  in
  let fill =
    List.init 14 (fun i ->
        cell (8 + i) ~w0:14 ~w1:14 ~x:(20 * (i mod 5)) ~y:(10 * (i / 5)) ~z:1.)
  in
  let design =
    Design.make ~name:"boundary" ~dies ~cells:(Array.of_list (pile @ fill)) ()
  in
  let a = grid_of design ~bin_width:20 in
  Alcotest.(check (float 0.)) "die 1 at 196" 196. a.G.die_used.(1);
  let src = Option.get (hottest a) in
  List.iter
    (fun cfg ->
      let a = grid_of design ~bin_width:20 and b = grid_of design ~bin_width:20 in
      let want = Ref_relief.relieve cfg a ~src:a.G.bins.(src.G.id) in
      let got = L.Relief.relieve cfg b ~src:b.G.bins.(src.G.id) in
      Alcotest.(check (option (pair int int))) "same pick" (pick_of want) (pick_of got);
      if cfg.Config.d2d_edges then
        Alcotest.(check (option (pair int int)))
          "the width-4 cell crosses to die 1 at exactly its cap" (Some (7, 1))
          (Option.map (fun (c, (bin : G.bin)) -> (c, bin.G.die)) got))
    [ Config.default; Config.no_d2d ]

let suite =
  [
    prop_cache_coherent;
    prop_stamps_track_inputs;
    prop_select_cache_matches;
    Alcotest.test_case "selection out of an oversized bin" `Quick
      test_select_large_bin;
    Alcotest.test_case "selection out of a bin with one wide cell" `Quick
      test_select_wide_among_narrow;
    prop_sort_matches_stdlib;
    prop_relief_matches_reference;
    Alcotest.test_case "relief at the utilization boundary" `Quick
      test_relief_util_boundary;
  ]
