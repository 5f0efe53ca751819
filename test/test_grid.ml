module G = Tdf_grid.Grid
module Design = Tdf_netlist.Design
module Placement = Tdf_netlist.Placement

let build_empty ?(bin_width = 20) design = G.build design ~bin_width

let test_structure_no_macros () =
  let d = Fixtures.clustered () in
  let g = build_empty d in
  (* 2 dies × 4 rows × 1 segment each *)
  Alcotest.(check int) "8 segments" 8 (Array.length g.G.segments);
  Array.iter
    (fun (s : G.segment) ->
      Alcotest.(check int) "segment spans die" 100 (s.G.s_hi - s.G.s_lo);
      let total =
        Array.fold_left (fun acc bid -> acc + g.G.bins.(bid).G.width) 0 s.G.s_bins
      in
      Alcotest.(check int) "bin widths sum to segment" 100 total)
    g.G.segments

let test_structure_macro_split () =
  let d = Fixtures.with_macro () in
  let g = build_empty d in
  (* die 0: rows 1 and 2 are split by the macro (x 40-60, y 10-30). *)
  let segs_die0_row1 =
    Array.to_list g.G.segments
    |> List.filter (fun s -> s.G.s_die = 0 && s.G.s_row = 1)
  in
  Alcotest.(check int) "row 1 split in two" 2 (List.length segs_die0_row1);
  (match segs_die0_row1 with
  | [ a; b ] ->
    Alcotest.(check (pair int int)) "left part" (0, 40) (a.G.s_lo, a.G.s_hi);
    Alcotest.(check (pair int int)) "right part" (60, 100) (b.G.s_lo, b.G.s_hi)
  | _ -> Alcotest.fail "unexpected segments");
  let segs_die0_row0 =
    Array.to_list g.G.segments
    |> List.filter (fun s -> s.G.s_die = 0 && s.G.s_row = 0)
  in
  Alcotest.(check int) "row 0 unsplit" 1 (List.length segs_die0_row0)

let test_segments_of_row_shared () =
  let d = Fixtures.with_macro () in
  let segs = G.segments_of_row d 0 1 in
  Alcotest.(check int) "two intervals" 2 (List.length segs);
  let segs = G.segments_of_row d 1 1 in
  Alcotest.(check int) "top die unsplit" 1 (List.length segs)

let edge_kinds g bid =
  Array.to_list g.G.edges.(bid) |> List.map (fun e -> e.G.kind)

let test_edges_sanity () =
  let d = Fixtures.clustered () in
  let g = build_empty d in
  Array.iter
    (fun (b : G.bin) ->
      Array.iter
        (fun (e : G.edge) ->
          let v = g.G.bins.(e.G.dst) in
          match e.G.kind with
          | G.Horizontal ->
            Alcotest.(check int) "same segment" b.G.seg v.G.seg;
            Alcotest.(check bool) "adjacent in x" true
              (v.G.x = b.G.x + b.G.width || b.G.x = v.G.x + v.G.width)
          | G.Vertical ->
            Alcotest.(check int) "same die" b.G.die v.G.die;
            Alcotest.(check int) "adjacent row" 1 (abs (b.G.row - v.G.row))
          | G.D2d ->
            Alcotest.(check int) "adjacent die" 1 (abs (b.G.die - v.G.die)))
        g.G.edges.(b.G.id))
    g.G.bins;
  (* every bin of this two-die design has at least one D2D edge *)
  Array.iter
    (fun (b : G.bin) ->
      Alcotest.(check bool) "has D2D" true
        (List.mem G.D2d (edge_kinds g b.G.id)))
    g.G.bins

let test_edges_symmetric () =
  let d = Fixtures.with_macro () in
  let g = build_empty d in
  Array.iter
    (fun (b : G.bin) ->
      Array.iter
        (fun (e : G.edge) ->
          let back =
            Array.exists (fun (e' : G.edge) -> e'.G.dst = b.G.id) g.G.edges.(e.G.dst)
          in
          Alcotest.(check bool) "symmetric" true back)
        g.G.edges.(b.G.id))
    g.G.bins

let test_assign_initial_invariants () =
  let d = Fixtures.clustered () in
  let g = build_empty d in
  G.assign_initial_exn g (Placement.initial d);
  (match G.check_invariants g with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* all 8 cells (6 wide) at one spot: total 48 > bin 20 -> overflow *)
  Alcotest.(check bool) "overflow exists" true (G.total_overflow g > 0.)

let test_supply_demand_math () =
  let d = Fixtures.clustered () in
  let g = build_empty d in
  G.assign_initial_exn g (Placement.initial d);
  Array.iter
    (fun (b : G.bin) ->
      let sup = G.supply b and dem = G.demand b in
      Alcotest.(check bool) "not both positive" true (sup = 0. || dem = 0.);
      Alcotest.(check (float 1e-6)) "sup-dem = used-cap"
        (b.G.used -. float_of_int b.G.width)
        (sup -. dem))
    g.G.bins

let test_place_remove_roundtrip () =
  let d = Fixtures.clustered () in
  let g = build_empty d in
  G.place_cell_exn g ~cell:0 ~die:0 ~x:50 ~y:11;
  Alcotest.(check bool) "assigned" true (G.segment_of_cell g 0 >= 0);
  let used_before = g.G.die_used.(0) in
  Alcotest.(check bool) "die used grows" true (used_before > 0.);
  G.remove_cell g ~cell:0;
  Alcotest.(check int) "unassigned" (-1) (G.segment_of_cell g 0);
  Alcotest.(check (float 1e-6)) "die used restored" 0. g.G.die_used.(0);
  match G.check_invariants g with Ok () -> () | Error e -> Alcotest.fail e

let test_fractional_assignment_spans_bins () =
  let d = Fixtures.clustered () in
  let g = G.build d ~bin_width:5 in
  (* width-6 cell at x=48 must span two 5-wide bins *)
  G.place_cell_exn g ~cell:0 ~die:0 ~x:48 ~y:11;
  let frags = Ref_grid.cell_frags g 0 in
  Alcotest.(check bool) "at least 2 fragments" true (List.length frags >= 2);
  let total = List.fold_left (fun acc (_, r) -> acc +. r) 0. frags in
  Alcotest.(check (float 1e-9)) "fractions sum to 1" 1.0 total

let test_move_fraction () =
  let d = Fixtures.clustered () in
  let g = build_empty d in
  G.place_cell_exn g ~cell:0 ~die:0 ~x:10 ~y:1;
  let sid = G.segment_of_cell g 0 in
  let s = g.G.segments.(sid) in
  let b0 = g.G.bins.(s.G.s_bins.(0)) and b1 = g.G.bins.(s.G.s_bins.(1)) in
  G.move_fraction g ~cell:0 ~src:b0 ~dst:b1 ~rho:0.5;
  Alcotest.(check (float 1e-9)) "half here" 0.5 (G.frag_rho_in g ~cell:0 b0);
  Alcotest.(check (float 1e-9)) "half there" 0.5 (G.frag_rho_in g ~cell:0 b1);
  (match G.check_invariants g with Ok () -> () | Error e -> Alcotest.fail e);
  (* clipping: asking for more than available moves the rest *)
  G.move_fraction g ~cell:0 ~src:b0 ~dst:b1 ~rho:5.0;
  Alcotest.(check (float 1e-9)) "all there" 1.0 (G.frag_rho_in g ~cell:0 b1)

let test_move_whole_changes_width () =
  let dies = Fixtures.two_dies () in
  let cells = [| Fixtures.cell ~id:0 ~w0:4 ~w1:8 ~x:10 ~y:1 ~z:0.0 () |] in
  let d = Design.make ~name:"w" ~dies ~cells () in
  let g = build_empty d in
  G.place_cell_exn g ~cell:0 ~die:0 ~x:10 ~y:1;
  Alcotest.(check (float 1e-6)) "uses w0" 4. g.G.die_used.(0);
  (* move to some bin on die 1 *)
  let dst =
    Array.to_list g.G.bins |> List.find (fun (b : G.bin) -> b.G.die = 1)
  in
  G.move_whole g ~cell:0 ~dst;
  Alcotest.(check (float 1e-6)) "die0 empty" 0. g.G.die_used.(0);
  Alcotest.(check (float 1e-6)) "uses w1 on die1" 8. g.G.die_used.(1);
  match G.check_invariants g with Ok () -> () | Error e -> Alcotest.fail e

let test_est_disp () =
  let d = Fixtures.clustered () in
  let g = build_empty d in
  (* cell 0 gp=(50,11); a bin at row 1 (y=10) containing x=50 costs |y-11| *)
  let b =
    Array.to_list g.G.bins
    |> List.find (fun (b : G.bin) ->
           b.G.die = 0 && b.G.y = 10 && b.G.x <= 50 && 50 < b.G.x + b.G.width)
  in
  Alcotest.(check int) "dy only" 1 (G.est_disp g ~cell:0 b);
  let far =
    Array.to_list g.G.bins
    |> List.find (fun (b : G.bin) -> b.G.die = 0 && b.G.y = 30 && b.G.x = 0)
  in
  (* clamp x to bin span: nearest x in [0,20-6] is 14 -> dx=36, dy=19 *)
  Alcotest.(check int) "clamped" (36 + 19) (G.est_disp g ~cell:0 far)

let test_find_slot_fits () =
  let d = Fixtures.with_macro () in
  let g = build_empty d in
  (* ask for a slot inside the macro's x-range on die 0: must land in a
     segment, never inside the blockage *)
  match G.find_slot g ~die:0 ~x:45 ~y:15 ~w:5 with
  | Some (sid, x) ->
    let s = g.G.segments.(sid) in
    Alcotest.(check bool) "inside segment" true (s.G.s_lo <= x && x + 5 <= s.G.s_hi)
  | None -> Alcotest.fail "expected a slot"

let test_find_slot_too_wide () =
  let d = Fixtures.clustered () in
  let g = build_empty d in
  Alcotest.(check bool) "nothing fits width 1000" true
    (G.find_slot g ~die:0 ~x:0 ~y:0 ~w:1000 = None)

let prop_random_ops_keep_invariants =
  QCheck.Test.make ~name:"random place/move/remove keep invariants" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let d = Fixtures.random seed in
      let g = G.build d ~bin_width:15 in
      G.assign_initial_exn g (Placement.initial d);
      let rng = Tdf_util.Prng.create (seed + 1) in
      for _ = 1 to 100 do
        let cell = Tdf_util.Prng.int rng (Design.n_cells d) in
        match Tdf_util.Prng.int rng 3 with
        | 0 ->
          (* whole-cell move to a random bin *)
          let b = g.G.bins.(Tdf_util.Prng.int rng (G.n_bins g)) in
          G.move_whole g ~cell ~dst:b
        | 1 ->
          (* fractional shuffle within segment when possible *)
          let sid = G.segment_of_cell g cell in
          if sid >= 0 then begin
            let s = g.G.segments.(sid) in
            if Array.length s.G.s_bins >= 2 then begin
              let i = Tdf_util.Prng.int rng (Array.length s.G.s_bins - 1) in
              let b0 = g.G.bins.(s.G.s_bins.(i)) in
              let b1 = g.G.bins.(s.G.s_bins.(i + 1)) in
              G.move_fraction g ~cell ~src:b0 ~dst:b1
                ~rho:(Tdf_util.Prng.float rng 1.0)
            end
          end
        | _ ->
          G.remove_cell g ~cell;
          G.place_cell_exn g ~cell ~die:(Tdf_util.Prng.int rng 2)
            ~x:(Tdf_util.Prng.int rng 120)
            ~y:(Tdf_util.Prng.int rng 50)
      done;
      match G.check_invariants g with Ok () -> true | Error _ -> false)

(* reset_to must be indistinguishable from throwing the grid away: a grid
   that already carries a different assignment, reset to a target array,
   matches a freshly built grid given the same targets bin-for-bin (same
   fragments, same [used]), and still passes the structural invariants. *)
let prop_reset_to_roundtrip =
  Props.test "reset_to equals fresh build+place" ~count:40
    Props.(pair (int_range 0 1_000_000) (int_range 8 30))
    (fun (seed, bin_width) ->
      let d = Fixtures.random ~n:40 seed in
      let n = Design.n_cells d in
      let rng = Tdf_util.Prng.create (seed + 1) in
      let targets =
        Array.init n (fun _ ->
            ( Tdf_util.Prng.int rng 120,
              Tdf_util.Prng.int rng 50,
              Tdf_util.Prng.int rng 2 ))
      in
      let fresh = G.build d ~bin_width in
      let fresh_ok =
        Array.for_all (fun x -> x)
          (Array.mapi
             (fun c (x, y, die) ->
               G.place_cell fresh ~cell:c ~die ~x ~y = Ok ())
             targets)
      in
      let g = G.build d ~bin_width in
      G.assign_initial_exn g (Placement.initial d);
      match G.reset_to g (Fixtures.targets targets) with
      | Error _ -> not fresh_ok
      | Ok () ->
        fresh_ok
        && G.check_invariants g = Ok ()
        && Array.for_all2
             (fun (a : G.bin) (b : G.bin) ->
               a.G.used = b.G.used
               && Ref_grid.bin_frags fresh a.G.id = Ref_grid.bin_frags g b.G.id)
             fresh.G.bins g.G.bins)

(* ---- bin-search assignment against the full-segment walk ---------- *)

module Prng = Tdf_util.Prng
module Rect = Tdf_geometry.Rect
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Blockage = Tdf_netlist.Blockage

let diff_design = Fixtures.diff_design

(* A target: anywhere around the die (outside it too), or with x on a
   bin's left or right edge, or with the cell's right end on one. *)
let diff_target rng (g : G.t) ~cell =
  let die = Prng.int rng g.G.n_dies in
  let y = Prng.int_in rng (-15) 55 in
  let x =
    match Prng.int rng 3 with
    | 0 -> Prng.int_in rng (-20) 140
    | _ ->
      let b = g.G.bins.(Prng.int rng (G.n_bins g)) in
      let edge = if Prng.bool rng then b.G.x else b.G.x + b.G.width in
      if Prng.bool rng then edge else edge - G.cell_width g ~cell ~die
  in
  (x, y, die)

let bits = Int64.bits_of_float

(* Stamps relabelled by first occurrence: two grids agree when the same
   bins share a stamp. *)
let stamp_classes stamp =
  let first = Hashtbl.create 64 in
  Array.mapi
    (fun i s ->
      match Hashtbl.find_opt first s with
      | Some j -> j
      | None ->
        Hashtbl.add first s i;
        i)
    stamp

(* The grid against its list model: every bin's fragments in order with
   the bits of every rho, [used], [die_used], every cell's list in order,
   [cell_seg], the D_c(u) cache, and the stamp classes. *)
let same_assignment (g : G.t) (m : Ref_grid.t) =
  let frag_bits (c, rho) = (c, bits rho) in
  let ref_frag_bits (f : Ref_grid.frag) = (f.Ref_grid.cell, bits f.Ref_grid.rho) in
  Array.for_all2
    (fun (a : G.bin) (b : Ref_grid.bin) ->
      List.map frag_bits (Ref_grid.bin_frags g a.G.id)
      = List.map ref_frag_bits b.Ref_grid.frags
      && bits a.G.used = bits b.Ref_grid.used)
    g.G.bins m.Ref_grid.bins
  && Array.map bits g.G.die_used = Array.map bits m.Ref_grid.die_used
  && Array.init (Array.length g.G.cell_seg) (fun c ->
         List.map frag_bits (Ref_grid.cell_frags g c))
     = Array.map (List.map frag_bits) m.Ref_grid.cell_frags
  && g.G.cell_seg = m.Ref_grid.cell_seg
  && g.G.cell_disp = m.Ref_grid.cell_disp
  && stamp_classes g.G.stamp = stamp_classes m.Ref_grid.stamp

(* The same operation on a grid and on its model: the results, the
   assignments and the set of restamped bins must agree. *)
let same_step (g : G.t) (m : Ref_grid.t) f_g f_m =
  let sg = Array.copy g.G.stamp and sm = Array.copy m.Ref_grid.stamp in
  let res_g = f_g g and res_m = f_m m in
  res_g = res_m
  && same_assignment g m
  && Array.map2 ( <> ) sg g.G.stamp = Array.map2 ( <> ) sm m.Ref_grid.stamp
  && G.check_invariants g = Ok ()

(* Every cell's D_c(u), read through both caches: equal values, and equal
   caches afterwards. *)
let same_cur_disp (g : G.t) (m : Ref_grid.t) =
  let n = Array.length g.G.cell_seg in
  List.for_all
    (fun c -> G.cur_disp g c = Ref_grid.cur_disp m c)
    (List.init n Fun.id)
  && g.G.cell_disp = m.Ref_grid.cell_disp

let prop_assignment_matches_reference =
  Props.test "assignment equals the full-segment walk" ~count:150
    Props.(pair (int_range 0 1_000_000) (int_range 3 30))
    (fun (seed, bin_width) ->
      let rng = Prng.create seed in
      let d = diff_design rng in
      let n = Design.n_cells d in
      let g = G.build d ~bin_width in
      let m = Ref_grid.create g in
      let init = Placement.initial d in
      let targets () =
        Fixtures.targets (Array.init n (fun cell -> diff_target rng g ~cell))
      in
      let ok =
        ref
          (same_step g m
             (fun g -> G.assign_initial g init)
             (fun m -> Ref_grid.assign_initial m init))
      in
      for _ = 1 to 3 do
        if !ok then begin
          let tg = targets () in
          ok :=
            same_step g m (fun g -> G.reset_to g tg) (fun m -> Ref_grid.reset_to m tg);
          (* re-place a few cells, each removed first *)
          for _ = 1 to 10 do
            if !ok then begin
              let cell = Prng.int rng n in
              let x, y, die = diff_target rng g ~cell in
              ok :=
                same_step g m
                  (fun g ->
                    G.remove_cell g ~cell;
                    G.place_cell g ~cell ~die ~x ~y)
                  (fun m ->
                    Ref_grid.remove_cell m ~cell;
                    Ref_grid.place_cell m ~cell ~die ~x ~y)
            end
          done
        end
      done;
      !ok)

(* The design with every cell's anchor, widths and weight redrawn: what
   [Grid.rebind] takes (same dies, macros and cell count). *)
let redrawn rng (d : Design.t) =
  let nd = Design.n_dies d in
  let w = (Design.die d 0).Die.outline.Rect.w in
  let cells =
    Array.map
      (fun (c : Cell.t) ->
        let widths =
          Array.init nd (fun _ ->
              if Prng.int rng 12 = 0 then Prng.int_in rng 1 (w + 10)
              else Prng.int_in rng 1 8)
        in
        Cell.make ~id:c.Cell.id ~widths ~gp_x:(Prng.int rng w)
          ~gp_y:(Prng.int rng 50) ~gp_z:c.Cell.gp_z ())
      d.Design.cells
  in
  Design.make ~name:d.Design.name ~dies:d.Design.dies ~cells ~macros:d.Design.macros ()

(* One random operation on a grid and its model, or [None] when the pick
   does not apply (an unassigned cell, a one-bin segment). *)
let random_op rng (g : G.t) n =
  let cell = Prng.int rng n in
  match Prng.int rng 12 with
  | 0 | 1 | 2 ->
    let sid = G.segment_of_cell g cell in
    if sid < 0 then None
    else begin
      let bins = g.G.segments.(sid).G.s_bins in
      let nb = Array.length bins in
      if nb < 2 then None
      else begin
        let i = Prng.int rng (nb - 1) in
        let a, b = if Prng.bool rng then (i, i + 1) else (i + 1, i) in
        let src = bins.(a) and dst = bins.(b) in
        let rho =
          match Prng.int rng 3 with
          | 0 -> 1.0
          | 1 -> Prng.float rng 0.2
          | _ -> Prng.float rng 1.0
        in
        Some
          ( (fun g ->
              G.move_fraction g ~cell ~src:g.G.bins.(src) ~dst:g.G.bins.(dst) ~rho),
            fun m -> Ref_grid.move_fraction m ~cell ~src ~dst ~rho )
      end
    end
  | 3 | 4 ->
    let dst = Prng.int rng (G.n_bins g) in
    Some
      ( (fun g -> G.move_whole g ~cell ~dst:g.G.bins.(dst)),
        fun m -> Ref_grid.move_whole m ~cell ~dst )
  | 5 | 6 ->
    let x, y, die = diff_target rng g ~cell in
    Some
      ( (fun g ->
          G.remove_cell g ~cell;
          ignore (G.place_cell g ~cell ~die ~x ~y)),
        fun m ->
          Ref_grid.remove_cell m ~cell;
          ignore (Ref_grid.place_cell m ~cell ~die ~x ~y) )
  | 7 | 8 -> Some ((fun g -> G.remove_cell g ~cell), fun m -> Ref_grid.remove_cell m ~cell)
  | 9 -> Some (G.reset, Ref_grid.reset)
  | _ ->
    let tg = Fixtures.targets (Array.init n (fun cell -> diff_target rng g ~cell)) in
    Some
      ( (fun g -> ignore (G.reset_to g tg)),
        fun m -> ignore (Ref_grid.reset_to m tg) )

(* The arena against the list model over random operation sequences:
   fractional and whole moves, removals, re-placements, resets and
   rebinds, on two or three dies with macros and cells too wide for any
   segment.  After every step the fragment lists (order and rho bits),
   [used], [die_used], the D_c(u) cache and the restamped bins agree. *)
let prop_arena_matches_model =
  Props.test "fragment arena equals the list model" ~count:150
    Props.(pair (int_range 0 1_000_000) (int_range 3 30))
    (fun (seed, bin_width) ->
      let rng = Prng.create seed in
      let d = diff_design rng in
      let n = Design.n_cells d in
      let g = G.build d ~bin_width in
      let m = Ref_grid.create g in
      let init = Placement.initial d in
      let ok =
        ref
          (same_step g m
             (fun g -> ignore (G.assign_initial g init))
             (fun m -> ignore (Ref_grid.assign_initial m init)))
      in
      for _ = 1 to 60 do
        if !ok then
          ok :=
            match Prng.int rng 20 with
            | 1 ->
              (* as an ECO reuses a grid: rebind, then refill *)
              let d' = redrawn rng g.G.design in
              let tg =
                Fixtures.targets (Array.init n (fun cell -> diff_target rng g ~cell))
              in
              same_step g m
                (fun g ->
                  G.rebind g d';
                  G.reset_to g tg)
                (fun m ->
                  Ref_grid.rebind m d';
                  Ref_grid.reset_to m tg)
            | 2 -> same_cur_disp g m
            | _ -> (
              match random_op rng g n with
              | None -> true
              | Some (f_g, f_m) -> same_step g m f_g f_m)
      done;
      !ok && same_assignment g m && same_cur_disp g m)

let suite =
  [
    Alcotest.test_case "structure without macros" `Quick test_structure_no_macros;
    Alcotest.test_case "structure macro split" `Quick test_structure_macro_split;
    Alcotest.test_case "segments_of_row" `Quick test_segments_of_row_shared;
    Alcotest.test_case "edge kinds sane" `Quick test_edges_sanity;
    Alcotest.test_case "edges symmetric" `Quick test_edges_symmetric;
    Alcotest.test_case "assign initial invariants" `Quick test_assign_initial_invariants;
    Alcotest.test_case "supply/demand math" `Quick test_supply_demand_math;
    Alcotest.test_case "place/remove roundtrip" `Quick test_place_remove_roundtrip;
    Alcotest.test_case "fractional assignment" `Quick test_fractional_assignment_spans_bins;
    Alcotest.test_case "move fraction" `Quick test_move_fraction;
    Alcotest.test_case "move whole across dies" `Quick test_move_whole_changes_width;
    Alcotest.test_case "est_disp" `Quick test_est_disp;
    Alcotest.test_case "find_slot avoids macro" `Quick test_find_slot_fits;
    Alcotest.test_case "find_slot too wide" `Quick test_find_slot_too_wide;
    QCheck_alcotest.to_alcotest prop_random_ops_keep_invariants;
    prop_reset_to_roundtrip;
    prop_assignment_matches_reference;
    prop_arena_matches_model;
  ]
