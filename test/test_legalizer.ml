module G = Tdf_grid.Grid
module L = Tdf_legalizer
module Design = Tdf_netlist.Design
module Placement = Tdf_netlist.Placement
module Legality = Tdf_metrics.Legality
module Displacement = Tdf_metrics.Displacement

let cfg = L.Config.default

let test_config_presets () =
  Alcotest.(check bool) "default d2d on" true L.Config.default.L.Config.d2d_edges;
  Alcotest.(check bool) "no_d2d off" false L.Config.no_d2d.L.Config.d2d_edges;
  let b = L.Config.bonn_emulation in
  Alcotest.(check bool) "bonn 2D" false b.L.Config.d2d_edges;
  Alcotest.(check bool) "bonn exhaustive" true b.L.Config.exhaustive;
  Alcotest.(check bool) "bonn nonneg" false b.L.Config.allow_negative_cost;
  Alcotest.(check int) "bonn no postopt" 0 b.L.Config.post_opt_passes

let overflow_grid () =
  let d = Fixtures.clustered () in
  let g = G.build d ~bin_width:20 in
  G.assign_initial_exn g (Placement.initial d);
  (d, g)

let test_select_horizontal_exact () =
  let _, g = overflow_grid () in
  let src =
    Array.to_list g.G.bins
    |> List.find (fun (b : G.bin) -> G.supply b > 0.)
  in
  let dst =
    Array.to_list g.G.edges.(src.G.id)
    |> List.find_map (fun (e : G.edge) ->
           if e.G.kind = G.Horizontal then Some g.G.bins.(e.G.dst) else None)
    |> Option.get
  in
  match L.Select.select cfg g ~src ~dst ~kind:G.Horizontal ~need:13.0 with
  | Some sel ->
    Alcotest.(check (float 1e-6)) "freed exactly need" 13.0 sel.L.Select.freed;
    Alcotest.(check (float 1e-6)) "inflow = freed" 13.0 sel.L.Select.inflow
  | None -> Alcotest.fail "selection expected"

let test_select_whole_covers_need () =
  let _, g = overflow_grid () in
  let src =
    Array.to_list g.G.bins |> List.find (fun (b : G.bin) -> G.supply b > 0.)
  in
  let dst =
    Array.to_list g.G.edges.(src.G.id)
    |> List.find_map (fun (e : G.edge) ->
           if e.G.kind = G.Vertical then Some g.G.bins.(e.G.dst) else None)
    |> Option.get
  in
  match L.Select.select cfg g ~src ~dst ~kind:G.Vertical ~need:13.0 with
  | Some sel ->
    Alcotest.(check bool) "freed >= need" true (sel.L.Select.freed >= 13.0);
    List.iter
      (fun (p : L.Select.pick) ->
        Alcotest.(check (float 1e-9)) "whole cells" 1.0 p.L.Select.p_rho)
      sel.L.Select.picks
  | None -> Alcotest.fail "selection expected"

let test_select_need_exceeds_used () =
  let _, g = overflow_grid () in
  let src =
    Array.to_list g.G.bins |> List.find (fun (b : G.bin) -> G.supply b > 0.)
  in
  let dst =
    Array.to_list g.G.edges.(src.G.id)
    |> List.find_map (fun (e : G.edge) ->
           if e.G.kind = G.Vertical then Some g.G.bins.(e.G.dst) else None)
    |> Option.get
  in
  Alcotest.(check bool) "cannot shed more than held" true
    (L.Select.select cfg g ~src ~dst ~kind:G.Vertical ~need:(src.G.used +. 1.) = None)

let test_augment_resolves_overflow () =
  let _, g = overflow_grid () in
  let st = L.Augment.create_state g in
  let src =
    Array.to_list g.G.bins |> List.find (fun (b : G.bin) -> G.supply b > 0.)
  in
  match L.Augment.search cfg g st ~src with
  | Some path ->
    Alcotest.(check bool) "path length >= 2" true (List.length path >= 2);
    let root = List.hd path in
    Alcotest.(check int) "rooted at src" src.G.id root.L.Augment.pn_bin;
    let before = G.supply src in
    let _ = L.Mover.realize cfg g (L.Mover.create_scratch ()) path in
    Alcotest.(check bool) "supply reduced" true (G.supply src < before);
    (match G.check_invariants g with Ok () -> () | Error e -> Alcotest.fail e)
  | None -> Alcotest.fail "expected augmenting path"

let test_augment_none_on_balanced () =
  let d = Fixtures.clustered () in
  let g = G.build d ~bin_width:20 in
  (* no cells assigned: no supply anywhere *)
  let st = L.Augment.create_state g in
  Alcotest.(check bool) "no search from non-overflowed" true
    (L.Augment.search cfg g st ~src:g.G.bins.(0) = None)

let test_flow3d_legalizes_cluster () =
  let d = Fixtures.clustered () in
  let r = L.Flow3d.legalize d in
  let rep = Legality.check d r.L.Flow3d.placement in
  Alcotest.(check int) "legal" 0 rep.Legality.n_violations;
  Alcotest.(check (float 1e-6)) "no residual overflow" 0.
    r.L.Flow3d.stats.L.Flow3d.residual_overflow

let test_flow3d_with_macro () =
  let d = Fixtures.with_macro () in
  let r = L.Flow3d.legalize d in
  let rep = Legality.check d r.L.Flow3d.placement in
  Alcotest.(check int) "legal with macro" 0 rep.Legality.n_violations

let test_no_d2d_keeps_dies () =
  let d = Fixtures.random 7 in
  let r = L.Flow3d.legalize ~cfg:L.Config.no_d2d d in
  let p = r.L.Flow3d.placement in
  let nd = Design.n_dies d in
  for c = 0 to Design.n_cells d - 1 do
    let init = Tdf_netlist.Cell.nearest_die (Design.cell d c) ~n_dies:nd in
    Alcotest.(check int) (Printf.sprintf "cell %d stays on its die" c) init
      p.Placement.die.(c)
  done;
  Alcotest.(check int) "0 d2d cells reported" 0 r.L.Flow3d.stats.L.Flow3d.d2d_cells

let test_post_opt_victim_selection () =
  let d = Fixtures.clustered () in
  let p = Placement.initial d in
  (* displace one cell hugely *)
  p.Placement.x.(0) <- 50;
  p.Placement.y.(0) <- 11;
  p.Placement.x.(1) <- 50 + 300;
  Alcotest.(check int) "dmax" 300 (L.Post_opt.max_displacement d p);
  let victims = L.Post_opt.select_victims d p in
  Alcotest.(check (list int)) "only the far cell" [ 1 ] victims;
  let x, y = L.Post_opt.midpoint_target d p 1 in
  Alcotest.(check int) "x midpoint" (50 + 150) x;
  Alcotest.(check int) "y midpoint" 11 y

let test_post_opt_threshold_floor () =
  let d = Fixtures.clustered () in
  let p = Placement.initial d in
  (* 30 < 5*h_r = 50: below the threshold floor, no victims *)
  p.Placement.x.(0) <- 80;
  Alcotest.(check (list int)) "no victims below 5 rows" []
    (L.Post_opt.select_victims d p)

let test_legalize_from_eco () =
  let d = Fixtures.random 42 in
  let r1 = L.Flow3d.legalize d in
  (* ECO: push a handful of cells to one point, then re-legalize from there *)
  let p = Placement.copy r1.L.Flow3d.placement in
  for c = 0 to 4 do
    p.Placement.x.(c) <- 60;
    p.Placement.y.(c) <- 20;
    p.Placement.die.(c) <- 0
  done;
  let r2 = L.Flow3d.legalize_from d p in
  Alcotest.(check int) "ECO result legal" 0
    (Legality.check d r2.L.Flow3d.placement).Legality.n_violations

let prop_legal_on_random_designs =
  QCheck.Test.make ~name:"flow3d legalizes random designs" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let d = Fixtures.random ~with_macros:(seed mod 2 = 0) seed in
      let r = L.Flow3d.legalize d in
      (Legality.check d r.L.Flow3d.placement).Legality.n_violations = 0)

let prop_bonn_legal_on_random_designs =
  QCheck.Test.make ~name:"bonn config legalizes random designs" ~count:20
    QCheck.(int_bound 100_000)
    (fun seed ->
      let d = Fixtures.random seed in
      let r = L.Flow3d.legalize ~cfg:L.Config.bonn_emulation d in
      (Legality.check d r.L.Flow3d.placement).Legality.n_violations = 0)

let prop_exhaustive_not_worse_avg =
  QCheck.Test.make ~name:"alpha pruning close to exhaustive quality" ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      let d = Fixtures.random ~n:80 seed in
      let pruned = (L.Flow3d.legalize d).L.Flow3d.placement in
      let full =
        (L.Flow3d.legalize ~cfg:{ cfg with L.Config.exhaustive = true } d)
          .L.Flow3d.placement
      in
      let a = (Displacement.summary d pruned).Displacement.avg_norm in
      let b = (Displacement.summary d full).Displacement.avg_norm in
      (* pruning may lose a little, but not more than 35% on these sizes *)
      a <= (b *. 1.35) +. 0.2)

let suite =
  [
    Alcotest.test_case "config presets" `Quick test_config_presets;
    Alcotest.test_case "select horizontal exact" `Quick test_select_horizontal_exact;
    Alcotest.test_case "select whole covers need" `Quick test_select_whole_covers_need;
    Alcotest.test_case "select need > used" `Quick test_select_need_exceeds_used;
    Alcotest.test_case "augment resolves overflow" `Quick test_augment_resolves_overflow;
    Alcotest.test_case "augment none without supply" `Quick test_augment_none_on_balanced;
    Alcotest.test_case "flow3d cluster legal" `Quick test_flow3d_legalizes_cluster;
    Alcotest.test_case "flow3d macro legal" `Quick test_flow3d_with_macro;
    Alcotest.test_case "no_d2d keeps dies" `Quick test_no_d2d_keeps_dies;
    Alcotest.test_case "post-opt victims" `Quick test_post_opt_victim_selection;
    Alcotest.test_case "post-opt threshold floor" `Quick test_post_opt_threshold_floor;
    Alcotest.test_case "ECO incremental" `Quick test_legalize_from_eco;
    QCheck_alcotest.to_alcotest prop_legal_on_random_designs;
    QCheck_alcotest.to_alcotest prop_bonn_legal_on_random_designs;
    QCheck_alcotest.to_alcotest prop_exhaustive_not_worse_avg;
  ]
