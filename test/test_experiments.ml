(* Experiments-layer units not already covered by the integration suite:
   the ablation sweeps and the scaling-study record keeping. *)

module A = Tdf_experiments.Ablations
module Runner = Tdf_experiments.Runner

let small_design () =
  Tdf_benchgen.Gen.generate_by_name ~scale:0.02 Tdf_benchgen.Spec.Iccad2023 "case2"

let check_points name points expected =
  Alcotest.(check int) (name ^ " point count") expected (List.length points);
  List.iter
    (fun (p : A.point) ->
      Alcotest.(check bool) (name ^ " label set") true (String.length p.A.label > 0);
      Alcotest.(check bool) (name ^ " avg > 0") true (p.A.avg_disp > 0.);
      Alcotest.(check bool) (name ^ " max >= avg") true (p.A.max_disp >= p.A.avg_disp);
      Alcotest.(check bool) (name ^ " rt >= 0") true (p.A.runtime_s >= 0.))
    points

let test_sweep_alpha () =
  let d = small_design () in
  let points = A.sweep_alpha ~values:[ 0.0; 0.1 ] d in
  (* values + the exhaustive point *)
  check_points "alpha" points 3;
  match List.rev points with
  | exhaustive :: _ ->
    Alcotest.(check string) "last is exhaustive" "exhaustive" exhaustive.A.label
  | [] -> Alcotest.fail "empty"

let test_sweep_bin_width () =
  let d = small_design () in
  check_points "bin width" (A.sweep_bin_width ~factors:[ 5.; 10. ] d) 2

let test_sweep_d2d_cost () =
  let d = small_design () in
  let points = A.sweep_d2d_cost ~values:[ 0.; 2. ] d in
  check_points "d2d cost" points 3;
  (* the no_d2d point moves no cells across dies *)
  let no_d2d = List.nth points 2 in
  Alcotest.(check string) "no_d2d label" "no_d2d" no_d2d.A.label;
  Alcotest.(check int) "no crossings" 0 no_d2d.A.d2d_moves

let test_sweep_post_opt () =
  let d = small_design () in
  let points = A.sweep_post_opt ~passes:[ 0; 2 ] d in
  check_points "post opt" points 2;
  let p0 = List.nth points 0 and p2 = List.nth points 1 in
  Alcotest.(check bool) "post-opt never hurts max disp" true
    (p2.A.max_disp <= p0.A.max_disp +. 1e-9)

let test_render () =
  let d = small_design () in
  let s = A.render ~title:"T" (A.sweep_bin_width ~factors:[ 10. ] d) in
  Alcotest.(check bool) "has title line" true (String.length s > 1 && s.[0] = 'T');
  Alcotest.(check bool) "has data" true
    (List.length (String.split_on_char '\n' s) >= 3)

let test_scaling_point () =
  let module S = Tdf_experiments.Scaling in
  let suite = Tdf_benchgen.Spec.Iccad2023 in
  let cells =
    Tdf_netlist.Design.n_cells
      (Tdf_benchgen.Gen.generate_by_name ~scale:0.005 suite "case4")
  in
  match S.run ~scales:[ 0.005 ] suite "case4" with
  | [ p ] ->
    Alcotest.(check int) "cells of the generated design" cells p.S.sc_cells;
    List.iter
      (fun (name, v) ->
        Alcotest.(check bool) (name ^ " finite and positive") true
          (Float.is_finite v && v > 0.))
      [ ("bonn pops/aug", p.S.bonn_pops_per_aug);
        ("ours pops/aug", p.S.ours_pops_per_aug) ]
  | ps -> Alcotest.failf "expected one point, got %d" (List.length ps)

let test_method_names_distinct () =
  let names =
    List.map Runner.method_name
      [ Runner.Tetris; Runner.Abacus; Runner.Bonn; Runner.Ours; Runner.Ours_no_d2d ]
  in
  Alcotest.(check int) "all distinct" 5 (List.length (List.sort_uniq compare names))

let suite =
  [
    Alcotest.test_case "sweep alpha" `Slow test_sweep_alpha;
    Alcotest.test_case "sweep bin width" `Slow test_sweep_bin_width;
    Alcotest.test_case "sweep d2d cost" `Slow test_sweep_d2d_cost;
    Alcotest.test_case "sweep post opt" `Slow test_sweep_post_opt;
    Alcotest.test_case "render" `Quick test_render;
    Alcotest.test_case "method names" `Quick test_method_names_distinct;
    Alcotest.test_case "scaling study point" `Quick test_scaling_point;
  ]
