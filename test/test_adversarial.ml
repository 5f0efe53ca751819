(* Robustness under adversarial inputs: degenerate sizes, extreme
   utilization, hostile floorplans.  Every legalizer must either produce a
   legal placement or degrade gracefully (report residual overflow), never
   crash or loop. *)

module Rect = Tdf_geometry.Rect
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Blockage = Tdf_netlist.Blockage
module Design = Tdf_netlist.Design
module Placement = Tdf_netlist.Placement
module Flow3d = Tdf_legalizer.Flow3d
module Legality = Tdf_metrics.Legality

let two_dies ?(w = 100) ?(h = 40) () = Fixtures.two_dies ~w ~h ()

let check_legal name d =
  let r = Flow3d.legalize d in
  let rep = Legality.check d r.Flow3d.placement in
  if rep.Legality.n_violations <> 0 then
    Alcotest.failf "%s: %s" name
      (String.concat "; " rep.Legality.messages)

let test_empty_design () =
  let d = Design.make ~name:"empty" ~dies:(two_dies ()) ~cells:[||] () in
  let r = Flow3d.legalize d in
  Alcotest.(check bool) "legal trivially" true
    (Legality.is_legal d r.Flow3d.placement);
  (* baselines too *)
  Alcotest.(check bool) "tetris" true
    (Legality.is_legal d (Tdf_baselines.Tetris.legalize d));
  Alcotest.(check bool) "abacus" true
    (Legality.is_legal d (Tdf_baselines.Abacus.legalize d))

let test_single_cell () =
  let cells = [| Fixtures.cell ~id:0 ~x:(-50) ~y:999 ~z:0.5 () |] in
  let d = Design.make ~name:"one" ~dies:(two_dies ()) ~cells () in
  check_legal "single out-of-bounds cell" d

let test_single_row_die () =
  let dies =
    [|
      Die.make ~index:0 ~outline:(Rect.make ~x:0 ~y:0 ~w:200 ~h:10) ~row_height:10 ();
      Die.make ~index:1 ~outline:(Rect.make ~x:0 ~y:0 ~w:200 ~h:10) ~row_height:10 ();
    |]
  in
  let cells =
    Array.init 30 (fun id -> Fixtures.cell ~id ~w0:5 ~w1:5 ~x:100 ~y:5 ~z:0.3 ())
  in
  let d = Design.make ~name:"one_row" ~dies ~cells () in
  check_legal "single-row dies" d

let test_full_utilization_row () =
  (* exactly full: 20 cells of width 5 in a 100-wide single-row die pair *)
  let dies =
    [|
      Die.make ~index:0 ~outline:(Rect.make ~x:0 ~y:0 ~w:100 ~h:10) ~row_height:10 ();
      Die.make ~index:1 ~outline:(Rect.make ~x:0 ~y:0 ~w:100 ~h:10) ~row_height:10 ();
    |]
  in
  let cells =
    Array.init 40 (fun id ->
        Fixtures.cell ~id ~w0:5 ~w1:5 ~x:50 ~y:0 ~z:(if id < 20 then 0.2 else 0.8) ())
  in
  let d = Design.make ~name:"full" ~dies ~cells () in
  check_legal "100% utilization" d

let test_wide_cell_narrow_segments () =
  (* a macro splits the row into segments; one cell is wider than the left
     segment and must end up in the right one *)
  let dies = two_dies () in
  let macros =
    [| Blockage.make ~id:0 ~die:0 ~rect:(Rect.make ~x:20 ~y:0 ~w:10 ~h:40) () |]
  in
  let cells = [| Fixtures.cell ~id:0 ~w0:40 ~w1:40 ~x:0 ~y:0 ~z:0.0 () |] in
  let d = Design.make ~name:"wide" ~dies ~cells ~macros () in
  check_legal "cell wider than a segment" d

let test_macro_almost_everywhere () =
  (* macros cover most of die 0; cells must squeeze into the rest or cross *)
  let dies = two_dies () in
  let macros =
    [|
      Blockage.make ~id:0 ~die:0 ~rect:(Rect.make ~x:0 ~y:0 ~w:100 ~h:30) ();
      Blockage.make ~id:1 ~die:0 ~rect:(Rect.make ~x:0 ~y:30 ~w:60 ~h:10) ();
    |]
  in
  let cells =
    Array.init 20 (fun id -> Fixtures.cell ~id ~w0:4 ~w1:4 ~x:10 ~y:10 ~z:0.1 ())
  in
  let d = Design.make ~name:"walled" ~dies ~cells ~macros () in
  check_legal "macro-dominated die" d

let test_everything_in_one_corner () =
  let cells =
    Array.init 60 (fun id -> Fixtures.cell ~id ~w0:6 ~w1:6 ~x:0 ~y:0 ~z:0.0 ())
  in
  let d = Design.make ~name:"corner" ~dies:(two_dies ()) ~cells () in
  check_legal "corner pile-up" d

let test_infeasible_reports_residual () =
  (* more cell area than both dies can hold: must terminate and report *)
  let dies =
    [|
      Die.make ~index:0 ~outline:(Rect.make ~x:0 ~y:0 ~w:50 ~h:10) ~row_height:10 ();
      Die.make ~index:1 ~outline:(Rect.make ~x:0 ~y:0 ~w:50 ~h:10) ~row_height:10 ();
    |]
  in
  let cells =
    Array.init 40 (fun id -> Fixtures.cell ~id ~w0:5 ~w1:5 ~x:25 ~y:0 ~z:0.5 ())
  in
  let d = Design.make ~name:"overfull" ~dies ~cells () in
  let r = Flow3d.legalize d in
  (* 200 width into 100 capacity: residual overflow must be reported *)
  Alcotest.(check bool) "terminates with residual" true
    (r.Flow3d.stats.Flow3d.residual_overflow > 0.);
  Alcotest.(check bool) "illegal as expected" false
    (Legality.is_legal d r.Flow3d.placement)

let test_huge_net () =
  (* one net touching every cell: the legalizer must cope *)
  let cells =
    Array.init 50 (fun id -> Fixtures.cell ~id ~x:(id * 2) ~y:(id mod 40) ~z:0.4 ())
  in
  let nets =
    [| Tdf_netlist.Net.make ~id:0 ~pins:(Array.init 50 (fun i -> i)) () |]
  in
  let d = Design.make ~name:"bignet" ~dies:(two_dies ()) ~cells ~nets () in
  let r = Flow3d.legalize d in
  let p = r.Flow3d.placement in
  Alcotest.(check bool) "legal" true (Legality.is_legal d p)

let test_degenerate_bin_width () =
  (* bin width 1: thousands of bins, fractional churn *)
  let d = Fixtures.clustered () in
  let g = Tdf_grid.Grid.build d ~bin_width:1 in
  Tdf_grid.Grid.assign_initial_exn g (Placement.initial d);
  match Tdf_grid.Grid.check_invariants g with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_extreme_hetero_heights () =
  (* 10x row-height ratio across dies *)
  let dies =
    [|
      Die.make ~index:0 ~outline:(Rect.make ~x:0 ~y:0 ~w:200 ~h:100) ~row_height:5 ();
      Die.make ~index:1 ~outline:(Rect.make ~x:0 ~y:0 ~w:200 ~h:100) ~row_height:50 ();
    |]
  in
  let cells =
    Array.init 40 (fun id ->
        Cell.make ~id ~widths:[| 4; 40 |] ~gp_x:100 ~gp_y:50
          ~gp_z:(float_of_int (id mod 2)) ())
  in
  let d = Design.make ~name:"hetero10x" ~dies ~cells () in
  check_legal "10x hetero row heights" d

let test_zero_weight_rejected () =
  match Cell.make ~id:0 ~weight:0.0 ~widths:[| 4 |] ~gp_x:0 ~gp_y:0 ~gp_z:0. () with
  | exception Assert_failure _ -> ()
  | _ -> Alcotest.fail "weight 0 must be rejected"

let test_all_methods_on_hostile_case () =
  let dies = two_dies ~w:80 ~h:30 () in
  let macros =
    [| Blockage.make ~id:0 ~die:1 ~rect:(Rect.make ~x:20 ~y:10 ~w:40 ~h:10) () |]
  in
  let cells =
    Array.init 50 (fun id -> Fixtures.cell ~id ~w0:3 ~w1:3 ~x:40 ~y:15 ~z:0.6 ())
  in
  let d = Design.make ~name:"hostile" ~dies ~cells ~macros () in
  List.iter
    (fun m ->
      let p = Tdf_experiments.Runner.legalize_with m d in
      let rep = Legality.check d p in
      if rep.Legality.n_violations <> 0 then
        Alcotest.failf "%s failed: %s"
          (Tdf_experiments.Runner.method_name m)
          (String.concat "; " rep.Legality.messages))
    [
      Tdf_experiments.Runner.Tetris;
      Tdf_experiments.Runner.Abacus;
      Tdf_experiments.Runner.Bonn;
      Tdf_experiments.Runner.Ours;
      Tdf_experiments.Runner.Ours_no_d2d;
    ]

(* A macro covering a row's full width leaves zero-width segments; the
   validator must flag the die, and legalization must still succeed by
   using the other rows / the other die. *)
let test_zero_width_segments () =
  let dies = two_dies () in
  let macros =
    (* full-width macro over rows 0-1 of die 0 *)
    [| Blockage.make ~id:0 ~die:0 ~rect:(Rect.make ~x:0 ~y:0 ~w:100 ~h:20) () |]
  in
  let cells =
    Array.init 12 (fun id -> Fixtures.cell ~id ~w0:5 ~w1:5 ~x:50 ~y:5 ~z:0.1 ())
  in
  let d = Design.make ~name:"zero_width_rows" ~dies ~cells ~macros () in
  check_legal "zero-width segments" d;
  (* a die whose every row is covered: validator reports zero capacity *)
  let macros_all =
    [| Blockage.make ~id:0 ~die:0 ~rect:(Rect.make ~x:0 ~y:0 ~w:100 ~h:40) () |]
  in
  let d_all =
    Design.make ~name:"zero_cap_die" ~dies ~cells ~macros:macros_all ()
  in
  let issues = Tdf_robust.Validate.design d_all in
  Alcotest.(check bool) "zero-capacity-die flagged" true
    (List.exists
       (fun (i : Tdf_robust.Validate.issue) ->
         i.Tdf_robust.Validate.code = "zero-capacity-die")
       issues)

(* A cell wider than every segment on BOTH dies is structurally
   unplaceable: preflight must catch it, and the typed Flow3d entry must
   return an error rather than raise. *)
let test_unplaceable_cell_both_dies () =
  let dies = two_dies ~w:100 () in
  let cells =
    [|
      Fixtures.cell ~id:0 ~w0:4 ~w1:4 ~x:10 ~y:5 ~z:0.2 ();
      Fixtures.cell ~id:1 ~w0:150 ~w1:150 ~x:20 ~y:15 ~z:0.4 ();
    |]
  in
  let d = Design.make ~name:"too_wide" ~dies ~cells () in
  let issues = Tdf_robust.Validate.design d in
  Alcotest.(check bool) "unplaceable-cell is fatal" true
    (List.exists
       (fun (i : Tdf_robust.Validate.issue) ->
         i.Tdf_robust.Validate.severity = Tdf_robust.Validate.Fatal
         && i.Tdf_robust.Validate.code = "unplaceable-cell")
       issues);
  (* the raw engine degrades gracefully: the oversized cell is crammed
     into the widest segment, so the run completes but the result is
     illegal — no crash either way *)
  (match Flow3d.run d with
  | Error e -> Alcotest.failf "unexpected error: %s" (Flow3d.error_to_string e)
  | Ok r ->
    Alcotest.(check bool) "oversized cell cannot be legal" false
      (Legality.is_legal d r.Flow3d.placement));
  (* the pipeline catches it earlier, as a typed preflight rejection *)
  match Tdf_robust.Pipeline.run d with
  | Error e ->
    Alcotest.(check string) "preflight" "preflight"
      (Tdf_robust.Error.phase_name e.Tdf_robust.Error.phase)
  | Ok _ -> Alcotest.fail "pipeline accepted an unplaceable cell"

(* NaN global-placement coordinates must be caught by preflight — and the
   repair mode must recover the design into something legalizable. *)
let test_nan_gp_coordinates () =
  let dies = two_dies () in
  let cells =
    Array.init 6 (fun id ->
        Fixtures.cell ~id ~x:30 ~y:12
          ~z:(if id = 2 then Float.nan else 0.3)
          ())
  in
  let d = Design.make ~name:"nan_gp" ~dies ~cells () in
  (match Tdf_robust.Pipeline.run d with
  | Error e ->
    Alcotest.(check string) "nan code" "nan-gp-z" e.Tdf_robust.Error.code
  | Ok _ -> Alcotest.fail "NaN gp_z accepted");
  match
    Tdf_robust.Pipeline.run
      ~opts:{ Tdf_robust.Pipeline.default_options with repair = true }
      d
  with
  | Error e ->
    Alcotest.failf "repair failed: %s" (Tdf_robust.Error.to_string e)
  | Ok r ->
    Alcotest.(check bool) "legal after repair" true
      (Legality.is_legal r.Tdf_robust.Pipeline.design
         r.Tdf_robust.Pipeline.placement)

let suite =
  [
    Alcotest.test_case "empty design" `Quick test_empty_design;
    Alcotest.test_case "single out-of-bounds cell" `Quick test_single_cell;
    Alcotest.test_case "single-row dies" `Quick test_single_row_die;
    Alcotest.test_case "100% utilization" `Quick test_full_utilization_row;
    Alcotest.test_case "cell wider than segment" `Quick test_wide_cell_narrow_segments;
    Alcotest.test_case "macro-dominated die" `Quick test_macro_almost_everywhere;
    Alcotest.test_case "corner pile-up" `Quick test_everything_in_one_corner;
    Alcotest.test_case "infeasible reports residual" `Quick
      test_infeasible_reports_residual;
    Alcotest.test_case "huge net" `Quick test_huge_net;
    Alcotest.test_case "bin width 1" `Quick test_degenerate_bin_width;
    Alcotest.test_case "10x hetero heights" `Quick test_extreme_hetero_heights;
    Alcotest.test_case "zero weight rejected" `Quick test_zero_weight_rejected;
    Alcotest.test_case "all methods on hostile case" `Quick
      test_all_methods_on_hostile_case;
    Alcotest.test_case "zero-width segments" `Quick test_zero_width_segments;
    Alcotest.test_case "cell wider than both dies" `Quick
      test_unplaceable_cell_both_dies;
    Alcotest.test_case "NaN gp coordinates" `Quick test_nan_gp_coordinates;
  ]
