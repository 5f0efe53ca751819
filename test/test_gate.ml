(* Benchmark regression gate: shape detection, exact/bound/time judgments,
   the injected-slowdown hook, and failure modes on malformed input. *)

module Json = Tdf_telemetry.Json
module Gate = Tdf_gate.Gate

let solver_file cases =
  Json.Obj
    [
      ("generated_by", Json.String "test");
      ( "cases",
        Json.List
          (List.map
             (fun (name, flow, cost, solve_s, reuse_s) ->
               Json.Obj
                 [
                   ("name", Json.String name);
                   ("flow", Json.Int flow);
                   ("cost", Json.Int cost);
                   ("solve_s", Json.Float solve_s);
                   ("repeat_reuse_s", Json.Float reuse_s);
                 ])
             cases) );
    ]

let eco_file runs =
  Json.Obj
    [
      ("generated_by", Json.String "test");
      ( "runs",
        Json.List
          (List.map
             (fun (cells, eco_s, fallbacks, legal) ->
               Json.Obj
                 [
                   ("delta_cells", Json.Int cells);
                   ("eco_s", Json.Float eco_s);
                   ("fallbacks", Json.Int fallbacks);
                   ("legal", Json.Bool legal);
                 ])
             runs) );
    ]

let run ?max_regression ?inject_slowdown ~baseline ~current () =
  match Gate.compare_json ?max_regression ?inject_slowdown ~baseline ~current () with
  | Ok v -> v
  | Error e -> Alcotest.failf "gate errored: %s" e

let check_pass name v = Alcotest.(check bool) name true v.Gate.passed
let check_fail name v = Alcotest.(check bool) name false v.Gate.passed

let base_solver = solver_file [ ("small", 89, 140, 0.01, 0.1) ]

let test_identical_passes () =
  check_pass "identical solver"
    (run ~baseline:base_solver ~current:base_solver ());
  let e = eco_file [ (6, 0.002, 0, true) ] in
  check_pass "identical eco" (run ~baseline:e ~current:e ())

let test_time_regression_fails () =
  let cur = solver_file [ ("small", 89, 140, 0.02, 0.1) ] in
  check_fail "2x solve_s at default 1.25"
    (run ~baseline:base_solver ~current:cur ());
  check_pass "2x solve_s within 4.0 slack"
    (run ~max_regression:4.0 ~baseline:base_solver ~current:cur ())

let test_drift_fails_despite_slack () =
  let cur = solver_file [ ("small", 90, 140, 0.01, 0.1) ] in
  check_fail "flow drift" (run ~max_regression:100. ~baseline:base_solver ~current:cur ());
  let cur = solver_file [ ("small", 89, 139, 0.01, 0.1) ] in
  check_fail "cost drift"
    (run ~max_regression:100. ~baseline:base_solver ~current:cur ())

let test_inject_slowdown_fails () =
  check_fail "identical file fails under 10x injection"
    (run ~inject_slowdown:10. ~baseline:base_solver ~current:base_solver ());
  check_pass "injection respects slack"
    (run ~max_regression:20. ~inject_slowdown:10. ~baseline:base_solver
       ~current:base_solver ())

let test_eco_quality_gates () =
  let base = eco_file [ (6, 0.002, 0, true) ] in
  check_fail "illegal result"
    (run ~baseline:base ~current:(eco_file [ (6, 0.002, 0, false) ]) ());
  check_fail "new fallback"
    (run ~baseline:base ~current:(eco_file [ (6, 0.002, 1, true) ]) ());
  (* fewer fallbacks than baseline is an improvement, not a failure *)
  check_pass "fallback decrease"
    (run ~baseline:(eco_file [ (6, 0.002, 1, true) ])
       ~current:(eco_file [ (6, 0.002, 0, true) ])
       ())

let test_case_matching () =
  (* matching is by name, not position; extras are skipped not fatal *)
  let base = solver_file [ ("small", 89, 140, 0.01, 0.1); ("gone", 1, 1, 0.01, 0.01) ] in
  let cur = solver_file [ ("new", 5, 5, 0.01, 0.01); ("small", 89, 140, 0.01, 0.1) ] in
  let v = run ~baseline:base ~current:cur () in
  check_pass "overlap passes" v;
  Alcotest.(check int) "both extras reported" 2 (List.length v.Gate.skipped);
  (* ... but zero overlap would make the gate vacuous: error out *)
  match
    Gate.compare_json ~baseline:base
      ~current:(solver_file [ ("other", 1, 1, 0.01, 0.01) ])
      ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "vacuous gate accepted"

let test_shape_errors () =
  (match
     Gate.compare_json ~baseline:base_solver
       ~current:(eco_file [ (6, 0.002, 0, true) ])
       ()
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mixed kinds accepted");
  match
    Gate.compare_json ~baseline:(Json.Obj []) ~current:(Json.Obj []) ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "shapeless file accepted"

let test_render () =
  let v = run ~baseline:base_solver ~current:base_solver () in
  let s = Gate.render v in
  Alcotest.(check bool) "mentions verdict" true
    (String.length s > 0
    &&
    let has sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    has "GATE PASS" && has "solver/small/flow")

let suite =
  [
    Alcotest.test_case "identical files pass" `Quick test_identical_passes;
    Alcotest.test_case "time regression fails" `Quick test_time_regression_fails;
    Alcotest.test_case "flow/cost drift fails despite slack" `Quick
      test_drift_fails_despite_slack;
    Alcotest.test_case "injected slowdown fails" `Quick test_inject_slowdown_fails;
    Alcotest.test_case "eco quality gates" `Quick test_eco_quality_gates;
    Alcotest.test_case "case matching and vacuity" `Quick test_case_matching;
    Alcotest.test_case "render" `Quick test_render;
    Alcotest.test_case "shape errors" `Quick test_shape_errors;
  ]
