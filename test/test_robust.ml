(* The resilient pipeline: preflight validation, budgets, fault injection,
   and the retry/fallback chain (ISSUE: robustness tentpole). *)

module Design = Tdf_netlist.Design
module Cell = Tdf_netlist.Cell
module Net = Tdf_netlist.Net
module Validate = Tdf_robust.Validate
module Pipeline = Tdf_robust.Pipeline
module Error = Tdf_robust.Error
module Legality = Tdf_metrics.Legality
module Budget = Tdf_util.Budget
module Mcmf = Tdf_flow.Mcmf

let with_fixture f =
  Fault.reset ();
  Fun.protect f ~finally:Fault.reset

(* ---- preflight ----------------------------------------------------- *)

let test_validate_clean () =
  let d = Fixtures.clustered () in
  Alcotest.(check int) "no issues" 0 (List.length (Validate.design d))

let test_validate_nan_gp_z () =
  let d = Fixtures.clustered () in
  let cells = Array.copy d.Design.cells in
  cells.(3) <-
    Fixtures.cell ~id:3 ~x:50 ~y:11 ~z:Float.nan ();
  let bad = Design.make ~name:"nan" ~dies:d.Design.dies ~cells () in
  let issues = Validate.design bad in
  Alcotest.(check bool) "nan-gp-z reported" true
    (List.exists (fun i -> i.Validate.code = "nan-gp-z") issues);
  Alcotest.(check bool) "fatal" true (Validate.fatal issues <> [])

let test_validate_degenerate_net () =
  let d = Fixtures.clustered () in
  let nets = [| Net.make ~id:0 ~pins:[| 2 |] () |] in
  let bad =
    Design.make ~name:"degen" ~dies:d.Design.dies ~cells:d.Design.cells ~nets ()
  in
  let issues = Validate.design bad in
  Alcotest.(check bool) "degenerate-net reported" true
    (List.exists (fun i -> i.Validate.code = "degenerate-net") issues);
  Alcotest.(check int) "warning only" 0 (List.length (Validate.fatal issues))

let test_repair_idempotent () =
  let d = Fixtures.clustered () in
  let d', repairs = Validate.repair d in
  Alcotest.(check int) "clean design untouched" 0 (List.length repairs);
  Alcotest.(check bool) "same value" true (d == d')

let test_repair_fixes_corruption () =
  let d = Fixtures.random 42 in
  let bad, faults = Fault.corrupt ~seed:11 d in
  Alcotest.(check bool) "faults applied" true (faults <> []);
  let repaired, repairs = Validate.repair bad in
  Alcotest.(check bool) "repairs reported" true (repairs <> []);
  Alcotest.(check int) "repaired design is fatal-free" 0
    (List.length (Validate.fatal (Validate.design repaired)));
  (* net ids must stay dense after drops: Design.validate checks pins;
     check ids explicitly *)
  Array.iteri
    (fun i (n : Net.t) -> Alcotest.(check int) "net id dense" i n.Net.id)
    repaired.Design.nets

(* ---- pipeline: corrupt input rejected with a typed error ----------- *)

let test_pipeline_rejects_corrupt () =
  with_fixture @@ fun () ->
  (* a NaN gp_z is a fatal preflight issue: the pipeline must refuse it
     with a typed error, never an uncaught exception *)
  let d = Fixtures.clustered () in
  let cells = Array.copy d.Design.cells in
  cells.(0) <- Fixtures.cell ~id:0 ~x:50 ~y:11 ~z:Float.nan ();
  let bad = Design.make ~name:"bad" ~dies:d.Design.dies ~cells () in
  match Pipeline.run bad with
  | Ok _ -> Alcotest.fail "corrupt design accepted"
  | Error e ->
    Alcotest.(check string) "preflight phase" "preflight"
      (Error.phase_name e.Error.phase);
    Alcotest.(check string) "nan code" "nan-gp-z" e.Error.code

let test_pipeline_strict_rejects_warning () =
  with_fixture @@ fun () ->
  let d = Fixtures.clustered () in
  let nets = [| Net.make ~id:0 ~pins:[| 2 |] () |] in
  let warn =
    Design.make ~name:"warn" ~dies:d.Design.dies ~cells:d.Design.cells ~nets ()
  in
  (match Pipeline.run warn with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("warnings must not block by default: " ^ Error.to_string e));
  match
    Pipeline.run ~opts:{ Pipeline.default_options with strict = true } warn
  with
  | Ok _ -> Alcotest.fail "strict mode accepted a design with warnings"
  | Error e ->
    Alcotest.(check string) "strict preflight" "preflight"
      (Error.phase_name e.Error.phase)

let test_pipeline_repairs_corrupt () =
  with_fixture @@ fun () ->
  let d = Fixtures.random 8 in
  let bad, _ = Fault.corrupt ~seed:13 d in
  match
    Pipeline.run ~opts:{ Pipeline.default_options with repair = true } bad
  with
  | Error e -> Alcotest.fail ("repair mode failed: " ^ Error.to_string e)
  | Ok r ->
    Alcotest.(check bool) "legal after repair" true
      (Legality.is_legal r.Pipeline.design r.Pipeline.placement)

(* ---- pipeline: forced solver failure degrades to Tetris ------------- *)

let test_forced_failure_falls_back () =
  with_fixture @@ fun () ->
  let d = Fixtures.random 21 in
  (* two charges: the primary run AND the relaxed retry both fail *)
  Fault.force_failure ~times:2 "flow3d.flow_pass";
  match Pipeline.run d with
  | Error e -> Alcotest.fail ("expected fallback, got: " ^ Error.to_string e)
  | Ok r ->
    Alcotest.(check int) "both injected faults fired" 2
      (Fault.fired "flow3d.flow_pass");
    Alcotest.(check string) "tetris path" "tetris-fallback"
      (Pipeline.path_name r.Pipeline.path);
    Alcotest.(check int) "three attempts" 3 r.Pipeline.attempts;
    Alcotest.(check bool) "final placement legal" true
      (Legality.is_legal r.Pipeline.design r.Pipeline.placement)

let test_forced_failure_retry_succeeds () =
  with_fixture @@ fun () ->
  let d = Fixtures.random 22 in
  Fault.force_failure ~times:1 "flow3d.flow_pass";
  match Pipeline.run d with
  | Error e -> Alcotest.fail ("expected retry, got: " ^ Error.to_string e)
  | Ok r ->
    Alcotest.(check string) "relaxed path" "relaxed-retry"
      (Pipeline.path_name r.Pipeline.path);
    Alcotest.(check bool) "legal" true
      (Legality.is_legal r.Pipeline.design r.Pipeline.placement)

let test_no_fallback_reports_error () =
  with_fixture @@ fun () ->
  let d = Fixtures.random 23 in
  Fault.force_failure "flow3d.flow_pass";
  match
    Pipeline.run ~opts:{ Pipeline.default_options with fallback = false } d
  with
  | Ok _ -> Alcotest.fail "expected the injected failure to surface"
  | Error e ->
    Alcotest.(check string) "flow phase" "flow" (Error.phase_name e.Error.phase);
    Alcotest.(check string) "injected code" "injected" e.Error.code

(* ---- pipeline: exhausted budget yields a best-effort fallback ------- *)

(* 40 six-wide cells piled on one point: without the flow phase (budget 0
   kills it) they all land in one row segment and PlaceRow cannot resolve
   the overflow, so the primary and relaxed attempts are illegal and the
   pipeline must degrade to Tetris. *)
let dense_pileup () =
  let cells =
    Array.init 40 (fun id ->
        Fixtures.cell ~id ~w0:6 ~w1:6 ~x:50 ~y:11 ~z:0.1 ())
  in
  Design.make ~name:"dense_pileup" ~dies:(Fixtures.two_dies ()) ~cells ()

let test_budget_zero_best_effort () =
  with_fixture @@ fun () ->
  let agg = Tdf_telemetry.Aggregate.create () in
  Tdf_telemetry.with_sink (Tdf_telemetry.Aggregate.sink agg) @@ fun () ->
  let d = dense_pileup () in
  match
    Pipeline.run ~opts:{ Pipeline.default_options with budget_ms = Some 0 } d
  with
  | Error e -> Alcotest.fail ("budget run errored: " ^ Error.to_string e)
  | Ok r ->
    Alcotest.(check bool) "a placement came back" true
      (Tdf_netlist.Placement.n_cells r.Pipeline.placement = Design.n_cells d);
    Alcotest.(check bool) "fallback chain engaged" true
      (Tdf_telemetry.Aggregate.counter_total agg "robust.fallbacks" > 0);
    Alcotest.(check bool) "tetris result is legal" true
      (Legality.is_legal r.Pipeline.design r.Pipeline.placement)

let test_budget_unlimited_primary () =
  with_fixture @@ fun () ->
  let d = Fixtures.random 33 in
  match Pipeline.run d with
  | Error e -> Alcotest.fail (Error.to_string e)
  | Ok r ->
    Alcotest.(check string) "primary path" "primary"
      (Pipeline.path_name r.Pipeline.path);
    Alcotest.(check int) "one attempt" 1 r.Pipeline.attempts;
    Alcotest.(check bool) "stats present" true (r.Pipeline.stats <> None)

(* ---- mcmf: typed negative-cycle error ------------------------------ *)

(* A frozen graph of [(src, dst, cap, cost)] edges on [n] vertices. *)
let mcmf_graph n edges =
  let b = Mcmf.Builder.create n in
  List.iter
    (fun (src, dst, cap, cost) ->
      ignore (Mcmf.Builder.add_edge b ~src ~dst ~cap ~cost))
    edges;
  Mcmf.Csr.of_builder b

let test_mcmf_negative_cycle_typed () =
  (* 0 -> 1 -> 2 -> 1 with a negative cycle between 1 and 2 *)
  let g =
    mcmf_graph 4 [ (0, 1, 1, 0); (1, 2, 5, -4); (2, 1, 5, 1); (2, 3, 1, 0) ]
  in
  match
    Mcmf.solve_csr g ~ws:(Mcmf.Workspace.create ()) ~source:0 ~sink:3 ()
  with
  | Ok _ -> Alcotest.fail "negative cycle not detected"
  | Error (Mcmf.Negative_cycle arcs) ->
    Alcotest.(check bool) "offending arcs reported" true (arcs <> []);
    Alcotest.(check bool) "the -4 arc is in the set" true
      (List.exists (fun (a : Mcmf.arc) -> a.Mcmf.a_cost = -4) arcs)

let test_mcmf_injected_failure () =
  with_fixture @@ fun () ->
  let g = mcmf_graph 2 [ (0, 1, 1, 1) ] and ws = Mcmf.Workspace.create () in
  Fault.force_failure "mcmf.solve";
  (match Mcmf.solve_csr g ~ws ~source:0 ~sink:1 () with
  | Ok _ -> Alcotest.fail "injected mcmf failure did not fire"
  | Error (Mcmf.Negative_cycle arcs) ->
    Alcotest.(check int) "no arcs on injected failure" 0 (List.length arcs));
  (* disarmed now: the same solve succeeds *)
  match Mcmf.solve_csr g ~ws ~source:0 ~sink:1 () with
  | Ok s ->
    Alcotest.(check int) "flow" 1 s.Mcmf.flow;
    Alcotest.(check bool) "complete" true s.Mcmf.complete
  | Error _ -> Alcotest.fail "solver still failing after disarm"

let test_mcmf_budget_partial () =
  with_fixture @@ fun () ->
  let g = mcmf_graph 2 [ (0, 1, 3, 1) ] in
  Fault.force_timeout "mcmf";
  match
    Mcmf.solve_csr g ~ws:(Mcmf.Workspace.create ()) ~source:0 ~sink:1
      ~budget:(Budget.create ()) ()
  with
  | Error _ -> Alcotest.fail "timeout must not be an error"
  | Ok s ->
    Alcotest.(check bool) "incomplete" false s.Mcmf.complete;
    Alcotest.(check bool) "partial flow" true (s.Mcmf.flow < 3)

(* ---- budgets and failpoints ---------------------------------------- *)

let test_budget_latches () =
  let b = Budget.create ~max_ops:2 () in
  Alcotest.(check bool) "fresh" false (Budget.exhausted b);
  Budget.tick b 5;
  Alcotest.(check bool) "over ops" true (Budget.exhausted b);
  Alcotest.(check bool) "latched" true (Budget.exhausted b);
  Alcotest.(check bool) "unlimited never exhausts" false
    (Budget.exhausted Budget.unlimited)

let test_failpoint_charges () =
  with_fixture @@ fun () ->
  Fault.force_failure ~times:2 "site.x";
  Alcotest.(check bool) "fires 1" true (Tdf_util.Failpoint.fire "site.x");
  Alcotest.(check bool) "fires 2" true (Tdf_util.Failpoint.fire "site.x");
  Alcotest.(check bool) "spent" false (Tdf_util.Failpoint.fire "site.x");
  Alcotest.(check int) "count" 2 (Fault.fired "site.x")

(* ---- io: raising entry points -------------------------------------- *)

let test_io_exn_entries () =
  let d = Fixtures.clustered () in
  let text = Tdf_io.Text.design_to_string d in
  let d' = Tdf_io.Text.read_design_exn text in
  Alcotest.(check int) "round trip" (Design.n_cells d) (Design.n_cells d');
  Alcotest.(check bool) "bad input raises Failure" true
    (match Tdf_io.Text.read_design_exn "die 0 oops" with
    | exception Failure _ -> true
    | _ -> false);
  Alcotest.(check bool) "contest bad input raises Failure" true
    (match Tdf_io.Contest.read_exn "NumTechnologies nope" with
    | exception Failure _ -> true
    | _ -> false)

let suite =
  [
    Alcotest.test_case "validate clean design" `Quick test_validate_clean;
    Alcotest.test_case "validate NaN gp_z" `Quick test_validate_nan_gp_z;
    Alcotest.test_case "validate degenerate net" `Quick
      test_validate_degenerate_net;
    Alcotest.test_case "repair idempotent" `Quick test_repair_idempotent;
    Alcotest.test_case "repair fixes corruption" `Quick
      test_repair_fixes_corruption;
    Alcotest.test_case "pipeline rejects corrupt input" `Quick
      test_pipeline_rejects_corrupt;
    Alcotest.test_case "strict mode rejects warnings" `Quick
      test_pipeline_strict_rejects_warning;
    Alcotest.test_case "pipeline repairs corrupt input" `Quick
      test_pipeline_repairs_corrupt;
    Alcotest.test_case "forced failure x2 -> tetris fallback" `Quick
      test_forced_failure_falls_back;
    Alcotest.test_case "forced failure x1 -> relaxed retry" `Quick
      test_forced_failure_retry_succeeds;
    Alcotest.test_case "no-fallback surfaces the error" `Quick
      test_no_fallback_reports_error;
    Alcotest.test_case "zero budget -> best-effort fallback" `Quick
      test_budget_zero_best_effort;
    Alcotest.test_case "unlimited budget -> primary path" `Quick
      test_budget_unlimited_primary;
    Alcotest.test_case "mcmf negative cycle typed" `Quick
      test_mcmf_negative_cycle_typed;
    Alcotest.test_case "mcmf injected failure" `Quick test_mcmf_injected_failure;
    Alcotest.test_case "mcmf budget partial solve" `Quick
      test_mcmf_budget_partial;
    Alcotest.test_case "budget latches" `Quick test_budget_latches;
    Alcotest.test_case "failpoint charges" `Quick test_failpoint_charges;
    Alcotest.test_case "io _exn entry points" `Quick test_io_exn_entries;
  ]
