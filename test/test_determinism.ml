(* Determinism regression suite: every parallel section must be invisible
   in the results.  Legalizing a design, regenerating the experiments
   grid, or totalling telemetry counters with 1, 2 or 8 worker domains
   yields byte-identical output — the property the --jobs flag documents
   and the pool's merge-in-submission-order design exists to guarantee. *)

module Runner = Tdf_experiments.Runner
module Spec = Tdf_benchgen.Spec

let job_counts = [ 1; 2; 8 ]

(* Run [f] under each job count and return one result per count, with the
   default pool restored afterwards. *)
let across_jobs f =
  let before = Tdf_par.jobs () in
  Fun.protect
    ~finally:(fun () -> Tdf_par.set_jobs before)
    (fun () ->
      List.map
        (fun jobs ->
          Tdf_par.set_jobs jobs;
          f ())
        job_counts)

let check_all_equal what = function
  | [] | [ _ ] -> ()
  | first :: rest ->
    List.iteri
      (fun i r ->
        Alcotest.(check string)
          (Printf.sprintf "%s: jobs=%d matches jobs=%d" what
             (List.nth job_counts (i + 1))
             (List.hd job_counts))
          first r)
      rest

(* Five benchgen cases across both suites, small scale so the whole matrix
   stays fast.  Serialized placements (full x/y/die of every cell) are the
   strongest observable output of a run. *)
let determinism_cases =
  [
    (Spec.Iccad2022, "case2");
    (Spec.Iccad2022, "case4");
    (Spec.Iccad2023, "case2");
    (Spec.Iccad2023, "case3");
    (Spec.Iccad2023, "case3h");
  ]

let test_flow3d_placements_invariant () =
  List.iter
    (fun (suite, case) ->
      let design =
        Tdf_benchgen.Gen.generate ~scale:0.02 (Spec.find suite case)
      in
      let runs =
        across_jobs (fun () ->
            let r = Tdf_legalizer.Flow3d.legalize design in
            Tdf_io.Text.placement_to_string design
              r.Tdf_legalizer.Flow3d.placement)
      in
      check_all_equal (Spec.suite_slug suite ^ "/" ^ case) runs)
    determinism_cases

let test_baseline_placements_invariant () =
  (* Abacus' final PlaceRow loop is the other parallel placement path. *)
  let design =
    Tdf_benchgen.Gen.generate ~scale:0.02 (Spec.find Spec.Iccad2023 "case2")
  in
  let runs =
    across_jobs (fun () ->
        Tdf_io.Text.placement_to_string design
          (Tdf_baselines.Abacus.legalize design))
  in
  check_all_equal "abacus placement" runs

(* The comparison table contains a wall-clock column; zero it before
   rendering so the text compares the deterministic content only. *)
let zero_runtimes results =
  List.map
    (fun (r : Runner.case_result) ->
      {
        r with
        Runner.rows =
          List.map (fun row -> { row with Runner.runtime_s = 0. }) r.Runner.rows;
      })
    results

let test_experiments_grid_invariant () =
  let runs =
    across_jobs (fun () ->
        Tdf_experiments.Tables.comparison ~title:"determinism-check"
          (zero_runtimes (Runner.run_suite ~scale:0.02 Spec.Iccad2023)))
  in
  check_all_equal "experiments grid" runs

let test_metrics_invariant () =
  (* HPWL and displacement reduce through fixed-size chunks: the float
     totals must be bitwise equal at every job count. *)
  let design =
    Tdf_benchgen.Gen.generate ~scale:0.05 (Spec.find Spec.Iccad2023 "case2")
  in
  let r = Tdf_legalizer.Flow3d.legalize design in
  let p = r.Tdf_legalizer.Flow3d.placement in
  let runs =
    across_jobs (fun () ->
        let s = Tdf_metrics.Displacement.summary design p in
        Printf.sprintf "%h %h %h %h %h"
          (Tdf_metrics.Hpwl.increase_pct design p)
          s.Tdf_metrics.Displacement.avg_norm s.Tdf_metrics.Displacement.max_norm
          s.Tdf_metrics.Displacement.avg_raw s.Tdf_metrics.Displacement.avg_weighted)
  in
  check_all_equal "metric reductions (bitwise)" runs

let test_telemetry_totals_invariant () =
  (* Counter totals from a fully instrumented legalization (MCMF pops,
     augmentations, grid resets, ...) must not depend on the job count:
     captured task events are replayed exactly once each. *)
  let design =
    Tdf_benchgen.Gen.generate ~scale:0.02 (Spec.find Spec.Iccad2023 "case2")
  in
  let runs =
    across_jobs (fun () ->
        let agg = Tdf_telemetry.Aggregate.create () in
        Tdf_telemetry.with_sink (Tdf_telemetry.Aggregate.sink agg) (fun () ->
            ignore (Tdf_legalizer.Flow3d.legalize design));
        Tdf_telemetry.Aggregate.counter_names agg
        |> List.map (fun name ->
               Printf.sprintf "%s=%d" name
                 (Tdf_telemetry.Aggregate.counter_total agg name))
        |> String.concat "\n")
  in
  check_all_equal "telemetry counter totals" runs;
  Alcotest.(check bool)
    "instrumentation saw counters" true
    (String.length (List.hd runs) > 0)

let suite =
  [
    Alcotest.test_case "flow3d placements invariant (5 cases)" `Quick
      test_flow3d_placements_invariant;
    Alcotest.test_case "abacus placement invariant" `Quick
      test_baseline_placements_invariant;
    Alcotest.test_case "experiments grid invariant" `Quick
      test_experiments_grid_invariant;
    Alcotest.test_case "metric reductions bitwise invariant" `Quick
      test_metrics_invariant;
    Alcotest.test_case "telemetry totals invariant" `Quick
      test_telemetry_totals_invariant;
  ]
