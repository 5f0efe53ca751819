(* Determinism regression suite: the experiments grid is the one parallel
   section, and it must be invisible in the results.  Regenerating the grid
   with 1, 2 or 8 worker domains yields byte-identical output — the
   property `compare --jobs` documents and the pool's
   merge-in-submission-order design exists to guarantee. *)

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

let suite =
  [
    Alcotest.test_case "experiments grid invariant" `Quick
      test_experiments_grid_invariant;
  ]
