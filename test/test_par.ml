(* Tests for the deterministic domain pool (lib/par).

   The pool's contract is that scheduling is invisible: results land in
   submission-index order, every index runs exactly once, exceptions
   propagate to the submitter, and nested submissions degrade to inline
   execution instead of deadlocking.  Everything here runs on real spawned
   domains (pool sizes > 1), so these tests double as a race detector
   under `dune runtest` on multicore hosts. *)

module Pool = Tdf_par.Pool

let with_pool n f =
  let p = Pool.create n in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let test_create_clamps () =
  with_pool 0 (fun p -> Alcotest.(check int) "clamped up" 1 (Pool.size p));
  with_pool 3 (fun p -> Alcotest.(check int) "as asked" 3 (Pool.size p))

let test_map_order () =
  with_pool 4 (fun p ->
      let a = Pool.map_array p (fun i -> i * i) (Array.init 100 (fun i -> i)) in
      Alcotest.(check (array int))
        "squares in order"
        (Array.init 100 (fun i -> i * i))
        a)

let test_exactly_once_coverage () =
  with_pool 4 (fun p ->
      let n = 1000 in
      let hits = Array.make n 0 in
      (* Each task writes only its own slot, so no synchronization is
         needed and any duplicate/missed index shows up in the counts. *)
      Pool.run p ~n (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool)
        "every index exactly once" true
        (Array.for_all (fun c -> c = 1) hits))

exception Boom of int

let test_exception_propagates () =
  with_pool 4 (fun p ->
      (match Pool.run p ~n:64 (fun i -> if i = 37 then raise (Boom i)) with
      | () -> Alcotest.fail "expected Boom"
      | exception Boom 37 -> ()
      | exception e ->
        Alcotest.failf "wrong exception: %s" (Printexc.to_string e));
      (* the same pool must survive its failed job *)
      let a = Pool.map_array p string_of_int (Array.init 5 (fun i -> i)) in
      Alcotest.(check (array string))
        "pool usable after failure"
        [| "0"; "1"; "2"; "3"; "4" |]
        a)

let test_nested_runs_inline () =
  with_pool 2 (fun p ->
      let inner_ran = Atomic.make 0 and in_task = Atomic.make 0 in
      Pool.run p ~n:4 (fun _ ->
          (* Alcotest prints through one shared Format queue, which is not
             domain-safe, so tasks only count and the submitter asserts. *)
          if Pool.in_task () then Atomic.incr in_task;
          (* a nested submission must not wait on the busy workers *)
          Pool.run p ~n:3 (fun _ -> Atomic.incr inner_ran));
      Alcotest.(check int) "every body saw in_task" 4 (Atomic.get in_task);
      Alcotest.(check int) "nested bodies all ran" 12 (Atomic.get inner_ran));
  Alcotest.(check bool) "outside task" false (Pool.in_task ())

let test_shutdown_idempotent_and_inline () =
  let p = Pool.create 3 in
  Pool.shutdown p;
  Pool.shutdown p;
  (* post-shutdown submissions degrade to inline execution *)
  let a = Pool.map_array p (fun i -> i + 1) (Array.init 4 (fun i -> i)) in
  Alcotest.(check (array int)) "inline after shutdown" [| 1; 2; 3; 4 |] a

let test_set_jobs_roundtrip () =
  let before = Tdf_par.jobs () in
  Tdf_par.set_jobs 2;
  Alcotest.(check int) "jobs follows set_jobs" 2 (Tdf_par.jobs ());
  let a = Tdf_par.map_array string_of_int (Array.init 6 (fun i -> i)) in
  Alcotest.(check (array string))
    "default pool works"
    [| "0"; "1"; "2"; "3"; "4"; "5" |]
    a;
  Tdf_par.set_jobs before;
  Alcotest.(check int) "restored" before (Tdf_par.jobs ())

let test_telemetry_capture_deterministic () =
  (* Counters emitted from pool tasks are replayed in submission order on
     the submitting domain: the aggregate totals match the sequential run
     and the sink never needs locking. *)
  let totals jobs =
    with_pool jobs (fun p ->
        let agg = Tdf_telemetry.Aggregate.create () in
        Tdf_telemetry.with_sink (Tdf_telemetry.Aggregate.sink agg) (fun () ->
            Pool.run p ~n:500 (fun i ->
                Tdf_telemetry.incr "par.test.tasks";
                Tdf_telemetry.count "par.test.weight" (i mod 7)));
        ( Tdf_telemetry.Aggregate.counter_total agg "par.test.tasks",
          Tdf_telemetry.Aggregate.counter_total agg "par.test.weight" ))
  in
  let t1 = totals 1 and t4 = totals 4 in
  Alcotest.(check (pair int int)) "counter totals invariant" t1 t4;
  Alcotest.(check int) "exact task count" 500 (fst t4)

let suite =
  [
    Alcotest.test_case "create clamps size" `Quick test_create_clamps;
    Alcotest.test_case "map_array preserves order" `Quick test_map_order;
    Alcotest.test_case "run covers exactly once" `Quick test_exactly_once_coverage;
    Alcotest.test_case "exception propagates, pool survives" `Quick
      test_exception_propagates;
    Alcotest.test_case "nested submission runs inline" `Quick test_nested_runs_inline;
    Alcotest.test_case "shutdown idempotent, then inline" `Quick
      test_shutdown_idempotent_and_inline;
    Alcotest.test_case "set_jobs roundtrip" `Quick test_set_jobs_roundtrip;
    Alcotest.test_case "telemetry capture deterministic" `Quick
      test_telemetry_capture_deterministic;
  ]
