(* The ledger's statistics.  Expected quantiles are what Python's
   statistics.quantiles gives on the same samples. *)

module St = Ledger_stats

let feq = Alcotest.float 1e-9

let test_median () =
  Alcotest.check feq "odd" 3. (St.median [| 5.; 1.; 3. |]);
  Alcotest.check feq "even" 2.5 (St.median [| 4.; 1.; 2.; 3. |]);
  Alcotest.check feq "single" 7. (St.median [| 7. |])

let test_quartiles () =
  let check name xs (a, b, c) =
    Alcotest.check feq (name ^ " q1") a (St.quantile xs 0.25);
    Alcotest.check feq (name ^ " q2") b (St.quantile xs 0.5);
    Alcotest.check feq (name ^ " q3") c (St.quantile xs 0.75)
  in
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  check "1..10" (Array.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  (* statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: extrapolated *)
  check "two" [| 2.; 1. |] (0.75, 1.5, 2.25);
  (* statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5] *)
  check "unsorted" [| 3.; 1.; 4.; 1.; 5. |] (1., 3., 4.5);
  (* statistics.quantiles(range(1, 101), n=100)[89] == 90.9 *)
  Alcotest.check feq "p90" 90.9 (St.quantile (Array.init 100 (fun i -> float_of_int (i + 1))) 0.9)

let test_tail_percentile () =
  let pct = Alcotest.(option (float 0.)) in
  Alcotest.check pct "too few" None (St.tail_percentile 19);
  Alcotest.check pct "20 samples" (Some 50.) (St.tail_percentile 20);
  Alcotest.check pct "40 samples" (Some 75.) (St.tail_percentile 40);
  Alcotest.check pct "100 samples" (Some 90.) (St.tail_percentile 100);
  Alcotest.check pct "199 samples" (Some 90.) (St.tail_percentile 199);
  Alcotest.check pct "200 samples" (Some 95.) (St.tail_percentile 200);
  Alcotest.check pct "10000 samples" (Some 99.9) (St.tail_percentile 10000)

let span name depth start dur =
  { St.name; depth; start_ns = Int64.of_int start; dur_ns = Int64.of_int dur }

let selfs spans =
  List.map (fun ((s : St.span), self) -> (s.name, Int64.to_int self)) (St.self_times spans)

let pairs = Alcotest.(list (pair string int))

let test_self_times () =
  (* root [0,100) > a [10,40) > a1 [15,25); root > b [50,90) — post-order *)
  Alcotest.check pairs "nested and siblings"
    [ ("a1", 10); ("a", 20); ("b", 40); ("root", 30) ]
    (selfs
       [
         span "a1" 2 15 10; span "a" 1 10 30; span "b" 1 50 40; span "root" 0 0 100;
       ]);
  (* Two roots in a row: the second does not inherit the first's children. *)
  Alcotest.check pairs "consecutive roots"
    [ ("c", 5); ("r1", 5); ("r2", 7) ]
    (selfs [ span "c" 1 0 5; span "r1" 0 0 10; span "r2" 0 20 7 ]);
  (* A deeper subtree after a sibling closes: grandchildren count only
     towards their own parent. *)
  Alcotest.check pairs "deeper subtree after a sibling"
    [ ("x", 4); ("y1", 3); ("y", 6); ("top", 2) ]
    (selfs
       [ span "x" 1 0 4; span "y1" 2 5 3; span "y" 1 5 9; span "top" 0 0 15 ])

let () =
  Alcotest.run "ledger"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "tail percentile" `Quick test_tail_percentile;
          Alcotest.test_case "self times" `Quick test_self_times;
        ] );
    ]
