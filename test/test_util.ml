module Prng = Tdf_util.Prng
module Stats = Tdf_util.Stats

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_of_string_stable () =
  let a = Prng.of_string "case2" and b = Prng.of_string "case2" in
  Alcotest.(check int64) "seeded equal" (Prng.bits64 a) (Prng.bits64 b);
  let c = Prng.of_string "case3" in
  Alcotest.(check bool) "different seed differs" true
    (Prng.bits64 (Prng.of_string "case2") <> Prng.bits64 c)

(* The bound-respecting properties run on the in-repo harness: instead of
   one hand-picked bound per test, the bound itself (and the stream seed)
   is generated, and a violation shrinks to the smallest offending bound. *)
let prop_prng_int_bounds =
  Props.test "prng int stays in [0,n)"
    Props.(pair (int_range 1 1000) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Prng.create seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Prng.int rng n in
        if v < 0 || v >= n then ok := false
      done;
      !ok)

let prop_prng_int_in_bounds =
  Props.test "prng int_in stays in [lo,hi]"
    Props.(triple (int_range (-500) 500) (int_range 0 1000) (int_range 0 1_000_000))
    (fun (lo, span, seed) ->
      let hi = lo + span in
      let rng = Prng.create seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Prng.int_in rng lo hi in
        if v < lo || v > hi then ok := false
      done;
      !ok)

let prop_prng_float_bounds =
  Props.test "prng float stays in [0,x)"
    Props.(pair (float_range 0.001 1000.) (int_range 0 1_000_000))
    (fun (x, seed) ->
      let rng = Prng.create seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Prng.float rng x in
        if v < 0. || v >= x then ok := false
      done;
      !ok)

let test_prng_gaussian_moments () =
  let rng = Prng.create 10 in
  let n = 20000 in
  let xs = Array.init n (fun _ -> Prng.gaussian rng ~mean:3.0 ~stddev:2.0) in
  let s = Stats.summarize xs in
  Alcotest.(check bool) "mean near 3" true (Float.abs (s.Stats.mean -. 3.0) < 0.1);
  Alcotest.(check bool) "stddev near 2" true (Float.abs (s.Stats.stddev -. 2.0) < 0.1)

let test_prng_shuffle_permutation () =
  let rng = Prng.create 11 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_prng_split_independent () =
  let rng = Prng.create 12 in
  let child = Prng.split rng in
  Alcotest.(check bool) "streams differ" true (Prng.bits64 rng <> Prng.bits64 child)

let test_heap_pop_order () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.add h ~key:k k) [ 3.; 1.; 2.; -5.; 10.; 0. ];
  let order = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (k, _) ->
      order := k :: !order;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 1e-9)))
    "ascending" [ -5.; 0.; 1.; 2.; 3.; 10. ] (List.rev !order)

let test_heap_empty () =
  let h : int Heap.t = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check bool) "pop none" true (Heap.pop h = None);
  Alcotest.check_raises "pop_exn raises" (Invalid_argument "Heap.pop_exn: empty heap")
    (fun () -> ignore (Heap.pop_exn h))

let test_heap_peek () =
  let h = Heap.create () in
  Heap.add h ~key:5. "a";
  Heap.add h ~key:2. "b";
  (match Heap.peek h with
  | Some (k, v) ->
    Alcotest.(check (float 0.)) "peek key" 2. k;
    Alcotest.(check string) "peek value" "b" v
  | None -> Alcotest.fail "expected peek");
  Alcotest.(check int) "length" 2 (Heap.length h)

let test_heap_clear () =
  let h = Heap.create () in
  for i = 1 to 10 do
    Heap.add h ~key:(float_of_int i) i
  done;
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list (float_bound_exclusive 1000.))
    (fun keys ->
      let h = Heap.create () in
      List.iter (fun k -> Heap.add h ~key:k ()) keys;
      let rec drain acc =
        match Heap.pop h with Some (k, ()) -> drain (k :: acc) | None -> List.rev acc
      in
      let drained = drain [] in
      drained = List.sort compare keys)

module Heap_int = Tdf_util.Heap_int

let test_heap_int_pop_order () =
  let h = Heap_int.create () in
  List.iter (fun k -> Heap_int.add h ~key:k k) [ 3; 1; 2; -5; 10; 0 ];
  let order = ref [] in
  let rec drain () =
    match Heap_int.pop h with
    | Some (k, _) ->
      order := k :: !order;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "ascending" [ -5; 0; 1; 2; 3; 10 ] (List.rev !order)

let test_heap_int_top_accessors () =
  let h = Heap_int.create ~capacity:4 () in
  Heap_int.add h ~key:5 50;
  Heap_int.add h ~key:2 20;
  Heap_int.add h ~key:7 70;
  Alcotest.(check int) "top key" 2 (Heap_int.top_key h);
  Alcotest.(check int) "top value" 20 (Heap_int.top_value h);
  Heap_int.remove_top h;
  Alcotest.(check int) "next key" 5 (Heap_int.top_key h);
  Alcotest.(check int) "length" 2 (Heap_int.length h);
  Heap_int.clear h;
  Alcotest.(check bool) "cleared" true (Heap_int.is_empty h);
  Alcotest.check_raises "top_key raises"
    (Invalid_argument "Heap_int.top_key: empty heap") (fun () ->
      ignore (Heap_int.top_key h));
  Alcotest.check_raises "remove_top raises"
    (Invalid_argument "Heap_int.remove_top: empty heap") (fun () ->
      Heap_int.remove_top h)

let prop_heap_int_sorts =
  QCheck.Test.make ~name:"int heap drains in sorted order" ~count:200
    QCheck.(list (int_range (-1000) 1000))
    (fun keys ->
      let h = Heap_int.create () in
      List.iter (fun k -> Heap_int.add h ~key:k 0) keys;
      let rec drain acc =
        match Heap_int.pop h with
        | Some (k, _) -> drain (k :: acc)
        | None -> List.rev acc
      in
      drain [] = List.sort compare keys)

(* Model check: an arbitrary interleaving of add/pop/clear behaves like a
   sorted multiset — every pop returns a minimal key with a value that was
   inserted under it, and length tracks the model throughout. *)
type heap_op = Add of int * int | Pop | Clear

let heap_op_arb =
  let print = function
    | Add (k, v) -> Printf.sprintf "Add(%d,%d)" k v
    | Pop -> "Pop"
    | Clear -> "Clear"
  in
  let shrink = function
    | Add (k, v) ->
      [ Pop ]
      @ (if k <> 0 then [ Add (k / 2, v) ] else [])
      @ if v <> 0 then [ Add (k, v / 2) ] else []
    | Pop -> []
    | Clear -> [ Pop ]
  in
  Props.make ~shrink ~print (fun rng ->
      match Tdf_util.Prng.int rng 10 with
      | 0 -> Clear
      | 1 | 2 | 3 -> Pop
      | _ -> Add (Tdf_util.Prng.int_in rng (-50) 50, Tdf_util.Prng.int rng 1000))

let prop_heap_int_model =
  Props.test "int heap matches sorted-multiset model" ~count:200
    (Props.list ~max_len:60 heap_op_arb)
    (fun ops ->
      let h = Heap_int.create () in
      let model = ref [] in
      (* unordered (key, value) multiset mirroring the heap *)
      List.for_all
        (fun op ->
          match op with
          | Add (k, v) ->
            Heap_int.add h ~key:k v;
            model := (k, v) :: !model;
            Heap_int.length h = List.length !model
          | Clear ->
            Heap_int.clear h;
            model := [];
            Heap_int.is_empty h
          | Pop -> (
            match (Heap_int.pop h, !model) with
            | None, [] -> true
            | None, _ :: _ | Some _, [] -> false
            | Some (k, v), m ->
              let kmin =
                List.fold_left (fun acc (k', _) -> min acc k') max_int m
              in
              if k <> kmin || not (List.mem (k, v) m) then false
              else begin
                let removed = ref false in
                model :=
                  List.filter
                    (fun e ->
                      if (not !removed) && e = (k, v) then begin
                        removed := true;
                        false
                      end
                      else true)
                    m;
                true
              end))
        ops)

module Heap_radix = Tdf_util.Heap_radix

(* The radix heap against the same sorted-multiset model, plus its monotone
   contract: once a minimum was extracted, a smaller {!Heap_radix.add} must
   raise (loud invariant) and leave the heap untouched, and pops never go
   below the floor.  The op
   stream reuses {!heap_op_arb}, so out-of-order pushes (keys in [-50, 50]
   against a rising floor), duplicate priorities and decrease-key-by-
   reinsertion interleavings all occur and shrink with TDFLOW_PROP_SEED
   replay like every Props test. *)
let prop_heap_radix_model =
  Props.test "radix heap matches model + monotone contract" ~count:300
    (Props.list ~max_len:60 heap_op_arb)
    (fun ops ->
      let h = Heap_radix.create () in
      let model = ref [] in
      let floor = ref min_int in
      let remove_one k v =
        let removed = ref false in
        model :=
          List.filter
            (fun e ->
              if (not !removed) && e = (k, v) then begin
                removed := true;
                false
              end
              else true)
            !model;
        !removed
      in
      List.for_all
        (fun op ->
          match op with
          | Add (k, v) when k < !floor ->
            let raised =
              match Heap_radix.add h ~key:k v with
              | () -> false
              | exception Invalid_argument _ -> true
            in
            raised && Heap_radix.length h = List.length !model
          | Add (k, v) ->
            Heap_radix.add h ~key:k v;
            model := (k, v) :: !model;
            Heap_radix.length h = List.length !model
          | Clear ->
            Heap_radix.clear h;
            model := [];
            floor := min_int;
            Heap_radix.is_empty h && Heap_radix.last_extracted h = min_int
          | Pop -> (
            match (Heap_radix.pop h, !model) with
            | None, [] -> true
            | None, _ :: _ | Some _, [] -> false
            | Some (k, v), m ->
              let kmin =
                List.fold_left (fun acc (k', _) -> min acc k') max_int m
              in
              if k <> kmin || k < !floor then false
              else begin
                floor := k;
                remove_one k v && Heap_radix.last_extracted h = k
              end))
        ops)

let test_heap_radix_monotone_violation () =
  let h = Heap_radix.create () in
  Heap_radix.add h ~key:5 50;
  Heap_radix.add h ~key:3 30;
  Alcotest.(check (pair int int))
    "min first" (3, 30)
    (Option.get (Heap_radix.pop h));
  (* floor is now 3: going below must raise; equal keys are still legal *)
  Alcotest.check_raises "below-floor add raises"
    (Invalid_argument
       "Heap_radix.add: monotone violation (key below extracted min)")
    (fun () -> Heap_radix.add h ~key:2 20);
  Heap_radix.add h ~key:7 70;
  Heap_radix.add h ~key:3 31;
  Alcotest.(check (pair int int))
    "key at the floor pops first" (3, 31)
    (Option.get (Heap_radix.pop h));
  Alcotest.(check (pair int int))
    "then original entry" (5, 50)
    (Option.get (Heap_radix.pop h));
  Alcotest.(check (pair int int))
    "then late entry" (7, 70)
    (Option.get (Heap_radix.pop h));
  Alcotest.(check bool) "drained" true (Heap_radix.is_empty h);
  Heap_radix.clear h;
  (* clear resets the floor: small keys are legal again *)
  Heap_radix.add h ~key:(-41) 1;
  Alcotest.(check int) "negative key after clear" (-41) (Heap_radix.top_key h)

(* Sorted drain across a wide signed range: the bucket-by-highest-
   differing-bit layout must order two's-complement keys exactly like
   signed comparison (the XOR bias argument in heap_radix.ml). *)
let prop_heap_radix_sorts =
  QCheck.Test.make ~name:"radix heap drains sorted (signed keys)" ~count:200
    QCheck.(list (int_range (-1_000_000_000) 1_000_000_000))
    (fun keys ->
      let h = Heap_radix.create () in
      List.iteri (fun i k -> Heap_radix.add h ~key:k i) keys;
      let rec drain acc =
        if Heap_radix.is_empty h then List.rev acc
        else begin
          let k = Heap_radix.top_key h in
          Heap_radix.remove_top h;
          drain (k :: acc)
        end
      in
      drain [] = List.sort compare keys)

let prop_heap_int_matches_float_heap_tie_order =
  (* Migrating a caller from float keys to exact int keys must not perturb
     its traversal: on duplicate keys both heaps pop values in the same
     order (identical sift logic). *)
  QCheck.Test.make ~name:"int heap tie order matches float heap" ~count:200
    QCheck.(list (pair (int_range 0 20) small_nat))
    (fun entries ->
      let hf = Heap.create () and hi = Heap_int.create () in
      List.iter
        (fun (k, v) ->
          Heap.add hf ~key:(float_of_int k) v;
          Heap_int.add hi ~key:k v)
        entries;
      let rec drain acc =
        match (Heap.pop hf, Heap_int.pop hi) with
        | None, None -> acc
        | Some (fk, fv), Some (ik, iv) ->
          drain (acc && int_of_float fk = ik && fv = iv)
        | _ -> false
      in
      drain true)

let test_stats_summary () =
  let s = Stats.summarize [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "max" 4. s.Stats.max;
  Alcotest.(check (float 1e-9)) "min" 1. s.Stats.min;
  Alcotest.(check (float 1e-9)) "total" 10. s.Stats.total;
  Alcotest.(check int) "count" 4 s.Stats.count

let test_stats_empty () =
  let s = Stats.summarize [||] in
  Alcotest.(check int) "count 0" 0 s.Stats.count;
  Alcotest.(check (float 0.)) "mean 0" 0. s.Stats.mean;
  Alcotest.(check (float 0.)) "percentile 0" 0. (Stats.percentile [||] 50.)

let test_stats_percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50. (Stats.percentile xs 50.);
  Alcotest.(check (float 1e-9)) "p100" 100. (Stats.percentile xs 100.);
  Alcotest.(check (float 1e-9)) "p1" 1. (Stats.percentile xs 1.)

let test_stats_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 2. (Stats.geomean [| 1.; 2.; 4. |]);
  Alcotest.(check (float 0.)) "nonpositive yields 0" 0. (Stats.geomean [| 1.; 0. |]);
  Alcotest.(check (float 0.)) "empty yields 0" 0. (Stats.geomean [||])

let test_timer () =
  let x, dt = Tdf_util.Timer.time (fun () -> 42) in
  Alcotest.(check int) "result" 42 x;
  Alcotest.(check bool) "non-negative" true (dt >= 0.)

let test_timer_monotonic () =
  let module Timer = Tdf_util.Timer in
  let prev = ref (Timer.now_ns ()) in
  for _ = 1 to 1000 do
    let t = Timer.now_ns () in
    Alcotest.(check bool) "now_ns never goes backwards" true
      (Int64.compare t !prev >= 0);
    prev := t
  done;
  Alcotest.(check bool) "elapsed_ns non-negative" true
    (Int64.compare (Timer.elapsed_ns !prev) 0L >= 0)

let test_timer_conversions () =
  let module Timer = Tdf_util.Timer in
  Alcotest.(check (float 1e-9)) "ns_to_s" 1.5 (Timer.ns_to_s 1_500_000_000L);
  Alcotest.(check (float 1e-9)) "ns_to_ms" 2.25 (Timer.ns_to_ms 2_250_000L);
  (* a real sleep must register on the monotonic clock *)
  let t0 = Timer.now_ns () in
  Unix.sleepf 0.01;
  let dt = Timer.ns_to_s (Timer.elapsed_ns t0) in
  Alcotest.(check bool) "sleep measured" true (dt >= 0.009 && dt < 5.)

(* ---- Decimal: the writers' number rendering ------------------------ *)

module Decimal = Tdf_util.Decimal

let fixed6 x =
  let b = Buffer.create 32 in
  Decimal.add_fixed6 b x;
  Buffer.contents b

let same_as_printf x = fixed6 x = Printf.sprintf "%.6f" x

(* Exact ties: an odd multiple of 1/128 is k + 1/2 millionths. *)
let ties =
  List.concat_map
    (fun base ->
      List.concat_map
        (fun j ->
          let x = base +. (float_of_int ((2 * j) + 1) /. 128.) in
          [ x; -.x ])
        (List.init 64 Fun.id))
    [ 0.; 1.; 12345.; 4096. *. 4096. *. 64. ]

let limit = 9007199254.740992

let edges =
  let around x = [ Float.pred x; x; Float.succ x ] in
  List.concat_map
    (fun x -> [ x; -.x ])
    ([ 0.; Float.min_float; Int64.float_of_bits 1L; Int64.float_of_bits 0xfffffffffffffL; 5e-7; 1.5e-6 ]
    @ around 5e-7 @ around 4.9999999e-7 @ around limit @ around 1e10
    @ [ 1e300; Float.max_float; infinity; 0.1; 0.9; 1.0; 0.0078125; 123456.7890125 ])
  @ [ nan; -.nan; Int64.float_of_bits 0x7ff8000000000001L ]

let test_fixed6_cases () =
  List.iter
    (fun x ->
      Alcotest.(check string)
        (Printf.sprintf "%h" x) (Printf.sprintf "%.6f" x) (fixed6 x))
    (ties @ edges)

(* Any double, mostly huge or tiny. *)
let prop_fixed6_bits =
  Props.test "fixed6: random bit patterns render as %.6f" ~count:3000
    (Props.int_range 0 1_000_000) (fun seed ->
      same_as_printf (Int64.float_of_bits (Prng.bits64 (Prng.create seed))))

(* Doubles in the fast range, and doubles a few ulps from a tie there. *)
let fast_range rng =
  let m = 1. +. Prng.float rng 1. in
  let x = Float.ldexp m (Prng.int_in rng (-30) 32) in
  if Prng.bool rng then x else -.x

let near_tie rng =
  let k = Prng.int_in rng 0 (1 lsl Prng.int_in rng 1 52) in
  let x = ref ((float_of_int k +. 0.5) /. 1e6) in
  for _ = 1 to Prng.int_in rng 0 4 do
    x := if Prng.bool rng then Float.succ !x else Float.pred !x
  done;
  !x

let prop_fixed6_near =
  Props.test "fixed6: fast-range and near-tie values render as %.6f"
    ~count:5000 (Props.int_range 0 1_000_000) (fun seed ->
      let rng = Prng.create seed in
      same_as_printf (fast_range rng) && same_as_printf (near_tie rng))

(* The fast path gives up only within 1e-9 of a tie: read the digits of
   |x| * 10^6 past the point from the exact expansion and measure. *)
let tie_distance x =
  let s = Printf.sprintf "%.40f" (Float.abs x) in
  let f = String.sub s (String.index s '.' + 1) 40 in
  Float.abs (float_of_string ("0." ^ String.sub f 6 34) -. 0.5)

let prop_round6_falls_back_near_ties =
  Props.test "round6: Printf fallback only within 1e-9 of a tie" ~count:5000
    (Props.int_range 0 1_000_000) (fun seed ->
      let rng = Prng.create seed in
      List.for_all
        (fun x -> Decimal.round6 x >= 0 || tie_distance x < 1e-9 +. 1e-15)
        [ fast_range rng; near_tie rng ])

let prop_add_int =
  Props.test "add_int renders as string_of_int" ~count:2000
    (Props.int_range 0 1_000_000) (fun seed ->
      let rng = Prng.create seed in
      let v =
        match Prng.int_in rng 0 2 with
        | 0 -> Prng.int_in rng (-1000) 1000
        | 1 -> Int64.to_int (Prng.bits64 rng)
        | _ -> [| min_int; max_int; 0; -1 |].(Prng.int_in rng 0 3)
      in
      let b = Buffer.create 24 in
      Decimal.add_int b v;
      Buffer.contents b = string_of_int v)

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng of_string stable" `Quick test_prng_of_string_stable;
    prop_prng_int_bounds;
    prop_prng_int_in_bounds;
    prop_prng_float_bounds;
    Alcotest.test_case "prng gaussian moments" `Quick test_prng_gaussian_moments;
    Alcotest.test_case "prng shuffle permutation" `Quick test_prng_shuffle_permutation;
    Alcotest.test_case "prng split independent" `Quick test_prng_split_independent;
    Alcotest.test_case "heap pop order" `Quick test_heap_pop_order;
    Alcotest.test_case "heap empty" `Quick test_heap_empty;
    Alcotest.test_case "heap peek/length" `Quick test_heap_peek;
    Alcotest.test_case "heap clear" `Quick test_heap_clear;
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    Alcotest.test_case "int heap pop order" `Quick test_heap_int_pop_order;
    Alcotest.test_case "int heap top accessors" `Quick test_heap_int_top_accessors;
    QCheck_alcotest.to_alcotest prop_heap_int_sorts;
    prop_heap_int_model;
    QCheck_alcotest.to_alcotest prop_heap_int_matches_float_heap_tie_order;
    prop_heap_radix_model;
    Alcotest.test_case "radix heap monotone contract" `Quick
      test_heap_radix_monotone_violation;
    QCheck_alcotest.to_alcotest prop_heap_radix_sorts;
    Alcotest.test_case "stats summary" `Quick test_stats_summary;
    Alcotest.test_case "stats empty" `Quick test_stats_empty;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats geomean" `Quick test_stats_geomean;
    Alcotest.test_case "timer" `Quick test_timer;
    Alcotest.test_case "timer monotonic" `Quick test_timer_monotonic;
    Alcotest.test_case "timer conversions" `Quick test_timer_conversions;
    Alcotest.test_case "fixed6: ties, zeros, subnormals, limits" `Quick
      test_fixed6_cases;
    prop_fixed6_bits;
    prop_fixed6_near;
    prop_round6_falls_back_near_ties;
    prop_add_int;
  ]
