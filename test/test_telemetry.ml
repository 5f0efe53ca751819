module T = Tdf_telemetry
module Json = Tdf_telemetry.Json
module Aggregate = Tdf_telemetry.Aggregate
module Jsonl = Tdf_telemetry.Jsonl
module Trace = Tdf_telemetry.Trace

(* Every test resets the global registry on both paths so a failure cannot
   leak an installed sink into unrelated suites. *)
let isolated f () = Fun.protect f ~finally:T.reset

(* ---- core span / counter semantics -------------------------------- *)

let spans_of evs =
  List.filter_map
    (function T.Span { name; depth; start_ns; dur_ns } -> Some (name, depth, start_ns, dur_ns) | _ -> None)
    evs

let test_span_nesting_ordering () =
  let j = Jsonl.create () in
  T.with_sink (Jsonl.sink j) (fun () ->
      T.span "outer" (fun () ->
          T.span "inner_a" (fun () -> ignore (Sys.opaque_identity (ref 0)));
          T.span "inner_b" (fun () -> ())));
  let evs =
    match Jsonl.parse (Jsonl.contents j) with
    | Ok evs -> evs
    | Error e -> Alcotest.failf "parse: %s" e
  in
  match spans_of evs with
  | [ (na, da, sa, la); (nb, db, sb, _); (no, dp, so, lo) ] ->
    Alcotest.(check (list string))
      "post-order close" [ "inner_a"; "inner_b"; "outer" ] [ na; nb; no ];
    Alcotest.(check int) "inner_a depth" 1 da;
    Alcotest.(check int) "inner_b depth" 1 db;
    Alcotest.(check int) "outer depth" 0 dp;
    Alcotest.(check bool) "children start after parent" true
      (Int64.compare sa so >= 0 && Int64.compare sb so >= 0);
    Alcotest.(check bool) "inner_a nested in outer" true
      (Int64.compare (Int64.add sa la) (Int64.add so lo) <= 0);
    Alcotest.(check bool) "inner_b starts after inner_a ends" true
      (Int64.compare sb (Int64.add sa la) >= 0)
  | spans -> Alcotest.failf "expected 3 spans, got %d" (List.length spans)

let test_span_returns_and_raises () =
  let agg = Aggregate.create () in
  T.with_sink (Aggregate.sink agg) (fun () ->
      Alcotest.(check int) "span returns f's value" 42 (T.span "ret" (fun () -> 42));
      (try T.span "boom" (fun () -> failwith "x") with Failure _ -> ());
      Alcotest.(check int) "raising span still recorded" 1
        (Aggregate.span_count agg "boom"));
  Alcotest.(check int) "ret recorded" 1 (Aggregate.span_count agg "ret")

let test_counter_totals () =
  let agg = Aggregate.create () in
  T.with_sink (Aggregate.sink agg) (fun () ->
      T.count "edges" 3;
      T.count "edges" 4;
      T.incr "edges";
      T.incr "other");
  Alcotest.(check int) "summed" 8 (Aggregate.counter_total agg "edges");
  Alcotest.(check int) "other" 1 (Aggregate.counter_total agg "other");
  Alcotest.(check int) "unseen is 0" 0 (Aggregate.counter_total agg "nope")

let test_disabled_and_null_inert () =
  T.reset ();
  Alcotest.(check bool) "disabled by default" false (T.enabled ());
  Alcotest.(check int) "span passes through when disabled" 7
    (T.span "ghost" (fun () -> 7));
  T.count "ghost" 5;
  T.observe "ghost" 1.0;
  (* The null sink turns probes on but discards everything, and behavior
     under it is unchanged. *)
  let r = T.with_sink T.null (fun () ->
      Alcotest.(check bool) "enabled under null" true (T.enabled ());
      T.count "ghost" 5;
      T.span "ghost" (fun () -> 11))
  in
  Alcotest.(check int) "value preserved under null" 11 r;
  Alcotest.(check bool) "disabled after with_sink" false (T.enabled ());
  (* Nothing leaked anywhere observable: a fresh aggregate sees no ghosts. *)
  let agg = Aggregate.create () in
  T.with_sink (Aggregate.sink agg) (fun () -> ());
  Alcotest.(check int) "no ghost spans" 0 (Aggregate.span_count agg "ghost");
  Alcotest.(check int) "no ghost counters" 0 (Aggregate.counter_total agg "ghost")

let test_multiple_sinks () =
  let a1 = Aggregate.create () and a2 = Aggregate.create () in
  T.install (Aggregate.sink a1);
  T.install (Aggregate.sink a2);
  T.incr "x";
  T.reset ();
  Alcotest.(check int) "sink 1 saw it" 1 (Aggregate.counter_total a1 "x");
  Alcotest.(check int) "sink 2 saw it" 1 (Aggregate.counter_total a2 "x");
  T.incr "x";
  Alcotest.(check int) "nothing after reset" 1 (Aggregate.counter_total a1 "x")

(* ---- JSONL round-trip ---------------------------------------------- *)

let test_jsonl_round_trip () =
  let j = Jsonl.create () in
  let recorded = ref [] in
  let recorder ev = recorded := ev :: !recorded in
  T.install (Jsonl.sink j);
  T.install recorder;
  T.span "s\"needs escaping\\" (fun () -> T.count "c" 3);
  T.observe "h" 2.5;
  T.observe "h" 0.125;
  T.reset ();
  let expected = List.rev !recorded in
  (match Jsonl.parse (Jsonl.contents j) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok evs ->
    Alcotest.(check int) "event count" (List.length expected) (List.length evs);
    Alcotest.(check bool) "events round-trip exactly" true (evs = expected));
  (* serialize → parse → serialize is a fixed point *)
  let reserialized =
    match Jsonl.parse (Jsonl.contents j) with
    | Ok evs ->
      String.concat ""
        (List.map (fun e -> Json.to_string (Jsonl.event_to_json e) ^ "\n") evs)
    | Error e -> Alcotest.failf "reparse failed: %s" e
  in
  Alcotest.(check string) "fixed point" (Jsonl.contents j) reserialized

(* ---- Chrome trace export ------------------------------------------- *)

let test_trace_golden () =
  let tr = Trace.create () in
  T.with_sink (Trace.sink tr) (fun () ->
      T.span "phase.flow" (fun () ->
          T.span "phase.augment" (fun () -> ());
          T.count "pops" 12);
      T.observe "runtime_s" 0.5);
  let s = Trace.to_string tr in
  let json =
    match Json.of_string s with
    | Ok j -> j
    | Error e -> Alcotest.failf "trace is not well-formed JSON: %s" e
  in
  let events =
    match Option.bind (Json.member "traceEvents" json) Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  let field k j = Option.bind (Json.member k j) Json.to_str in
  let names = List.filter_map (field "name") events in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " present") true (List.mem n names))
    [ "process_name"; "phase.flow"; "phase.augment"; "pops"; "runtime_s" ];
  (* span events are complete ("X") events with numeric ts/dur *)
  let xs =
    List.filter (fun e -> field "ph" e = Some "X") events
  in
  Alcotest.(check int) "two X events" 2 (List.length xs);
  List.iter
    (fun e ->
      let num k = Option.bind (Json.member k e) Json.to_float in
      Alcotest.(check bool) "ts >= 0" true (Option.get (num "ts") >= 0.);
      Alcotest.(check bool) "dur >= 0" true (Option.get (num "dur") >= 0.))
    xs;
  (* the nested span closes first, so it serializes before its parent *)
  (match List.filter_map (field "name") xs with
  | [ a; b ] ->
    Alcotest.(check string) "child first" "phase.augment" a;
    Alcotest.(check string) "parent second" "phase.flow" b
  | _ -> Alcotest.fail "expected exactly two span names");
  (* counter event carries the cumulative value *)
  let c = List.find (fun e -> field "ph" e = Some "C" && field "name" e = Some "pops") events in
  let v =
    Option.bind (Json.member "args" c) (fun a ->
        Option.bind (Json.member "value" a) Json.to_int)
  in
  Alcotest.(check (option int)) "cumulative counter" (Some 12) v

(* ---- aggregate rendering / JSON ------------------------------------ *)

let test_aggregate_summary () =
  let agg = Aggregate.create () in
  T.with_sink (Aggregate.sink agg) (fun () ->
      for _ = 1 to 10 do
        T.span "work" (fun () -> ignore (Sys.opaque_identity (Array.make 64 0)))
      done;
      T.count "items" 100;
      T.observe "disp" 1.5;
      T.observe "disp" 2.5);
  let row = Aggregate.span_row agg "work" in
  Alcotest.(check int) "count" 10 row.Aggregate.count;
  Alcotest.(check bool) "total >= mean" true (row.Aggregate.total_ms >= row.Aggregate.mean_ms);
  Alcotest.(check bool) "p99 >= p50" true (row.Aggregate.p99_ms >= row.Aggregate.p50_ms);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  let rendered = Aggregate.render agg in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in table") true (contains rendered needle))
    [ "work"; "items"; "disp"; "p95" ];
  let json = Aggregate.to_json agg in
  let count =
    Option.bind (Json.member "spans" json) (fun s ->
        Option.bind (Json.member "work" s) (fun w ->
            Option.bind (Json.member "count" w) Json.to_int))
  in
  Alcotest.(check (option int)) "json span count" (Some 10) count;
  let hist_count =
    Option.bind (Json.member "histograms" json) (fun h ->
        Option.bind (Json.member "disp" h) (fun d ->
            Option.bind (Json.member "count" d) Json.to_int))
  in
  Alcotest.(check (option int)) "json histogram count" (Some 2) hist_count

(* ---- Json mini-library --------------------------------------------- *)

let test_json_round_trip () =
  let v =
    Json.Obj
      [
        ("s", Json.String "a \"quoted\" \\ line\nwith\ttabs");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.List []; Json.Obj [] ]);
      ]
  in
  (match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round trip" true (v = v')
  | Error e -> Alcotest.failf "round trip failed: %s" e);
  (match Json.of_string "{\"a\": [1, 2.5, \"x\", null, true]}" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "vanilla parse failed: %s" e);
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Ok _ -> Alcotest.failf "accepted bad JSON %S" bad
      | Error _ -> ())
    [ "{"; "[1,]"; "\"unterminated"; "{\"a\" 1}"; "nulll"; "" ]

(* ---- end-to-end: instrumented legalizer ----------------------------- *)

let test_flow3d_instrumented () =
  let design = Fixtures.random 3 in
  (* telemetry must not perturb results: same placement with and without *)
  let base = (Tdf_legalizer.Flow3d.legalize design).Tdf_legalizer.Flow3d.placement in
  let agg = Aggregate.create () in
  let p =
    T.with_sink (Aggregate.sink agg) (fun () ->
        (Tdf_legalizer.Flow3d.legalize design).Tdf_legalizer.Flow3d.placement)
  in
  Alcotest.(check bool) "identical placement under telemetry" true
    (base.Tdf_netlist.Placement.x = p.Tdf_netlist.Placement.x
    && base.Tdf_netlist.Placement.y = p.Tdf_netlist.Placement.y
    && base.Tdf_netlist.Placement.die = p.Tdf_netlist.Placement.die);
  Alcotest.(check int) "one legalize span" 1
    (Aggregate.span_count agg "flow3d.legalize");
  Alcotest.(check bool) "flow_pass recorded" true
    (Aggregate.span_count agg "flow3d.flow_pass" >= 1);
  Alcotest.(check bool) "place_row recorded" true
    (Aggregate.span_count agg "flow3d.place_row" >= 1);
  Alcotest.(check bool) "augmentation counter present" true
    (List.mem "flow3d.augmentations" (Aggregate.counter_names agg))

let test_mcmf_instrumented () =
  let agg = Aggregate.create () in
  T.with_sink (Aggregate.sink agg) (fun () ->
      let module M = Tdf_flow.Mcmf in
      let b = M.Builder.create 4 in
      List.iter
        (fun (src, dst, cap, cost) ->
          ignore (M.Builder.add_edge b ~src ~dst ~cap ~cost))
        [ (0, 1, 2, 1); (1, 3, 2, 1); (0, 2, 1, 3); (2, 3, 1, 3) ];
      match
        M.solve_csr (M.Csr.of_builder b) ~ws:(M.Workspace.create ()) ~source:0
          ~sink:3 ()
      with
      | Ok s -> Alcotest.(check int) "flow" 3 s.M.flow
      | Error e -> Alcotest.fail (M.error_to_string e));
  Alcotest.(check int) "solver span" 1
    (Aggregate.span_count agg "mcmf.min_cost_flow");
  Alcotest.(check bool) "augmentations counted" true
    (Aggregate.counter_total agg "mcmf.augmentations" >= 2);
  Alcotest.(check bool) "pops counted" true
    (Aggregate.counter_total agg "mcmf.dijkstra_pops" > 0)

(* ---- domain safety ------------------------------------------------- *)

(* Raw concurrent emission (no pool, no capture): N domains hammering one
   counter.  Dispatch serializes sink calls under the registry mutex, so
   the aggregate must count every increment — a lost update here means a
   data race in the core. *)
let test_concurrent_counters_exact () =
  let domains = 4 and per_domain = 10_000 in
  let agg = Aggregate.create () in
  T.with_sink (Aggregate.sink agg) (fun () ->
      let spawned =
        Array.init domains (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to per_domain do
                  T.incr "conc.hits"
                done))
      in
      Array.iter Domain.join spawned);
  Alcotest.(check int)
    "no lost increments" (domains * per_domain)
    (Aggregate.counter_total agg "conc.hits")

let test_concurrent_jsonl_lines_atomic () =
  (* Concurrent emitters into a JSONL sink: every line must be one intact
     event (interleaved writes would corrupt the JSON), and per-domain
     event counts must all arrive. *)
  let domains = 4 and per_domain = 2_000 in
  let j = Jsonl.create () in
  T.with_sink (Jsonl.sink j) (fun () ->
      let spawned =
        Array.init domains (fun d ->
            Domain.spawn (fun () ->
                let name = Printf.sprintf "conc.d%d" d in
                for i = 1 to per_domain do
                  T.count name (i land 1)
                done))
      in
      Array.iter Domain.join spawned);
  match Jsonl.parse (Jsonl.contents j) with
  | Error e -> Alcotest.failf "interleaved/corrupt JSONL: %s" e
  | Ok evs ->
    Alcotest.(check int) "all events present" (domains * per_domain)
      (List.length evs);
    for d = 0 to domains - 1 do
      let name = Printf.sprintf "conc.d%d" d in
      let n =
        List.length
          (List.filter
             (function T.Count { name = n; _ } -> n = name | _ -> false)
             evs)
      in
      Alcotest.(check int) (name ^ " count") per_domain n
    done

let test_concurrent_spans_per_domain_depth () =
  (* Span depth is domain-local: concurrent spans from different domains
     keep their own nesting (depths 0/1), never each other's. *)
  let agg = Aggregate.create () in
  T.with_sink (Aggregate.sink agg) (fun () ->
      let spawned =
        Array.init 4 (fun d ->
            Domain.spawn (fun () ->
                let name = Printf.sprintf "conc.span%d" d in
                for _ = 1 to 500 do
                  T.span name (fun () -> T.span (name ^ ".in") (fun () -> ()))
                done))
      in
      Array.iter Domain.join spawned);
  for d = 0 to 3 do
    let name = Printf.sprintf "conc.span%d" d in
    Alcotest.(check int) (name ^ " outer") 500 (Aggregate.span_count agg name);
    Alcotest.(check int)
      (name ^ " inner") 500
      (Aggregate.span_count agg (name ^ ".in"))
  done

(* The run-based printer and parser against their byte-at-a-time
   references (ref_json.ml): the same bytes out, and on printed values,
   their truncations and random edits the same value or the same error
   string, offsets included. *)
let string_pieces =
  [| "a"; "plain run "; "\""; "\\"; "\n"; "\r"; "\t"; "\000"; "\031"; "\127"; "\xc3\xa9";
     "/"; "\\u"; "u00"; "41"; "\\n" |]

let json_value rng =
  let pick a = a.(Tdf_util.Prng.int_in rng 0 (Array.length a - 1)) in
  let str () =
    String.concat "" (List.init (Tdf_util.Prng.int_in rng 0 8) (fun _ -> pick string_pieces))
  in
  let rec value depth =
    match Tdf_util.Prng.int_in rng 0 (if depth > 2 then 3 else 5) with
    | 0 -> Json.Int (Tdf_util.Prng.int_in rng (-1000) 1000)
    | 1 -> Json.Null
    | 2 | 3 -> Json.String (str ())
    | 4 -> Json.List (List.init (Tdf_util.Prng.int_in rng 0 3) (fun _ -> value (depth + 1)))
    | _ ->
      Json.Obj
        (List.init (Tdf_util.Prng.int_in rng 0 3) (fun _ -> (str (), value (depth + 1))))
  in
  value 0

let json_edit rng text =
  let n = String.length text in
  let at = Tdf_util.Prng.int_in rng 0 n in
  match Tdf_util.Prng.int_in rng 0 3 with
  | 0 -> String.sub text 0 at
  | 1 ->
    let bytes = [| "\""; "\\"; "u"; "1"; "}"; "]"; ","; "\n"; "x" |] in
    String.sub text 0 at ^ bytes.(Tdf_util.Prng.int_in rng 0 (Array.length bytes - 1))
    ^ String.sub text at (n - at)
  | 2 when at < n -> String.sub text 0 at ^ String.sub text (at + 1) (n - at - 1)
  | _ -> text

let prop_json_reference =
  Props.test "json: same bytes, values and errors as the reference" ~count:500
    (Props.int_range 0 1_000_000) (fun seed ->
      let rng = Tdf_util.Prng.create seed in
      let v = json_value rng in
      let text = Json.to_string v in
      let edited = json_edit rng text in
      let same a b =
        Marshal.to_string a [ Marshal.No_sharing ] = Marshal.to_string b [ Marshal.No_sharing ]
      in
      text = Ref_json.to_string v
      && same (Json.of_string text) (Ref_json.of_string text)
      && same (Json.of_string edited) (Ref_json.of_string edited))

let suite =
  [
    Alcotest.test_case "span nesting and ordering" `Quick
      (isolated test_span_nesting_ordering);
    Alcotest.test_case "span returns and raises" `Quick
      (isolated test_span_returns_and_raises);
    Alcotest.test_case "counter totals" `Quick (isolated test_counter_totals);
    Alcotest.test_case "disabled and null sink inert" `Quick
      (isolated test_disabled_and_null_inert);
    Alcotest.test_case "multiple sinks" `Quick (isolated test_multiple_sinks);
    Alcotest.test_case "jsonl round trip" `Quick (isolated test_jsonl_round_trip);
    Alcotest.test_case "chrome trace golden" `Quick (isolated test_trace_golden);
    Alcotest.test_case "aggregate summary" `Quick (isolated test_aggregate_summary);
    Alcotest.test_case "json round trip" `Quick (isolated test_json_round_trip);
    prop_json_reference;
    Alcotest.test_case "flow3d instrumented" `Quick
      (isolated test_flow3d_instrumented);
    Alcotest.test_case "mcmf instrumented" `Quick (isolated test_mcmf_instrumented);
    Alcotest.test_case "concurrent counters exact" `Quick
      (isolated test_concurrent_counters_exact);
    Alcotest.test_case "concurrent jsonl lines atomic" `Quick
      (isolated test_concurrent_jsonl_lines_atomic);
    Alcotest.test_case "concurrent spans per-domain depth" `Quick
      (isolated test_concurrent_spans_per_domain_depth);
  ]
