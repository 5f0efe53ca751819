module Json = Tdf_telemetry.Json

type kind = Time | Exact | Bound | Floor

type check = {
  metric : string;
  kind : kind;
  baseline : float;
  current : float;
  ok : bool;
}

type verdict = {
  checks : check list;
  skipped : string list;
  passed : bool;
}

exception Malformed of string

let fail fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

let float_field name j =
  match Option.bind (Json.member name j) Json.to_float with
  | Some v -> v
  | None -> fail "missing numeric field %S" name

let str_field name j =
  match Option.bind (Json.member name j) Json.to_str with
  | Some v -> v
  | None -> fail "missing string field %S" name

let bool_field name j =
  match Json.member name j with
  | Some (Json.Bool b) -> b
  | _ -> fail "missing boolean field %S" name

let list_field name j =
  match Option.bind (Json.member name j) Json.to_list with
  | Some v -> v
  | None -> fail "missing list field %S" name

(* Index a case list by a key field so baseline and current match by name,
   not position. *)
let index ~key cases = List.map (fun c -> (str_field key c, c)) cases

let keyed_int ~key cases =
  List.map
    (fun c ->
      match Option.bind (Json.member key c) Json.to_int with
      | Some v -> (string_of_int v, c)
      | None -> fail "missing numeric field %S" key)
    cases

(* One comparable metric of one case: where to read it and how to judge. *)
type probe = { p_name : string; p_kind : kind; p_read : Json.t -> float }

let solver_probes =
  [
    { p_name = "flow"; p_kind = Exact; p_read = float_field "flow" };
    { p_name = "cost"; p_kind = Exact; p_read = float_field "cost" };
    { p_name = "solve_s"; p_kind = Time; p_read = float_field "solve_s" };
    {
      p_name = "repeat_reuse_s";
      p_kind = Time;
      p_read = float_field "repeat_reuse_s";
    };
  ]

let serve_probes =
  [
    {
      p_name = "legal";
      p_kind = Exact;
      p_read = (fun j -> if bool_field "legal" j then 1. else 0.);
    };
    {
      p_name = "byte_identical";
      p_kind = Exact;
      p_read = (fun j -> if bool_field "byte_identical" j then 1. else 0.);
    };
    { p_name = "warm_p50_ms"; p_kind = Time;
      p_read = (fun j -> float_field "warm_p50_ms" j /. 1000.) };
    { p_name = "warm_p99_ms"; p_kind = Time;
      p_read = (fun j -> float_field "warm_p99_ms" j /. 1000.) };
    { p_name = "speedup_p50"; p_kind = Floor;
      p_read = float_field "speedup_p50" };
    { p_name = "cache_hit_rate"; p_kind = Floor;
      p_read = float_field "cache_hit_rate" };
    {
      p_name = "journal_byte_identical";
      p_kind = Exact;
      p_read = (fun j -> if bool_field "journal_byte_identical" j then 1. else 0.);
    };
    (* A ratio of two latencies measured in the same run: immune to host
       speed (and to --inject-slowdown), so a plain Bound, not Time.  The
       baseline pins the tolerated write-ahead-journal overhead. *)
    { p_name = "journal_overhead_p50"; p_kind = Bound;
      p_read = float_field "journal_overhead_p50" };
  ]

let eco_probes =
  [
    {
      p_name = "legal";
      p_kind = Exact;
      p_read = (fun j -> if bool_field "legal" j then 1. else 0.);
    };
    {
      p_name = "fallbacks";
      p_kind = Bound;
      p_read = float_field "fallbacks";
    };
    { p_name = "eco_s"; p_kind = Time; p_read = float_field "eco_s" };
  ]

let judge ~max_regression ~inject_slowdown ~prefix probes base cur =
  List.map
    (fun p ->
      let b = p.p_read base in
      let c = p.p_read cur in
      let c = if p.p_kind = Time then c *. inject_slowdown else c in
      let ok =
        match p.p_kind with
        | Exact -> b = c
        | Bound -> c <= b
        | Floor ->
          (* The baseline records a pinned minimum (e.g. a required
             speedup), not a measurement: current must stay above it. *)
          c >= b
        | Time ->
          (* A sub-resolution baseline cannot anchor a ratio: hold the
             current value to the same absolute floor instead. *)
          let floor_s = 1e-4 in
          if b < floor_s then c <= floor_s *. max_regression
          else c <= b *. max_regression
      in
      {
        metric = prefix ^ "/" ^ p.p_name;
        kind = p.p_kind;
        baseline = b;
        current = c;
        ok;
      })
    probes

let pair_up ~section base_cases cur_cases =
  let skipped = ref [] in
  let pairs =
    List.filter_map
      (fun (name, b) ->
        match List.assoc_opt name cur_cases with
        | Some c -> Some (name, b, c)
        | None ->
          skipped := (section ^ "/" ^ name ^ " (baseline only)") :: !skipped;
          None)
      base_cases
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name base_cases) then
        skipped := (section ^ "/" ^ name ^ " (current only)") :: !skipped)
    cur_cases;
  (pairs, List.rev !skipped)

let compare_json ?(max_regression = 1.25) ?(inject_slowdown = 1.0) ~baseline
    ~current () =
  try
    let shape j =
      if Json.member "cases" j <> None then `Solver
      else if Json.member "serve_runs" j <> None then `Serve
      (* BENCH_parallel.json also carries a "runs" list, so this test
         must come before the eco fallback. *)
      else if Json.member "recommended_domain_count" j <> None then `Parallel
      else if Json.member "runs" j <> None then `Eco
      else
        fail
          "unrecognized benchmark file (no \"cases\", \"runs\" or \
           \"serve_runs\" field)"
    in
    let sb = shape baseline and sc = shape current in
    if sb <> sc then fail "baseline and current are different benchmark kinds";
    match sb with
    | `Parallel ->
      (* One sweep keyed by jobs plus the top-level determinism bit; each
         run contributes one wall-clock check. *)
      let wall =
        [ { p_name = "wall_s"; p_kind = Time; p_read = float_field "wall_s" } ]
      in
      let idx j = keyed_int ~key:"jobs" (list_field "runs" j) in
      let jp, skipped = pair_up ~section:"parallel/jobs" (idx baseline) (idx current) in
      if jp = [] then fail "no overlapping cases between baseline and current";
      let det =
        [
          {
            p_name = "deterministic";
            p_kind = Exact;
            p_read = (fun j -> if bool_field "deterministic" j then 1. else 0.);
          };
        ]
      in
      let checks =
        judge ~max_regression ~inject_slowdown ~prefix:"parallel" det baseline
          current
        @ List.concat_map
            (fun (name, b, c) ->
              judge ~max_regression ~inject_slowdown
                ~prefix:("parallel/jobs=" ^ name)
                wall b c)
            jp
      in
      Ok { checks; skipped; passed = List.for_all (fun c -> c.ok) checks }
    | (`Solver | `Eco | `Serve) as sb ->
      let section, key, probes, list_name =
        match sb with
        | `Solver -> ("solver", `Str "name", solver_probes, "cases")
        | `Eco -> ("eco", `Int "delta_cells", eco_probes, "runs")
        | `Serve -> ("serve", `Str "name", serve_probes, "serve_runs")
      in
      let index_of j =
        let cases = list_field list_name j in
        match key with
        | `Str k -> index ~key:k cases
        | `Int k -> keyed_int ~key:k cases
      in
      let pairs, skipped =
        pair_up ~section (index_of baseline) (index_of current)
      in
      if pairs = [] then fail "no overlapping cases between baseline and current";
      let checks =
        List.concat_map
          (fun (name, b, c) ->
            judge ~max_regression ~inject_slowdown
              ~prefix:(section ^ "/" ^ name)
              probes b c)
          pairs
      in
      Ok { checks; skipped; passed = List.for_all (fun c -> c.ok) checks }
  with Malformed msg -> Error msg

let load path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Json.of_string s with
  | Ok j -> Ok j
  | Error e -> Error (Printf.sprintf "%s: %s" path e)

let compare_files ?max_regression ?inject_slowdown ~baseline ~current () =
  match (load baseline, load current) with
  | Error e, _ | _, Error e -> Error e
  | Ok b, Ok c ->
    compare_json ?max_regression ?inject_slowdown ~baseline:b ~current:c ()

let kind_name = function
  | Time -> "time"
  | Exact -> "exact"
  | Bound -> "bound"
  | Floor -> "floor"

let render v =
  let buf = Buffer.create 512 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "%-40s %-6s %12s %12s  %s\n" "metric" "kind" "baseline" "current" "ok";
  List.iter
    (fun c ->
      out "%-40s %-6s %12.6g %12.6g  %s\n" c.metric (kind_name c.kind)
        c.baseline c.current
        (if c.ok then "ok" else "FAIL"))
    v.checks;
  List.iter (fun s -> out "skipped: %s\n" s) v.skipped;
  out "%s\n" (if v.passed then "GATE PASS" else "GATE FAIL");
  Buffer.contents buf
