(* Benchmark harness: runs the solver, parallel, ECO and serve benchmarks
   that CI gates, and regenerates every table and figure of the paper's
   evaluation section (§IV) on the synthetic ICCAD-style suites.

   Usage: main.exe [SUITE]... [--scale S]
     solver    MCMF solver microbenchmark; checks the small case against
               bench/golden_solver.txt and exits 1 on mismatch
     parallel  experiments grid at 1 2 4 8 domains
     eco       incremental ECO vs from-scratch latency
     serve     warm daemon vs one-shot CLI chain
     paper     Tables II-V, Fig. 7, Fig. 8, ablations and telemetry
     scaling   runtime and search effort of every method on ICCAD 2023
               case4 at scales 0.02 0.05 0.1 0.2
   Suites run in the order given; with none named, all six run in the
   order above.  --scale S (default 0.05) sizes the parallel and paper
   cases.  A bad suite name or scale exits 2 before any suite runs.

   The ECO and serve benchmarks run iccad2023/case2 at scale 0.05 (the
   serve one streams 120 warm ECOs and chains the first 20 through the
   one-shot CLI), and the design-choice ablations always run: that is the
   shape the ci/baselines files were recorded at. *)

(* Generated artifacts (BENCH_*.json, fig7 CSV, fig8 SVGs) land under one
   directory instead of littering the repo root; CI uploads it wholesale. *)
let out_dir = "out"

let out_path name = Filename.concat out_dir name

(* Writes one artifact under [out_dir] and returns its path. *)
let write_out name text =
  let path = out_path name in
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  path

let write_json name json =
  write_out name (Tdf_telemetry.Json.to_string json ^ "\n")

(* ------------------------------------------------------------------ *)
(* MCMF solver microbenchmark: Builder/Csr/Workspace core              *)
(* ------------------------------------------------------------------ *)

module Mcmf = Tdf_flow.Mcmf
module Prng = Tdf_util.Prng
module Json = Tdf_telemetry.Json

(* Transportation network shaped like a legalization bin graph: source ->
   supply bins -> windowed demand bins -> sink.  Same generator as the
   differential tests in [test/test_flow.ml], so the pinned golden values
   cover a graph family the test suite already cross-checks against the
   seed solver. *)
let transportation_edges ~supplies ~demands ~window ~seed add_edge =
  let rng = Prng.create seed in
  let ns = supplies and ndem = demands in
  let source = 0 and sink = ns + ndem + 1 in
  let sup = Array.init ns (fun _ -> 1 + Prng.int rng 8) in
  let dem = Array.init ndem (fun _ -> 1 + Prng.int rng 8) in
  for i = 0 to ns - 1 do
    add_edge ~src:source ~dst:(1 + i) ~cap:sup.(i) ~cost:0
  done;
  for j = 0 to ndem - 1 do
    add_edge ~src:(1 + ns + j) ~dst:sink ~cap:dem.(j) ~cost:0
  done;
  for i = 0 to ns - 1 do
    let center = i * ndem / ns in
    for dj = -window to window do
      let j = center + dj in
      if j >= 0 && j < ndem then
        add_edge ~src:(1 + i) ~dst:(1 + ns + j)
          ~cap:(min sup.(i) dem.(j))
          ~cost:(abs dj + Prng.int rng 3)
    done
  done;
  (source, sink)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let solve_csr_exn g ~ws ~source ~sink =
  match Mcmf.solve_csr g ~ws ~source ~sink () with
  | Ok s -> (s.Mcmf.flow, s.Mcmf.cost)
  | Error e -> failwith (Mcmf.error_to_string e)

type solver_case = {
  sc_name : string;
  sc_vertices : int;
  sc_edges : int;
  sc_flow : int;
  sc_cost : int;
  sc_build_s : float;
  sc_solve_s : float;
  sc_iters : int;
  sc_repeat_reuse_s : float;
  sc_repeat_rebuild_s : float;
  sc_minor_words_solve : float;
  sc_augmentations : int;
}

let run_solver_case ~name ~supplies ~demands ~window ~iters =
  let n = supplies + demands + 2 in
  let build () =
    let b = Mcmf.Builder.create n in
    let source, sink =
      transportation_edges ~supplies ~demands ~window ~seed:42
        (fun ~src ~dst ~cap ~cost ->
          ignore (Mcmf.Builder.add_edge b ~src ~dst ~cap ~cost))
    in
    (Mcmf.Csr.of_builder b, source, sink)
  in
  let (g, source, sink), build_s = timed build in
  let ws = Mcmf.Workspace.create () in
  (* Fresh solve, uninstrumented, so the minor-words delta measures the
     solver alone (an aggregating sink would bill its own allocation). *)
  let mw0 = Gc.minor_words () in
  let (flow, cost), solve_s =
    timed (fun () -> solve_csr_exn g ~ws ~source ~sink)
  in
  let minor_words = Gc.minor_words () -. mw0 in
  (* One instrumented re-solve to count augmentations. *)
  let agg = Tdf_telemetry.Aggregate.create () in
  let snk = Tdf_telemetry.Aggregate.sink agg in
  Tdf_telemetry.install snk;
  Mcmf.Csr.reset_caps g;
  let flow', cost' = solve_csr_exn g ~ws ~source ~sink in
  Tdf_telemetry.remove snk;
  assert (flow' = flow && cost' = cost);
  let augmentations =
    Tdf_telemetry.Aggregate.counter_total agg "mcmf.augmentations"
  in
  (* Repeated solves in the hot-loop shape: reset capacities, reuse the
     frozen graph and scratch ... *)
  let (), repeat_reuse_s =
    timed (fun () ->
        for _ = 1 to iters do
          Mcmf.Csr.reset_caps g;
          ignore (solve_csr_exn g ~ws ~source ~sink)
        done)
  in
  (* ... versus rebuilding graph and scratch from scratch every time. *)
  let (), repeat_rebuild_s =
    timed (fun () ->
        for _ = 1 to iters do
          let g, source, sink = build () in
          let ws = Mcmf.Workspace.create () in
          ignore (solve_csr_exn g ~ws ~source ~sink)
        done)
  in
  Printf.printf
    "  %-6s n=%5d m=%6d flow=%5d cost=%6d build=%.4fs solve=%.4fs \
     repeat(%d): reuse=%.4fs rebuild=%.4fs minor_words=%.0f augs=%d\n%!"
    name n (Mcmf.Csr.n_edges g) flow cost build_s solve_s iters repeat_reuse_s
    repeat_rebuild_s minor_words augmentations;
  {
    sc_name = name;
    sc_vertices = n;
    sc_edges = Mcmf.Csr.n_edges g;
    sc_flow = flow;
    sc_cost = cost;
    sc_build_s = build_s;
    sc_solve_s = solve_s;
    sc_iters = iters;
    sc_repeat_reuse_s = repeat_reuse_s;
    sc_repeat_rebuild_s = repeat_rebuild_s;
    sc_minor_words_solve = minor_words;
    sc_augmentations = augmentations;
  }

let solver_case_json r =
  Json.Obj
    [
      ("name", Json.String r.sc_name);
      ("n_vertices", Json.Int r.sc_vertices);
      ("n_edges", Json.Int r.sc_edges);
      ("flow", Json.Int r.sc_flow);
      ("cost", Json.Int r.sc_cost);
      ("build_s", Json.Float r.sc_build_s);
      ("solve_s", Json.Float r.sc_solve_s);
      ("repeat_iters", Json.Int r.sc_iters);
      ("repeat_reuse_s", Json.Float r.sc_repeat_reuse_s);
      ("repeat_rebuild_s", Json.Float r.sc_repeat_rebuild_s);
      ("minor_words_solve", Json.Float r.sc_minor_words_solve);
      ("augmentations", Json.Int r.sc_augmentations);
      ( "minor_words_per_aug",
        Json.Float
          (if r.sc_augmentations = 0 then 0.
           else r.sc_minor_words_solve /. float_of_int r.sc_augmentations) );
    ]

(* Golden file format: '#' comments plus "flow <int>" / "cost <int>"
   lines pinning the small case.  A mismatch means the solver's arithmetic
   changed, which the differential tests should have caught first.  The
   path is relative to the repository root, where the bench runs from. *)
let check_golden results =
  let path = "bench/golden_solver.txt" in
  let exp_flow = ref None and exp_cost = ref None in
  let ic =
    try open_in path
    with Sys_error e ->
      Printf.eprintf "GOLDEN: %s\n" e;
      exit 1
  in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         match
           String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
         with
         | [ "flow"; v ] -> exp_flow := Some (int_of_string v)
         | [ "cost"; v ] -> exp_cost := Some (int_of_string v)
         | _ -> ()
     done
   with End_of_file -> close_in ic);
  match
    (!exp_flow, !exp_cost, List.find_opt (fun r -> r.sc_name = "small") results)
  with
  | Some f, Some c, Some r ->
    if r.sc_flow = f && r.sc_cost = c then
      Printf.printf "Golden check OK: small case (flow=%d, cost=%d) matches %s\n"
        f c path
    else begin
      Printf.eprintf
        "GOLDEN MISMATCH: small case solved (flow=%d, cost=%d) but %s pins \
         (flow=%d, cost=%d)\n"
        r.sc_flow r.sc_cost path f c;
      exit 1
    end
  | _ ->
    Printf.eprintf "GOLDEN: could not parse flow/cost from %s\n" path;
    exit 1

let run_solver_bench () =
  Printf.printf "== MCMF solver microbenchmark (CSR core) ==\n";
  (* The large (n=5002) case runs by default: it is the one where the
     blocking phases pay off, and the checked-in
     ci/baselines/BENCH_solver.json pins it. *)
  let cases =
    [
      ("small", 24, 24, 4, 200);
      ("medium", 400, 400, 8, 20);
      ("large", 2500, 2500, 12, 5);
    ]
  in
  let results =
    List.map
      (fun (name, supplies, demands, window, iters) ->
        run_solver_case ~name ~supplies ~demands ~window ~iters)
      cases
  in
  let json =
    Json.Obj
      [
        ("generated_by", Json.String "bench/main.ml");
        ("cases", Json.List (List.map solver_case_json results));
      ]
  in
  Printf.printf "Solver microbenchmark written to %s\n"
    (write_json "BENCH_solver.json" json);
  check_golden results;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Parallel scaling: the experiments grid across domain counts         *)
(* ------------------------------------------------------------------ *)

(* One suite reproduction per domain count, timed end-to-end.  The grid
   output is required to be bit-identical at every count (the pool's
   determinism contract), so besides the timings this doubles as a
   cross-check: the rendered comparison table — with the nondeterministic
   runtime column zeroed — must match the jobs=1 reference exactly. *)
let run_parallel_bench ~scale =
  Printf.printf "== parallel scaling (experiments grid, scale %.3g) ==\n"
    scale;
  Printf.printf "  host: recommended_domain_count=%d\n"
    (Domain.recommended_domain_count ());
  let strip results =
    (* runtime_s is wall-clock noise; everything else must be invariant *)
    let rows =
      List.map (fun (r : Tdf_experiments.Runner.case_result) ->
          { r with
            Tdf_experiments.Runner.rows =
              List.map
                (fun row -> { row with Tdf_experiments.Runner.runtime_s = 0. })
                r.Tdf_experiments.Runner.rows })
        results
    in
    Tdf_experiments.Tables.comparison ~title:"parallel-check" rows
  in
  let run_at jobs =
    Tdf_par.set_jobs jobs;
    let results, dt =
      timed (fun () ->
          Tdf_experiments.Runner.run_suite ~scale
            Tdf_benchgen.Spec.Iccad2023)
    in
    (jobs, dt, strip results)
  in
  let runs = List.map run_at [ 1; 2; 4; 8 ] in
  Tdf_par.set_jobs 1;
  let _, base_dt, base_table =
    match runs with r :: _ -> r | [] -> assert false
  in
  let deterministic =
    List.for_all (fun (_, _, table) -> table = base_table) runs
  in
  List.iter
    (fun (jobs, dt, _) ->
      Printf.printf "  jobs=%d  %.3fs  speedup %.2fx\n%!" jobs dt
        (base_dt /. dt))
    runs;
  Printf.printf "  deterministic across job counts: %b\n" deterministic;
  let json =
    Json.Obj
      [
        ("generated_by", Json.String "bench/main.ml");
        ("scale", Json.Float scale);
        ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
        ("deterministic", Json.Bool deterministic);
        ( "runs",
          Json.List
            (List.map
               (fun (jobs, dt, _) ->
                 Json.Obj
                   [
                     ("jobs", Json.Int jobs);
                     ("wall_s", Json.Float dt);
                     ("speedup", Json.Float (base_dt /. dt));
                   ])
               runs) );
      ]
  in
  Printf.printf "Parallel scaling written to %s\n"
    (write_json "BENCH_parallel.json" json);
  if not deterministic then begin
    Printf.eprintf
      "PARALLEL MISMATCH: grid output differs across domain counts\n";
    exit 1
  end;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Incremental ECO: local re-legalization vs from-scratch latency      *)
(* ------------------------------------------------------------------ *)

module Eco = Tdf_incremental.Eco
module Delta = Tdf_io.Delta

(* The gate-sizing ECO shape of examples/eco_incremental.ml as a delta:
   [k] distinct cells jump into a window around their legal position. *)
let eco_delta ~rng ~design ~(prev : Tdf_netlist.Placement.t) ~k =
  let n = Tdf_netlist.Design.n_cells design in
  let outline = (Tdf_netlist.Design.die design 0).Tdf_netlist.Die.outline in
  let window = 40 in
  let jitter extent p =
    max 0 (min (extent - 1) (p - window + Prng.int rng ((2 * window) + 1)))
  in
  let seen = Array.make n false in
  let ops = ref [] in
  let made = ref 0 in
  while !made < k do
    let c = Prng.int rng n in
    if not seen.(c) then begin
      seen.(c) <- true;
      incr made;
      ops :=
        Delta.Move
          {
            cell = c;
            x = jitter outline.Tdf_geometry.Rect.w prev.Tdf_netlist.Placement.x.(c);
            y = jitter outline.Tdf_geometry.Rect.h prev.Tdf_netlist.Placement.y.(c);
            die = prev.Tdf_netlist.Placement.die.(c);
          }
        :: !ops
    end
  done;
  List.rev !ops

let run_eco_bench () =
  let escale = 0.05 in
  Printf.printf
    "== incremental ECO re-legalization (iccad2023 case2, scale %.3g) ==\n"
    escale;
  let design =
    Tdf_benchgen.Gen.generate_by_name ~scale:escale Tdf_benchgen.Spec.Iccad2023
      "case2"
  in
  let n = Tdf_netlist.Design.n_cells design in
  let prev, signoff_s =
    timed (fun () ->
        (Tdf_legalizer.Flow3d.legalize design).Tdf_legalizer.Flow3d.placement)
  in
  if not (Tdf_metrics.Legality.is_legal design prev) then begin
    Printf.eprintf "ECO BENCH: signoff placement is not legal\n";
    exit 1
  end;
  Printf.printf "  %d cells, signoff legalization %.3fs\n%!" n signoff_s;
  let fracs = [ 0.002; 0.01; 0.05 ] in
  let repeats = 3 in
  let run_frac frac =
    let k = max 1 (int_of_float (frac *. float_of_int n)) in
    let rng = Prng.of_string (Printf.sprintf "eco-bench-%g" frac) in
    let delta = eco_delta ~rng ~design ~prev ~k in
    (* Incremental repair: same inputs are deterministic, so best-of-N
       only filters scheduler noise. *)
    let result = ref None in
    let eco_s = ref infinity in
    for _ = 1 to repeats do
      let r, dt =
        timed (fun () ->
            match Eco.run design prev delta with
            | Ok r -> r
            | Error e -> failwith (Eco.error_to_string e))
      in
      if dt < !eco_s then eco_s := dt;
      result := Some r
    done;
    let r = Option.get !result in
    let eco_s = !eco_s in
    (* From-scratch reference: full legalization of the same perturbed
       design the incremental engine solved. *)
    let scratch_s = ref infinity in
    let scratch_legal = ref false in
    for _ = 1 to 2 do
      let sr, dt =
        timed (fun () -> Tdf_legalizer.Flow3d.legalize r.Eco.design)
      in
      if dt < !scratch_s then scratch_s := dt;
      scratch_legal :=
        Tdf_metrics.Legality.is_legal r.Eco.design
          sr.Tdf_legalizer.Flow3d.placement
    done;
    let scratch_s = !scratch_s in
    let s = r.Eco.stats in
    let legal = Tdf_metrics.Legality.is_legal r.Eco.design r.Eco.placement in
    let speedup = scratch_s /. eco_s in
    Printf.printf
      "  delta %4d cells (%4.1f%%): eco %.4fs scratch %.4fs speedup %6.1fx \
       dirty %d/%d bins widenings=%d fallbacks=%d %s legal=%b\n%!"
      k
      (100. *. float_of_int k /. float_of_int n)
      eco_s scratch_s speedup s.Eco.dirty_bins s.Eco.total_bins s.Eco.widenings
      s.Eco.fallbacks
      (Eco.path_name s.Eco.path)
      legal;
    if not (legal && !scratch_legal) then begin
      Printf.eprintf "ECO BENCH: illegal result at delta %d\n" k;
      exit 1
    end;
    Json.Obj
      [
        ("delta_cells", Json.Int k);
        ("delta_frac", Json.Float frac);
        ("eco_s", Json.Float eco_s);
        ("scratch_s", Json.Float scratch_s);
        ("speedup", Json.Float speedup);
        ("dirty_bins", Json.Int s.Eco.dirty_bins);
        ("total_bins", Json.Int s.Eco.total_bins);
        ("dirty_segments", Json.Int s.Eco.dirty_segments);
        ("widenings", Json.Int s.Eco.widenings);
        ("fallbacks", Json.Int s.Eco.fallbacks);
        ("path", Json.String (Eco.path_name s.Eco.path));
        ("legal", Json.Bool legal);
      ]
  in
  let runs = List.map run_frac fracs in
  let json =
    Json.Obj
      [
        ("generated_by", Json.String "bench/main.ml");
        ("case", Json.String "iccad2023:case2");
        ("scale", Json.Float escale);
        ("n_cells", Json.Int n);
        ("signoff_s", Json.Float signoff_s);
        ("runs", Json.List runs);
      ]
  in
  Printf.printf "ECO benchmark written to %s\n"
    (write_json "BENCH_eco.json" json);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Serve daemon: warm-session ECO streaming vs one-shot CLI processes  *)
(* ------------------------------------------------------------------ *)

module Protocol = Tdf_io.Protocol
module Client = Tdf_server.Client

(* The real installed binary, spawned as a real daemon process: the bench
   measures the full socket round-trip, not an in-process shortcut. *)
let legalize_exe () =
  let near = Filename.dirname (Filename.dirname Sys.executable_name) in
  let candidates =
    [
      Filename.concat near "bin/legalize.exe";
      "_build/default/bin/legalize.exe";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some exe -> exe
  | None -> failwith "serve bench: cannot locate bin/legalize.exe"

let spawn ?(quiet = true) exe args =
  let dev_null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let out = if quiet then dev_null else Unix.stdout in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      dev_null out Unix.stderr
  in
  Unix.close dev_null;
  pid

let wait_exit pid =
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + s

let connect_with_retry sock =
  let rec go tries =
    match Client.connect sock with
    | c -> c
    | exception Unix.Unix_error _ when tries > 0 ->
      Unix.sleepf 0.05;
      go (tries - 1)
  in
  go 100

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let run_serve_bench () =
  let sscale = 0.05 and n_ecos = 120 and n_cold = 20 in
  Printf.printf
    "== serve daemon (iccad2023 case2, scale %.3g, %d warm ecos, %d cold) ==\n"
    sscale n_ecos n_cold;
  let exe = legalize_exe () in
  let design =
    Tdf_benchgen.Gen.generate_by_name ~scale:sscale Tdf_benchgen.Spec.Iccad2023
      "case2"
  in
  let n = Tdf_netlist.Design.n_cells design in
  let prev =
    (Tdf_legalizer.Flow3d.legalize design).Tdf_legalizer.Flow3d.placement
  in
  if not (Tdf_metrics.Legality.is_legal design prev) then begin
    Printf.eprintf "SERVE BENCH: signoff placement is not legal\n";
    exit 1
  end;
  let work = out_path "serve_bench" in
  if not (Sys.file_exists work) then Sys.mkdir work 0o755;
  let file name = Filename.concat work name in
  Tdf_io.Text.save_design (file "d0.design") design;
  Tdf_io.Text.save_placement (file "p0.place") design prev;
  (* Move-only deltas: cell ids stay stable across the whole chain, so the
     same delta files drive both the warm stream and the cold CLI chain. *)
  let rng = Prng.of_string "serve-bench" in
  let k = max 2 (n / 300) in
  let deltas =
    List.init n_ecos (fun i ->
        let d = eco_delta ~rng ~design ~prev ~k in
        Delta.save (file (Printf.sprintf "delta%d.delta" i)) d;
        d)
  in
  (* Warm path: one daemon process, one session, the whole delta stream
     over a single connection.  A few requests inside the byte-compared
     prefix override --jobs to 2 (and reset to 1 right after) to prove
     byte-identity is jobs-invariant on the server side too; the override
     is not left sticky because pool overhead would drown the latency
     numbers on dirty regions this small. *)
  let sock = file "sock" in
  let reqs =
    Protocol.Load_design
      {
        session = "bench";
        design = Path (file "d0.design");
        placement = Some (Path (file "p0.place"));
        tiles = None;
      }
    :: List.mapi
         (fun i d ->
           Protocol.Eco
             {
               session = "bench";
               delta = Text (Delta.to_string d);
               radius = None;
               max_widenings = None;
               budget_ms = None;
               jobs =
                 (if i mod 40 = 1 then Some 2
                  else if i mod 40 = 2 then Some 1
                  else None);
               tiles = None;
               want_placement = i < n_cold;
             })
         deltas
  in
  let run_stream ?(extra = []) label =
    let server_pid = spawn exe ([ "serve"; "--socket"; sock ] @ extra) in
    let client = connect_with_retry sock in
    let summary = Client.Trace.replay client reqs in
    let stats_reply = Client.call client Protocol.Stats in
    ignore (Client.call client Protocol.Shutdown);
    Client.close client;
    let server_exit = wait_exit server_pid in
    if server_exit <> 0 then begin
      Printf.eprintf "SERVE BENCH: %s daemon exited with %d\n" label
        server_exit;
      exit 1
    end;
    (summary, stats_reply)
  in
  let eco_stats (summary : Client.Trace.summary) =
    let ecos =
      List.filter
        (fun (o : Client.Trace.outcome) ->
          match o.request with Protocol.Eco _ -> true | _ -> false)
        summary.Client.Trace.outcomes
    in
    let lat =
      Array.of_list
        (List.map (fun (o : Client.Trace.outcome) -> o.wall_s *. 1000.) ecos)
    in
    let legal = ref true and reused = ref 0 and placements = ref [] in
    List.iter
      (fun (o : Client.Trace.outcome) ->
        match o.response with
        | Ok (Protocol.Eco_applied r) ->
          if not r.legal then legal := false;
          if r.grid_reused then incr reused;
          Option.iter (fun p -> placements := p :: !placements) r.placement
        | Ok _ -> ()
        | Error e ->
          Printf.eprintf "SERVE BENCH: eco error %s: %s\n" e.Protocol.code
            e.Protocol.detail;
          legal := false)
      ecos;
    (ecos, lat, !legal, !reused, List.rev !placements)
  in
  let summary, stats_reply = run_stream "warm" in
  let ecos, warm_lat, warm_legal, reused, warm_placements = eco_stats summary in
  let legal = ref warm_legal in
  let cache_hit_rate = float_of_int reused /. float_of_int (List.length ecos) in
  (* Journaled rerun: the identical trace with durability on at the
     default fsync policy.  The journal must not change a single placement
     byte, and its p50 latency overhead is recorded for the bench gate
     (journal_overhead_p50). *)
  let jdir = file "journal" in
  (* A previous bench run's journal would make startup recover a stale
     session and pollute the recovery counters: start from scratch. *)
  if Sys.file_exists jdir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat jdir f))
      (Sys.readdir jdir);
  let j_summary, j_stats_reply =
    run_stream ~extra:[ "--journal"; jdir ] "journaled"
  in
  let _, journal_lat, j_legal, _, j_placements = eco_stats j_summary in
  if not j_legal then legal := false;
  let journal_identical =
    List.length j_placements = List.length warm_placements
    && List.for_all2 String.equal warm_placements j_placements
  in
  if not journal_identical then
    Printf.eprintf
      "SERVE BENCH: journaled stream produced different placement bytes\n";
  (* Cold baseline: the same first deltas as fresh `legalize eco` process
     invocations, files carried forward (moves shift gp anchors, so each
     step needs the previous step's perturbed design). *)
  let cold_lat = Array.make n_cold 0. in
  let byte_identical = ref true in
  for i = 0 to n_cold - 1 do
    let args =
      [
        "eco";
        "-d"; file (Printf.sprintf "d%d.design" i);
        "-p"; file (Printf.sprintf "p%d.place" i);
        "--delta"; file (Printf.sprintf "delta%d.delta" i);
        "-o"; file (Printf.sprintf "p%d.place" (i + 1));
        "--out-design"; file (Printf.sprintf "d%d.design" (i + 1));
      ]
    in
    let code, dt = timed (fun () -> wait_exit (spawn exe args)) in
    if code <> 0 then begin
      Printf.eprintf "SERVE BENCH: cold eco %d exited with %d\n" i code;
      exit 1
    end;
    cold_lat.(i) <- dt *. 1000.
  done;
  List.iteri
    (fun i warm ->
      let cold = read_file (file (Printf.sprintf "p%d.place" (i + 1))) in
      if warm <> cold then begin
        byte_identical := false;
        Printf.eprintf
          "SERVE BENCH: placement after eco %d differs between the warm \
           session and the cold CLI chain\n"
          i
      end)
    warm_placements;
  let pct = Tdf_util.Stats.percentile in
  let warm_p50 = pct warm_lat 50. and warm_p99 = pct warm_lat 99. in
  let journal_p50 = pct journal_lat 50. in
  let journal_overhead_p50 = journal_p50 /. warm_p50 in
  let cold_p50 = pct cold_lat 50. in
  let speedup_p50 = cold_p50 /. warm_p50 in
  Printf.printf
    "  warm: %d ecos, p50 %.2f ms, p99 %.2f ms, grid reuse %.1f%%\n"
    (List.length ecos) warm_p50 warm_p99 (100. *. cache_hit_rate);
  Printf.printf
    "  journaled: p50 %.2f ms (%.2fx of unjournaled), byte-identical %b\n"
    journal_p50 journal_overhead_p50 journal_identical;
  Printf.printf "  cold: %d process chains, p50 %.2f ms\n" n_cold cold_p50;
  Printf.printf "  speedup p50 %.1fx, legal %b, byte-identical %b\n%!"
    speedup_p50 !legal !byte_identical;
  let stats_of = function
    | Ok (Protocol.Stats_snapshot j) -> j
    | _ -> Json.Null
  in
  let server_stats = stats_of stats_reply in
  let journaled_server_stats = stats_of j_stats_reply in
  let json =
    Json.Obj
      [
        ("generated_by", Json.String "bench/main.ml");
        ("case", Json.String "iccad2023:case2");
        ("scale", Json.Float sscale);
        ("n_cells", Json.Int n);
        ( "serve_runs",
          Json.List
            [
              Json.Obj
                [
                  ("name", Json.String "case2-move-stream");
                  ("ecos", Json.Int (List.length ecos));
                  ("cold_chain", Json.Int n_cold);
                  ("legal", Json.Bool !legal);
                  ("byte_identical", Json.Bool !byte_identical);
                  ("warm_p50_ms", Json.Float warm_p50);
                  ("warm_p99_ms", Json.Float warm_p99);
                  ("cold_p50_ms", Json.Float cold_p50);
                  ("speedup_p50", Json.Float speedup_p50);
                  ("cache_hit_rate", Json.Float cache_hit_rate);
                  ("journal_p50_ms", Json.Float journal_p50);
                  ("journal_overhead_p50", Json.Float journal_overhead_p50);
                  ("journal_byte_identical", Json.Bool journal_identical);
                ];
            ] );
        ("server_stats", server_stats);
        ("journaled_server_stats", journaled_server_stats);
      ]
  in
  Printf.printf "Serve benchmark written to %s\n"
    (write_json "BENCH_serve.json" json);
  if not (!legal && !byte_identical && journal_identical) then begin
    Printf.eprintf "SERVE BENCH: correctness check failed\n";
    exit 1
  end;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Full reproduction: Tables II-V, Fig. 7, Fig. 8                      *)
(* ------------------------------------------------------------------ *)

let run_paper ~scale =
  Printf.printf "== 3D-Flow reproduction run (scale %.3g) ==\n\n" scale;
  (* Aggregating telemetry sink over the reproduction run alone; flushed
     to BENCH_telemetry.json at the end so the perf trajectory is
     machine-readable. *)
  let telemetry = Tdf_telemetry.Aggregate.create () in
  let sink = Tdf_telemetry.Aggregate.sink telemetry in
  Tdf_telemetry.install sink;
  print_string (Tdf_experiments.Tables.table2 ~scale ());
  print_newline ();
  let r2022 = Tdf_experiments.Runner.run_suite ~scale Tdf_benchgen.Spec.Iccad2022 in
  print_string
    (Tdf_experiments.Tables.comparison
       ~title:
         "TABLE III — legalization comparison, ICCAD 2022 suite (normalized \
          displacement)"
       r2022);
  print_newline ();
  let r2023 = Tdf_experiments.Runner.run_suite ~scale Tdf_benchgen.Spec.Iccad2023 in
  print_string
    (Tdf_experiments.Tables.comparison
       ~title:
         "TABLE IV — legalization comparison, ICCAD 2023 suite (normalized \
          displacement)"
       r2023);
  print_newline ();
  let ablation =
    Tdf_experiments.Runner.run_suite
      ~methods:[ Tdf_experiments.Runner.Ours_no_d2d; Tdf_experiments.Runner.Ours ]
      ~scale Tdf_benchgen.Spec.Iccad2023
  in
  print_string (Tdf_experiments.Tables.ablation ablation);
  print_newline ();
  print_string
    (Tdf_experiments.Figures.fig7
       ~title:"FIG 7(a) — HPWL increase (%), ICCAD 2022 suite" r2022);
  print_string
    (Tdf_experiments.Figures.fig7
       ~title:"FIG 7(b) — HPWL increase (%), ICCAD 2023 suite" r2023);
  Printf.printf "\nFig. 7 data written to %s\n"
    (write_out "fig7_hpwl.csv"
       (Tdf_experiments.Figures.fig7_csv (r2022 @ r2023)));
  let no_d2d_svg, ours_svg =
    Tdf_experiments.Figures.fig8 ~scale ~dir:out_dir ()
  in
  Printf.printf "Fig. 8 visualizations written to %s and %s\n" no_d2d_svg ours_svg;
  print_newline ();
  print_endline "== design-choice ablations (ICCAD 2023 case3) ==";
  let design =
    Tdf_benchgen.Gen.generate_by_name ~scale:(Float.min scale 0.05)
      Tdf_benchgen.Spec.Iccad2023 "case3"
  in
  print_string
    (Tdf_experiments.Ablations.render
       ~title:"Ablation: branch-and-bound slack alpha (§III-B)"
       (Tdf_experiments.Ablations.sweep_alpha design));
  print_string
    (Tdf_experiments.Ablations.render
       ~title:"Ablation: bin width w_v (§III-F)"
       (Tdf_experiments.Ablations.sweep_bin_width design));
  print_string
    (Tdf_experiments.Ablations.render
       ~title:"Ablation: D2D edge pricing (Eq. 7 + base cost)"
       (Tdf_experiments.Ablations.sweep_d2d_cost design));
  print_string
    (Tdf_experiments.Ablations.render
       ~title:"Ablation: cycle-canceling post-optimization rounds (§III-E)"
       (Tdf_experiments.Ablations.sweep_post_opt design));
  (* One bonding-terminal assignment exercises the MCMF substrate so its
     counters (augmentations, Dijkstra pops, relaxations) appear in the
     telemetry dump alongside the legalizer phases. *)
  let d_bond =
    Tdf_benchgen.Gen.generate_by_name ~scale:0.02 Tdf_benchgen.Spec.Iccad2023
      "case2"
  in
  let legal_bond =
    (Tdf_legalizer.Flow3d.legalize d_bond).Tdf_legalizer.Flow3d.placement
  in
  let tgrid = Tdf_bonding.Terminal.make_grid d_bond ~size:2 ~spacing:2 in
  ignore (Tdf_bonding.Terminal.assign d_bond legal_bond tgrid);
  Tdf_telemetry.remove sink;
  let json =
    Json.Obj
      [
        ("scale", Json.Float scale);
        ("generated_by", Json.String "bench/main.ml");
        ("telemetry", Tdf_telemetry.Aggregate.to_json telemetry);
      ]
  in
  Printf.printf "Telemetry (per-phase wall times, counters) written to %s\n"
    (write_json "BENCH_telemetry.json" json)

(* ------------------------------------------------------------------ *)
(* Scaling study: runtime vs size, at its own scales                   *)
(* ------------------------------------------------------------------ *)

let run_scaling () =
  print_string
    (Tdf_experiments.Scaling.render
       (Tdf_experiments.Scaling.run Tdf_benchgen.Spec.Iccad2023 "case4"))

(* ------------------------------------------------------------------ *)
(* Command line: the suites to run and the case scale                  *)
(* ------------------------------------------------------------------ *)

let suites =
  [
    ("solver", fun ~scale:_ -> run_solver_bench ());
    ("parallel", run_parallel_bench);
    ("eco", fun ~scale:_ -> run_eco_bench ());
    ("serve", fun ~scale:_ -> run_serve_bench ());
    ("paper", run_paper);
    ("scaling", fun ~scale:_ -> run_scaling ());
  ]

let () =
  let scale = ref 0.05 and chosen = ref [] in
  let set_scale s =
    match float_of_string_opt s with
    | Some v when v > 0. && Float.is_finite v -> scale := v
    | _ ->
      raise
        (Arg.Bad
           (Printf.sprintf "--scale: expected a positive number, got %S" s))
  in
  let add_suite name =
    match List.assoc_opt name suites with
    | Some run -> chosen := run :: !chosen
    | None -> raise (Arg.Bad (Printf.sprintf "unknown suite %S" name))
  in
  (* Arg.parse exits 2 on a bad argument, before any suite has run. *)
  Arg.parse
    [
      ( "--scale",
        Arg.String set_scale,
        "S  case scale for the parallel and paper suites (default 0.05)" );
    ]
    add_suite
    "main.exe [solver|parallel|eco|serve|paper|scaling]... [--scale S]\n\
     Runs the named suites in order, or all six when none is named.\n\
     Artifacts land under out/.";
  let chosen =
    match !chosen with [] -> List.map snd suites | l -> List.rev l
  in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  List.iter (fun run -> run ~scale:!scale) chosen
