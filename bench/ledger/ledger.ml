(* The tdflow performance ledger: four fixed workloads, measured end to
   end with tracing off, or layer by layer with [--trace 1].

     ledger.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
     ledger.exe --seed N [--seconds S] [--trace 0|1] [--out DIR]
     ledger.exe --smoke [--out DIR]

   With [--workload] one workload runs in this process and the last line
   of stdout is its JSON result; without it every workload runs in a
   child process of its own, one after another, and DIR/ledger.json
   collects them.  [--smoke] runs every workload on tiny cases, traced and
   untraced, to keep this file from rotting; its numbers are not a
   measurement.  README.md in this directory defines every metric. *)

module Json = Tdf_telemetry.Json
module Timer = Tdf_util.Timer
module Prng = Tdf_util.Prng
module Crc32 = Tdf_util.Crc32
module Design = Tdf_netlist.Design
module Placement = Tdf_netlist.Placement
module Text = Tdf_io.Text
module Delta = Tdf_io.Delta
module Protocol = Tdf_io.Protocol
module Lef = Tdf_def_lef.Lef
module Def = Tdf_def_lef.Def
module Grid = Tdf_grid.Grid
module Flow3d = Tdf_legalizer.Flow3d
module Pipeline = Tdf_robust.Pipeline
module Validate = Tdf_robust.Validate
module Eco = Tdf_incremental.Eco
module Perturb = Tdf_incremental.Perturb
module Client = Tdf_server.Client
module Legality = Tdf_metrics.Legality
module St = Ledger_stats

(* Names and units exactly as BENCHMARK.json lists them; the smoke run
   checks that the two agree. *)
let end_to_end_metrics =
  [
    ("setup_s", "s");
    ("op_p50_ms", "ms");
    ("emit_p50_ms", "ms");
    ("peak_rss_mb", "MB");
    ("avg_disp_rows", "rows");
    ("max_disp_rows", "rows");
    ("hpwl_incr_pct", "%");
  ]

let per_layer_metrics =
  [
    ("text.load_design_ms", "ms");
    ("text.save_placement_ms", "ms");
    ("def.read_ms", "ms");
    ("def.read_mb_per_s", "MB/s");
    ("def.to_design_ms", "ms");
    ("def.of_design_ms", "ms");
    ("def.write_ms", "ms");
    ("def.bytes", "B");
    ("validate.design_ms", "ms");
    ("grid.build_ms", "ms");
    ("grid.n_bins", "count");
    ("flow3d.local_pass_ms", "ms");
    ("flow3d.augment_ms", "ms");
    ("flow3d.relief_ms", "ms");
    ("flow3d.mover_ms", "ms");
    ("flow3d.place_segments_ms", "ms");
    ("flow3d.augmentations", "count/op");
    ("flow3d.expansions", "count/op");
    ("flow3d.reliefs", "count/op");
    ("flow3d.expansions_per_aug", "ratio");
    ("flow3d.search_success_ratio", "ratio");
    ("post_opt.pass_ms", "ms");
    ("post_opt.rounds", "count/op");
    ("mcmf.min_cost_flow_ms", "ms");
    ("mcmf.augmentations", "count/op");
    ("perturb.apply_ms", "ms");
    ("eco.dirty_frac", "ratio");
    ("eco.widenings", "count");
    ("eco.fallbacks", "count");
    ("eco.local_ratio", "ratio");
    ("serve.apply_ms", "ms");
    ("serve.overhead_ms", "ms");
    ("serve.inproc_apply_ms", "ms");
    ("journal.overhead_ms", "ms");
    ("journal.appends", "count");
    ("serve.cache_hits", "count");
    ("protocol.reply_encode_ms", "ms");
    ("protocol.reply_decode_ms", "ms");
    ("protocol.reply_bytes", "B");
    ("metrics.legality_ms", "ms");
    ("metrics.hpwl_ms", "ms");
    ("unattributed_frac", "ratio");
    ("trace_overhead_frac", "ratio");
  ]

(* Each of these changes the program being measured. *)
let pinned_env = [ "TDFLOW_JOBS"; "TDFLOW_TILES"; "TDFLOW_SOLVER"; "TDFLOW_FRONTIER" ]

(* ------------------------------------------------------------------ *)
(* Run state                                                           *)
(* ------------------------------------------------------------------ *)

type ctx = {
  dir : string;  (** this workload's working files *)
  seed : int;
  ops : int;  (** measured operations *)
  setups : int;  (** set-ups timed; [setup_s] is their median *)
  trace : bool;
  smoke : bool;
}

type run = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  mutable setup_s : float list;
  mutable op_ms : (bool * float) list;  (** (traced, ms), newest first *)
  mutable emit_ms : float list;
  mutable quality : (float * float * float) list;  (** avg, max, ΔHPWL% *)
  mutable digest : Crc32.state;
  mutable peak_rss_mb : float option;  (** set when another process did the work *)
  mutable layer_values : (string * float) list;  (** computed by the workload *)
}

let new_run () =
  {
    attempted = 0;
    failed = 0;
    problems = [];
    setup_s = [];
    op_ms = [];
    emit_ms = [];
    quality = [];
    digest = Crc32.empty;
    peak_rss_mb = None;
    layer_values = [];
  }

let problem r fmt = Printf.ksprintf (fun m -> r.problems <- m :: r.problems) fmt

(* One audited operation: attempted, and failed when any audit inside it
   reports a problem. *)
let counted r f =
  r.attempted <- r.attempted + 1;
  let before = List.length r.problems in
  let x = f () in
  if List.length r.problems > before then r.failed <- r.failed + 1;
  x

(* A measured operation that raises is a failure, not the end of the run. *)
let attempt r f = counted r (fun () -> try f () with e -> problem r "%s" (Printexc.to_string e))

let file ctx name = Filename.concat ctx.dir name

let read_file path = In_channel.with_open_bin path In_channel.input_all

let case ctx suite name scale =
  Tdf_benchgen.Gen.generate_by_name
    ~scale:(if ctx.smoke then 0.02 else scale)
    suite name

let ok_exn = function Ok x -> x | Error e -> failwith e

(* ------------------------------------------------------------------ *)
(* Tracing: ledger-owned spans around layer calls, an in-memory sink    *)
(* ------------------------------------------------------------------ *)

let events : Tdf_telemetry.event list ref = ref []

let sink ev = events := ev :: !events

(* A no-op branch unless the sink is installed. *)
let layer name f = Tdf_telemetry.span ("ledger." ^ name) f

let traced on f = if on then Tdf_telemetry.with_sink sink f else f ()

(* In a --trace run every other operation is traced; the untraced ones
   give the reference for the tracing overhead. *)
let traced_op ctx i = ctx.trace && i mod 2 = 1

(* Each operation starts on a compacted heap, as it would in a fresh
   process, so the garbage earlier operations left does not decide how
   much collection work lands inside this one. *)
let time_op r ~traced f =
  Gc.compact ();
  let x, dt = Timer.time (fun () -> layer "op" f) in
  r.op_ms <- (traced, dt *. 1000.) :: r.op_ms;
  x

let untraced_ops r = List.filter_map (fun (tr, ms) -> if tr then None else Some ms) r.op_ms

let time_emit r f =
  let (), dt = Timer.time f in
  r.emit_ms <- (dt *. 1000.) :: r.emit_ms

let setup ctx r f =
  let last = ref None in
  for _ = 1 to ctx.setups do
    let x, dt = counted r (fun () -> Timer.time (fun () -> traced ctx.trace f)) in
    r.setup_s <- dt :: r.setup_s;
    last := Some x
  done;
  Option.get !last

(* ------------------------------------------------------------------ *)
(* Audits                                                              *)
(* ------------------------------------------------------------------ *)

let check_legal r design p =
  let rep = layer "metrics.legality" (fun () -> Legality.check design p) in
  if rep.Legality.n_violations > 0 then
    problem r "illegal placement: %s" (Legality.brief rep)

(* Legality plus the paper's quality numbers of one produced placement. *)
let check_placement r design p =
  check_legal r design p;
  let d = Tdf_metrics.Displacement.summary design p in
  let h = layer "metrics.hpwl" (fun () -> Tdf_metrics.Hpwl.increase_pct design p) in
  r.quality <-
    (d.Tdf_metrics.Displacement.avg_norm, d.Tdf_metrics.Displacement.max_norm, h)
    :: r.quality

let digest r text = r.digest <- Crc32.update_string r.digest text

(* The CLI [run] entry; anything but the primary path is a failure here. *)
let legalize r design =
  match Pipeline.run design with
  | Error e -> failwith (Tdf_robust.Error.to_string e)
  | Ok rep ->
    if rep.Pipeline.path <> Pipeline.Primary then
      problem r "legalization took the %s path" (Pipeline.path_name rep.Pipeline.path);
    rep.Pipeline.placement

(* Every repeat of a deterministic operation must produce the same bytes. *)
let same_as_first r first text =
  match !first with
  | None -> first := Some text
  | Some t -> if t <> text then problem r "output differs between repeats"

(* The bin width of the flow grid, as Eco derives it. *)
let flow_bin_width design =
  Flow3d.flow_bin_width design
    ~factor:Eco.default_cfg.Eco.flow.Tdf_legalizer.Config.bin_width_factor

let flow_grid_bins design =
  Grid.n_bins (Grid.build design ~bin_width:(flow_bin_width design))

(* [k] distinct cells each jump to a point within ±40 dbu of their legal
   position on their current die: the move-only shape of a gate-sizing
   ECO. *)
let eco_delta rng design (prev : Placement.t) k =
  let n = Design.n_cells design in
  let outline = (Design.die design 0).Tdf_netlist.Die.outline in
  let window = 40 in
  let jitter extent v = max 0 (min (extent - 1) (v - window + Prng.int rng ((2 * window) + 1))) in
  let seen = Array.make n false in
  let ops = ref [] and made = ref 0 in
  while !made < k do
    let c = Prng.int rng n in
    if not seen.(c) then begin
      seen.(c) <- true;
      incr made;
      ops :=
        Delta.Move
          {
            cell = c;
            x = jitter outline.Tdf_geometry.Rect.w prev.Placement.x.(c);
            y = jitter outline.Tdf_geometry.Rect.h prev.Placement.y.(c);
            die = prev.Placement.die.(c);
          }
        :: !ops
    end
  done;
  List.rev !ops

(* ------------------------------------------------------------------ *)
(* legalize-2023c2: Pipeline.run from the design's global placement     *)
(* ------------------------------------------------------------------ *)

(* Writing a 14k-cell placement takes milliseconds; writing each result
   several times gives the emit statistics at least 20 samples. *)
let emits_per_legalize = 4

let legalize_2023c2 ctx r =
  let path = file ctx "design.txt" in
  Text.save_design path (case ctx Tdf_benchgen.Spec.Iccad2023 "case2" 1.0);
  let design =
    setup ctx r (fun () -> layer "text.load_design" (fun () -> Text.load_design_exn path))
  in
  let out = file ctx "legal.place" in
  let first = ref None in
  for i = 0 to ctx.ops - 1 do
    let on = traced_op ctx i in
    attempt r (fun () ->
        traced on (fun () ->
            if on then ignore (layer "validate.design" (fun () -> Validate.design design));
            let p = time_op r ~traced:on (fun () -> legalize r design) in
            for _ = 1 to emits_per_legalize do
              time_emit r (fun () ->
                  layer "text.save_placement" (fun () -> Text.save_placement out design p))
            done;
            check_placement r design p;
            let text = read_file out in
            digest r text;
            same_as_first r first text))
  done;
  if ctx.trace then r.layer_values <- [ ("grid.n_bins", float_of_int (flow_grid_bins design)) ]

(* ------------------------------------------------------------------ *)
(* interchange-2022c3: DEF/LEF import -> run -> export chains           *)
(* ------------------------------------------------------------------ *)

let interchange_2022c3 ctx r =
  let design0 = case ctx Tdf_benchgen.Spec.Iccad2022 "case3" 0.25 in
  let lef0, defs0 = Def.of_design design0 in
  let lef_in = file ctx "in.lef" in
  let defs_in = List.mapi (fun i _ -> file ctx (Printf.sprintf "in.d%d.def" i)) defs0 in
  Lef.save lef_in lef0;
  List.iter2 Def.save defs_in defs0;
  let lef_out = file ctx "out.lef" in
  let defs_out = List.mapi (fun i _ -> file ctx (Printf.sprintf "out.d%d.def" i)) defs0 in
  let import lef_path def_paths =
    let lef, defs =
      layer "def.read" (fun () -> (Lef.load_exn lef_path, List.map Def.load_exn def_paths))
    in
    layer "def.to_design" (fun () -> ok_exn (Def.to_design ~lef defs))
  in
  let import_checked () =
    let design, _ = import lef_in defs_in in
    (match Validate.fatal (layer "validate.design" (fun () -> Validate.design design)) with
    | [] -> ()
    | i :: _ -> problem r "imported design: %s" (Validate.issue_to_string i));
    design
  in
  let export design p =
    let lef, defs = layer "def.of_design" (fun () -> Def.of_design ~placement:p design) in
    layer "def.write" (fun () ->
        Lef.save lef_out lef;
        List.iter2 Def.save defs_out defs)
  in
  let exported () = String.concat "" (List.map read_file (lef_out :: defs_out)) in
  let chain () =
    let design = import_checked () in
    let p = legalize r design in
    let (), emit_s = Timer.time (fun () -> export design p) in
    (design, p, emit_s)
  in
  ignore (setup ctx r import_checked);
  (* One unmeasured chain first: the first one also pays for cold caches
     and first-touch page faults. *)
  ignore (chain ());
  let first = ref None in
  for i = 0 to ctx.ops - 1 do
    let on = traced_op ctx i in
    attempt r (fun () ->
        traced on (fun () ->
            let design, p, emit_s = time_op r ~traced:on chain in
            r.emit_ms <- (emit_s *. 1000.) :: r.emit_ms;
            check_placement r design p;
            let text = exported () in
            digest r text;
            same_as_first r first text))
  done;
  (* export ∘ import ∘ export must reproduce the exported bytes. *)
  attempt r (fun () ->
      let text = exported () in
      let design, p = import lef_out defs_out in
      let lef, defs = Def.of_design ~placement:p design in
      if String.concat "" (Lef.to_string lef :: List.map Def.to_string defs) <> text then
        problem r "export . import . export is not byte-identical");
  if ctx.trace then begin
    let bytes =
      List.fold_left (fun a f -> a + String.length (read_file f)) 0 (lef_in :: defs_in)
    in
    r.layer_values <-
      [ ("def.bytes", float_of_int bytes); ("grid.n_bins", float_of_int (flow_grid_bins design0)) ]
  end

(* ------------------------------------------------------------------ *)
(* eco-2023c2: one-shot Eco.run calls against one sign-off placement    *)
(* ------------------------------------------------------------------ *)

type eco_tally = {
  mutable dirty : float list;
  mutable widenings : int;
  mutable fallbacks : int;
  mutable local : int;
  mutable calls : int;
}

let new_tally () = { dirty = []; widenings = 0; fallbacks = 0; local = 0; calls = 0 }

let tally t ~dirty_bins ~total_bins ~widenings ~fallbacks ~path =
  t.dirty <- (float_of_int dirty_bins /. float_of_int (max 1 total_bins)) :: t.dirty;
  t.widenings <- t.widenings + widenings;
  t.fallbacks <- t.fallbacks + fallbacks;
  if String.starts_with ~prefix:"local" path then t.local <- t.local + 1;
  t.calls <- t.calls + 1

let tally_values t =
  if t.calls = 0 then []
  else
    [
      ("eco.dirty_frac", St.median (Array.of_list t.dirty));
      ("eco.widenings", float_of_int t.widenings);
      ("eco.fallbacks", float_of_int t.fallbacks);
      ("eco.local_ratio", float_of_int t.local /. float_of_int t.calls);
    ]

(* The input of both incremental workloads: iccad2023/case2 and its
   sign-off placement, legalized here once and written to files. *)
let signoff ctx r =
  let design_path = file ctx "design.txt" and place_path = file ctx "signoff.place" in
  let design = case ctx Tdf_benchgen.Spec.Iccad2023 "case2" 1.0 in
  let p = counted r (fun () -> legalize r design) in
  attempt r (fun () -> check_legal r design p);
  Text.save_design design_path design;
  Text.save_placement place_path design p;
  (design_path, place_path)

let eco_2023c2 ctx r =
  let design_path, place_path = signoff ctx r in
  let design, prev =
    setup ctx r (fun () ->
        let d = layer "text.load_design" (fun () -> Text.load_design_exn design_path) in
        (d, Text.load_placement_exn place_path d))
  in
  let rng = Prng.create ctx.seed in
  let k = max 1 (Design.n_cells design / 100) in
  let deltas = Array.init ctx.ops (fun _ -> eco_delta rng design prev k) in
  let bin_width = flow_bin_width design in
  let out = file ctx "eco.place" in
  let t = new_tally () in
  let first = ref "" in
  for i = 0 to ctx.ops - 1 do
    let on = traced_op ctx i in
    attempt r (fun () ->
        traced on (fun () ->
            (* Eco.run builds its grid and applies the delta inside one
               span; the traced run times both layers by direct calls. *)
            if on then begin
              let pd =
                ok_exn (layer "perturb.apply" (fun () -> Perturb.apply design prev deltas.(i)))
              in
              layer "grid.build" (fun () ->
                  let g = Grid.build pd.Perturb.design ~bin_width in
                  ignore (Grid.assign_initial g pd.Perturb.base))
            end;
            match time_op r ~traced:on (fun () -> Eco.run design prev deltas.(i)) with
            | Error e -> problem r "eco: %s" (Eco.error_to_string e)
            | Ok res ->
              let s = res.Eco.stats in
              tally t ~dirty_bins:s.Eco.dirty_bins ~total_bins:s.Eco.total_bins
                ~widenings:s.Eco.widenings ~fallbacks:s.Eco.fallbacks
                ~path:(Eco.path_name s.Eco.path);
              time_emit r (fun () ->
                  layer "text.save_placement" (fun () ->
                      Text.save_placement out res.Eco.design res.Eco.placement));
              check_placement r res.Eco.design res.Eco.placement;
              let text = read_file out in
              digest r text;
              if i = 0 then first := text))
  done;
  (* The same delta on the same placement must give the same bytes. *)
  attempt r (fun () ->
      match Eco.run design prev deltas.(0) with
      | Error e -> problem r "eco repeat: %s" (Eco.error_to_string e)
      | Ok res ->
        if Text.placement_to_string res.Eco.design res.Eco.placement <> !first then
          problem r "eco result differs between repeats");
  if ctx.trace then
    r.layer_values <- ("grid.n_bins", float_of_int (flow_grid_bins design)) :: tally_values t

(* ------------------------------------------------------------------ *)
(* serve-2023c2: the real daemon, one closed-loop client connection     *)
(* ------------------------------------------------------------------ *)

let legalize_exe () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../../bin/legalize.exe"
  in
  if Sys.file_exists exe then exe
  else failwith ("ledger: " ^ exe ^ " is missing; build bin/legalize.exe first")

let fresh_dir path =
  if Sys.file_exists path then
    Array.iter (fun f -> Sys.remove (Filename.concat path f)) (Sys.readdir path)
  else Sys.mkdir path 0o755

let vm_hwm_mb who =
  let lines = In_channel.with_open_text ("/proc/" ^ who ^ "/status") In_channel.input_all in
  match
    List.find_map
      (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
      (String.split_on_char '\n' lines)
  with
  | Some mb -> mb
  | None -> failwith ("no VmHWM in /proc/" ^ who ^ "/status")

(* Kill and reap a daemon that is still running (a failed run must not
   leave it behind). *)
let reap pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid)
  | _ -> ()
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let with_daemon ~sock args f =
  (try Sys.remove sock with Sys_error _ -> ());
  let exe = legalize_exe () in
  let argv =
    Array.of_list
      (exe :: "serve" :: "--socket" :: sock :: "--jobs" :: "1" :: "--tiles" :: "1" :: args)
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () -> Unix.create_process exe argv null null Unix.stderr)
  in
  Fun.protect ~finally:(fun () -> reap pid) (fun () -> f pid)

let connect pid sock =
  let deadline = Unix.gettimeofday () +. 30. in
  let rec go () =
    match Client.connect sock with
    | c -> c
    | exception (Unix.Unix_error _ as e) ->
      if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then
        failwith "ledger: the daemon exited before listening";
      if Unix.gettimeofday () > deadline then raise e;
      Unix.sleepf 0.002;
      go ()
  in
  go ()

let shutdown r pid client =
  (match Client.call client Protocol.Shutdown with
  | Ok Protocol.Shutting_down -> ()
  | _ -> problem r "daemon refused to shut down");
  Client.close client;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> problem r "daemon exited abnormally"

let session = "ledger"

(* Socket -> load_design of the sign-off files; the daemon reports
   whether the loaded placement is legal. *)
let load_session r pid ~sock ~design_path ~place_path =
  let client = connect pid sock in
  (match
     Client.call client
       (Protocol.Load_design
          {
            session;
            design = Protocol.Path design_path;
            placement = Some (Protocol.Path place_path);
            tiles = None;
          })
   with
  | Ok (Protocol.Loaded { legal = true; _ }) -> ()
  | Ok _ -> problem r "load-design: unexpected reply or illegal placement"
  | Error e -> problem r "load-design: %s %s" e.Protocol.code e.Protocol.detail);
  client

type stream = {
  write_ms : float array;
  apply_ms : float array;  (** the replies' [wall_s] *)
  read_ms : float array;
  reads : string array;
}

(* Writes alternate strictly with full-placement reads over one
   connection, each request sent when the previous reply arrived. *)
let run_stream r client deltas t =
  let n = Array.length deltas in
  let s =
    {
      write_ms = Array.make n 0.;
      apply_ms = Array.make n 0.;
      read_ms = Array.make n 0.;
      reads = Array.make n "";
    }
  in
  let requests =
    Array.map
      (fun d ->
        Protocol.Eco
          {
            session;
            delta = Protocol.Text (Delta.to_string d);
            radius = None;
            max_widenings = None;
            budget_ms = None;
            jobs = None;
            tiles = None;
            want_placement = false;
          })
      deltas
  in
  let read = Protocol.Get_placement { session } in
  (* Writes are audited here, reads when their placements are checked. *)
  for i = 0 to n - 1 do
    let reply, dt = Client.call_timed client requests.(i) in
    s.write_ms.(i) <- dt *. 1000.;
    counted r (fun () ->
        match reply with
        | Ok (Protocol.Eco_applied e) ->
          s.apply_ms.(i) <- e.wall_s *. 1000.;
          Option.iter
            (fun t ->
              tally t ~dirty_bins:e.dirty_bins ~total_bins:e.total_bins
                ~widenings:e.widenings ~fallbacks:e.fallbacks ~path:e.path)
            t
        | _ -> problem r "write %d failed" i);
    let reply, dt = Client.call_timed client read in
    s.read_ms.(i) <- dt *. 1000.;
    match reply with
    | Ok (Protocol.Placement_text p) -> s.reads.(i) <- p.placement
    | _ -> ()
  done;
  s

let counter_of_metrics_json path name =
  match Json.of_string (read_file path) with
  | Ok j -> (
    match Option.bind (Json.member "counters" j) (Json.member name) with
    | Some v -> Option.value (Json.to_int v) ~default:0
    | None -> 0)
  | Error e -> failwith (path ^ ": " ^ e)

let median_time n f =
  St.median (Array.init n (fun _ -> snd (Timer.time f) *. 1000.))

let serve_2023c2 ctx r =
  let design_path, place_path = signoff ctx r in
  let design = Text.load_design_exn design_path in
  let prev = Text.load_placement_exn place_path design in
  let rng = Prng.create ctx.seed in
  let k = max 2 (Design.n_cells design / 300) in
  let deltas = Array.init ctx.ops (fun _ -> eco_delta rng design prev k) in
  let sock = file ctx "d.sock" in
  (* With --trace the daemons write their telemetry totals at exit. *)
  let tele name = if ctx.trace then [ "--metrics-json"; file ctx name ] else [] in
  let t = new_tally () in
  let measured = ref None in
  (* Set-up is daemon spawn -> socket -> load_design reply; the last
     daemon set up serves the measured stream. *)
  for s = 1 to ctx.setups do
    let jdir = file ctx (Printf.sprintf "journal%d" s) in
    fresh_dir jdir;
    let t0 = Timer.now_ns () in
    with_daemon ~sock ([ "--journal"; jdir ] @ tele "journaled.json") (fun pid ->
        let client =
          counted r (fun () -> load_session r pid ~sock ~design_path ~place_path)
        in
        r.setup_s <- Timer.ns_to_s (Timer.elapsed_ns t0) :: r.setup_s;
        if s = ctx.setups then begin
          (* Quality is graded on the placement served right after the
             load: the writes' moves are random, and eco-2023c2 grades
             what the ECO engine makes of such moves. *)
          attempt r (fun () ->
              match Client.call client (Protocol.Get_placement { session }) with
              | Ok (Protocol.Placement_text { placement; _ }) ->
                check_placement r design (ok_exn (Text.read_placement design placement))
              | _ -> problem r "read after load failed");
          measured := Some (run_stream r client deltas (Some t));
          r.peak_rss_mb <- Some (vm_hwm_mb (string_of_int pid))
        end;
        shutdown r pid client)
  done;
  let st = Option.get !measured in
  (* Every read must be a legal placement of the design after the writes
     so far. *)
  let cur = ref design in
  Array.iteri
    (fun i text ->
      attempt r (fun () ->
          cur := (ok_exn (Perturb.apply !cur prev deltas.(i))).Perturb.design;
          check_legal r !cur (ok_exn (Text.read_placement !cur text));
          digest r text))
    st.reads;
  if not ctx.trace then begin
    r.op_ms <- Array.to_list (Array.map (fun ms -> (false, ms)) st.write_ms);
    r.emit_ms <- Array.to_list st.read_ms
  end
  else begin
    let last = st.reads.(Array.length st.reads - 1) in
    (* The same stream against a daemon without a journal, started from
       the same legal placement: the difference is the journal's cost. *)
    let plain =
      with_daemon ~sock (tele "plain.json") (fun pid ->
          let client = load_session r pid ~sock ~design_path ~place_path in
          let s = run_stream r client deltas None in
          shutdown r pid client;
          s)
    in
    if plain.reads.(Array.length plain.reads - 1) <> last then
      problem r "the unjournaled daemon served different placement bytes";
    (* In-process replay of the same writes: the final read must match it
       byte for byte, and it shows the layers below the protocol. *)
    let sess = Eco.Session.create design prev in
    Array.iteri
      (fun i d ->
        let on = traced_op ctx i in
        attempt r (fun () ->
            traced on (fun () ->
                if on then
                  ignore
                    (layer "perturb.apply" (fun () ->
                         Perturb.apply (Eco.Session.design sess) (Eco.Session.placement sess) d));
                match time_op r ~traced:on (fun () -> Eco.Session.eco sess d) with
                | Error e -> problem r "in-process eco: %s" (Eco.error_to_string e)
                | Ok res -> if on then check_legal r res.Eco.design res.Eco.placement)))
      deltas;
    if Text.placement_to_string (Eco.Session.design sess) (Eco.Session.placement sess) <> last
    then problem r "the daemon's final placement differs from the in-process replay";
    let reply = Ok (Protocol.Placement_text { session; placement = last }) in
    let wire = Protocol.response_to_string reply in
    let overhead = Array.mapi (fun i w -> w -. st.apply_ms.(i)) st.write_ms in
    let counter name =
      float_of_int (counter_of_metrics_json (file ctx "journaled.json") name)
    in
    r.layer_values <-
      [
        ("grid.n_bins", float_of_int (flow_grid_bins design));
        ("serve.apply_ms", St.median st.apply_ms);
        ("serve.overhead_ms", St.median overhead);
        ("serve.inproc_apply_ms", St.median (Array.of_list (untraced_ops r)));
        ("journal.overhead_ms", St.median st.write_ms -. St.median plain.write_ms);
        ("journal.appends", counter "journal.appends");
        ("serve.cache_hits", counter "serve.cache.hit");
        ("protocol.reply_encode_ms", median_time 20 (fun () -> ignore (Protocol.response_to_string reply)));
        ("protocol.reply_decode_ms", median_time 20 (fun () -> ignore (Protocol.response_of_string wire)));
        ("protocol.reply_bytes", float_of_int (String.length wire));
      ]
      @ tally_values t
  end

(* ------------------------------------------------------------------ *)
(* Workload table                                                      *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  rate : float;  (** operations per second of --seconds *)
  body : ctx -> run -> unit;
}

(* The operation count is a fixed function of --seconds, so a parent and
   a change always measure the same inputs; the rates are roughly what
   the reference machine (README.md) sustains. *)
let workloads =
  [
    { name = "legalize-2023c2"; rate = 0.5; body = legalize_2023c2 };
    { name = "interchange-2022c3"; rate = 2.; body = interchange_2022c3 };
    { name = "eco-2023c2"; rate = 10.; body = eco_2023c2 };
    { name = "serve-2023c2"; rate = 10.; body = serve_2023c2 };
  ]

(* Every set-up is cheap next to the operations; five of them give
   [setup_s] a median that one slow start cannot move. *)
let setups_per_run = 5

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let end_to_end r =
  let a l = Array.of_list l in
  let q f = St.median (a (List.map f r.quality)) in
  [
    ("setup_s", St.median (a r.setup_s));
    ("op_p50_ms", St.median (a (untraced_ops r)));
    ("emit_p50_ms", St.median (a r.emit_ms));
    ( "peak_rss_mb",
      match r.peak_rss_mb with Some mb -> mb | None -> vm_hwm_mb "self" );
    ("avg_disp_rows", q (fun (v, _, _) -> v));
    ("max_disp_rows", q (fun (_, v, _) -> v));
    ("hpwl_incr_pct", q (fun (_, _, v) -> v));
  ]

(* Totals per span name from the raw events: inclusive time, self time
   and calls; counters summed. *)
let tabulate evs =
  let tbl () = Hashtbl.create 32 in
  let incl = tbl () and self = tbl () and calls = tbl () and counts = tbl () in
  let add h k v = Hashtbl.replace h k (v +. Option.value (Hashtbl.find_opt h k) ~default:0.) in
  let spans =
    List.filter_map
      (function
        | Tdf_telemetry.Span { name; depth; start_ns; dur_ns } ->
          Some { St.name; depth; start_ns; dur_ns }
        | Tdf_telemetry.Count { name; value } ->
          add counts name (float_of_int value);
          None
        | Tdf_telemetry.Observe _ -> None)
      evs
  in
  List.iter
    (fun ((s : St.span), self_ns) ->
      add incl s.name (Int64.to_float s.dur_ns /. 1e6);
      add self s.name (Int64.to_float self_ns /. 1e6);
      add calls s.name 1.)
    (St.self_times spans);
  let get h k = Option.value (Hashtbl.find_opt h k) ~default:0. in
  (get incl, get self, get calls, get counts)

let per_layer r evs =
  let incl, self, calls, counts = tabulate evs in
  let ops = max 1. (calls "ledger.op") in
  let per_op f n = f n /. ops in
  let per_call n = if calls n = 0. then 0. else incl n /. calls n in
  let ratio a b = if b = 0. then 0. else a /. b in
  let aug = counts "flow3d.augmentations" and reliefs = counts "flow3d.reliefs" in
  let traced_ms = List.filter_map (fun (tr, ms) -> if tr then Some ms else None) r.op_ms in
  let plain_ms = untraced_ops r in
  let def_read = per_call "ledger.def.read" in
  let bytes = Option.value (List.assoc_opt "def.bytes" r.layer_values) ~default:0. in
  let measured =
    [
      ("text.load_design_ms", per_call "ledger.text.load_design");
      ("text.save_placement_ms", per_call "ledger.text.save_placement");
      ("def.read_ms", def_read);
      ("def.read_mb_per_s", ratio (bytes /. 1e6) (def_read /. 1000.));
      ("def.to_design_ms", per_call "ledger.def.to_design");
      ("def.of_design_ms", per_call "ledger.def.of_design");
      ("def.write_ms", per_call "ledger.def.write");
      ("validate.design_ms", per_call "ledger.validate.design");
      ("grid.build_ms", per_op incl "flow3d.grid_build" +. per_call "ledger.grid.build");
      ("flow3d.local_pass_ms", per_op incl "flow3d.flow_pass");
      ("flow3d.augment_ms", per_op self "flow3d.augment");
      ("flow3d.relief_ms", per_op self "flow3d.relief");
      ("flow3d.mover_ms", per_op self "flow3d.mover");
      ("flow3d.place_segments_ms", per_op incl "flow3d.place_row");
      ("flow3d.augmentations", per_op counts "flow3d.augmentations");
      ("flow3d.expansions", per_op counts "flow3d.augment.pops");
      ("flow3d.reliefs", per_op counts "flow3d.reliefs");
      ("flow3d.expansions_per_aug", ratio (counts "flow3d.augment.pops") aug);
      ( "flow3d.search_success_ratio",
        ratio aug (aug +. reliefs +. counts "flow3d.failed_supplies") );
      ("post_opt.pass_ms", per_op incl "flow3d.post_opt");
      ("post_opt.rounds", per_op counts "flow3d.post_opt_rounds");
      ("mcmf.min_cost_flow_ms", per_op self "mcmf.min_cost_flow");
      ("mcmf.augmentations", per_op counts "mcmf.augmentations");
      ("perturb.apply_ms", per_call "ledger.perturb.apply");
      ("metrics.legality_ms", per_call "ledger.metrics.legality");
      ("metrics.hpwl_ms", per_call "ledger.metrics.hpwl");
      ("unattributed_frac", ratio (self "ledger.op") (incl "ledger.op"));
      ( "trace_overhead_frac",
        if traced_ms = [] || plain_ms = [] then 0.
        else
          (St.median (Array.of_list traced_ms) /. St.median (Array.of_list plain_ms)) -. 1.
      );
    ]
  in
  List.map
    (fun (name, _) ->
      let from l = List.assoc_opt name l in
      ( name,
        match from r.layer_values with
        | Some v -> v
        | None -> Option.value (from measured) ~default:0. ))
    per_layer_metrics

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let git_revision () =
  try
    let ic =
      Unix.open_process_args_in "sh" [| "sh"; "-c"; "git rev-parse HEAD 2>/dev/null" |]
    in
    let rev = String.trim (In_channel.input_all ic) in
    ignore (Unix.close_process_in ic);
    if rev = "" then "unknown" else rev
  with Unix.Unix_error _ -> "unknown"

let environment ~seed ~seconds ~trace =
  Json.Obj
    [
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("ocamlrunparam", Json.String (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:""));
      ("git_revision", Json.String (git_revision ()));
      ("seed", Json.Int seed);
      ("seconds", Json.Int seconds);
      ("trace", Json.Bool trace);
    ]

let metric_units ctx = if ctx.trace then per_layer_metrics else end_to_end_metrics

let metrics_json ctx values =
  Json.Obj
    (List.map
       (fun (name, v) ->
         ( name,
           Json.Obj
             [ ("value", Json.Float v); ("unit", Json.String (List.assoc name (metric_units ctx))) ]
         ))
       values)

(* The highest percentile with ten samples beyond it, per kind of
   operation.  Reported, not gated: on a shared machine its run-to-run
   spread is wider than any useful bound (README.md). *)
let tails r =
  List.map
    (fun (kind, l) ->
      let n = List.length l in
      (kind, n, Option.map (fun p -> (p, St.quantile (Array.of_list l) (p /. 100.))) (St.tail_percentile n)))
    [ ("op", untraced_ops r); ("emit", r.emit_ms) ]

let run_workload ctx w =
  let r = new_run () in
  events := [];
  w.body ctx r;
  let values = if ctx.trace then per_layer r (List.rev !events) else end_to_end r in
  let digest = Crc32.to_hex (Crc32.value r.digest) in
  if ctx.smoke then
    Printf.printf "smoke %s%s: %d metrics, digest %s\n%!" w.name
      (if ctx.trace then " --trace" else "")
      (List.length values) digest
  else begin
    List.iter
      (fun (name, v) ->
        Printf.printf "%s %s %.6g %s\n" w.name name v (List.assoc name (metric_units ctx)))
      values;
    if not ctx.trace then
      List.iter
        (fun (kind, n, tail) ->
          match tail with
          | Some (p, v) -> Printf.printf "# %s %s tail: p%g %.6g ms of %d\n" w.name kind p v n
          | None -> Printf.printf "# %s %s tail: %d samples are too few\n" w.name kind n)
        (tails r);
    Printf.printf "# %s digest %s (%d operations)\n%!" w.name digest ctx.ops
  end;
  let unattributed = List.assoc_opt "unattributed_frac" values in
  (match unattributed with
  | Some u when u > 0.10 && (w.name = "legalize-2023c2" || w.name = "interchange-2022c3") ->
    Printf.eprintf "%s: warning: %.1f%% of the operation time is in no layer span\n"
      w.name (100. *. u)
  | _ -> ());
  List.iter (fun p -> Printf.eprintf "%s: AUDIT FAILED: %s\n%!" w.name p) (List.rev r.problems);
  (r, values)

let result_json ~env ctx w r values =
  Json.Obj
    [
      ("workload", Json.String w.name);
      ("environment", env);
      ("correct", Json.Bool (r.problems = []));
      ("attempted", Json.Int (max 1 r.attempted));
      ("failed", Json.Int r.failed);
      ("metrics", metrics_json ctx values);
      ("digest", Json.String (Crc32.to_hex (Crc32.value r.digest)));
      ("operations", Json.Int ctx.ops);
      ("setups", Json.Int ctx.setups);
      ( "tails",
        Json.Obj
          (List.map
             (fun (kind, n, tail) ->
               ( kind,
                 Json.Obj
                   (("n", Json.Int n)
                   ::
                   (match tail with
                   | Some (p, v) -> [ ("percentile", Json.Float p); ("ms", Json.Float v) ]
                   | None -> [])) ))
             (tails r)) );
      ("problems", Json.List (List.rev_map (fun p -> Json.String p) r.problems));
    ]

(* The result line, last on stdout: exactly these four keys. *)
let result_line j =
  let field k = Option.get (Json.member k j) in
  Json.to_string
    (Json.Obj
       (List.map (fun k -> (k, field k)) [ "correct"; "attempted"; "failed"; "metrics" ]))

let write_json path j =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string j);
      output_char oc '\n')

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
    Printf.eprintf "ledger: unknown workload %S (%s)\n" name
      (String.concat ", " (List.map (fun w -> w.name) workloads));
    exit 2

let ctx_for ~out ~seed ~seconds ~trace ~smoke w =
  let dir = Filename.concat out w.name in
  mkdir_p dir;
  {
    dir;
    seed;
    ops = (if smoke then 3 else max 1 (int_of_float (Float.round (float_of_int seconds *. w.rate))));
    setups = (if smoke || trace then 1 else setups_per_run);
    trace;
    smoke;
  }

let single ~out ~seed ~seconds ~trace name =
  let w = find_workload name in
  let ctx = ctx_for ~out ~seed ~seconds ~trace ~smoke:false w in
  let r, values = run_workload ctx w in
  let j = result_json ~env:(environment ~seed ~seconds ~trace) ctx w r values in
  write_json (Filename.concat out (w.name ^ ".json")) j;
  if trace then
    Out_channel.with_open_bin
      (Filename.concat out (w.name ^ ".events.jsonl"))
      (fun oc ->
        List.iter
          (fun ev ->
            output_string oc (Json.to_string (Tdf_telemetry.Jsonl.event_to_json ev));
            output_char oc '\n')
          (List.rev !events));
  print_endline (result_line j);
  if r.problems <> [] then exit 1

(* Every workload in a child process of its own, one after another. *)
let all ~out ~seed ~seconds ~trace =
  let exe = Sys.executable_name in
  let ok = ref true in
  let results =
    List.map
      (fun w ->
        let args =
          [| exe; "--workload"; w.name; "--seed"; string_of_int seed; "--seconds";
             string_of_int seconds; "--trace"; (if trace then "1" else "0"); "--out"; out |]
        in
        let path = Filename.concat out (w.name ^ ".json") in
        if Sys.file_exists path then Sys.remove path;
        let ic = Unix.open_process_args_in exe args in
        let lines = In_channel.input_lines ic in
        (match Unix.close_process_in ic with Unix.WEXITED 0 -> () | _ -> ok := false);
        (* Pass the table through; the result line is folded into
           ledger.json instead. *)
        List.iteri (fun i l -> if i < List.length lines - 1 then print_endline l) lines;
        if Sys.file_exists path then ok_exn (Json.of_string (read_file path)) else Json.Null)
      workloads
  in
  write_json (Filename.concat out "ledger.json")
    (Json.Obj
       [
         ("environment", environment ~seed ~seconds ~trace);
         ("workloads", Json.List results);
       ]);
  Printf.printf "wrote %s\n" (Filename.concat out "ledger.json");
  if not !ok then exit 1

(* Names and units of this file against BENCHMARK.json. *)
let check_benchmark_json path =
  let j = ok_exn (Json.of_string (read_file path)) in
  let listed key =
    List.map
      (fun m ->
        ( Option.get (Option.bind (Json.member "name" m) Json.to_str),
          Option.get (Option.bind (Json.member "unit" m) Json.to_str) ))
      (Option.get (Option.bind (Json.member key j) Json.to_list))
  in
  let names =
    List.map
      (fun w -> Option.get (Option.bind (Json.member "name" w) Json.to_str))
      (Option.get (Option.bind (Json.member "workloads" j) Json.to_list))
  in
  listed "end_to_end" = end_to_end_metrics
  && listed "per_layer" = per_layer_metrics
  && names = List.map (fun w -> w.name) workloads

let smoke ~out =
  print_endline "smoke run: tiny cases, 3 operations each; not a measurement";
  let bad = ref false in
  List.iter
    (fun trace ->
      List.iter
        (fun w ->
          let ctx = ctx_for ~out ~seed:1 ~seconds:0 ~trace ~smoke:true w in
          let r, _ = run_workload ctx w in
          if r.problems <> [] then bad := true)
        workloads)
    [ false; true ];
  if Sys.file_exists "BENCHMARK.json" && not (check_benchmark_json "BENCHMARK.json") then begin
    prerr_endline "ledger: BENCHMARK.json does not list the ledger's workloads and metrics";
    bad := true
  end;
  if !bad then exit 1

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let out = ref "_ledger" and smoke_run = ref false in
  let spec =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME run one workload here");
      ("--seed", Arg.Set_int seed, "N seed of every delta and request stream (default 1)");
      ("--seconds", Arg.Set_int seconds, "S run length; sets each workload's operation count (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer instead of end-to-end metrics");
      ("--out", Arg.Set_string out, "DIR working files and results (default _ledger)");
      ("--smoke", Arg.Set smoke_run, " tiny cases, traced and untraced; not a measurement");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ledger.exe [--workload NAME] --seed N [--seconds S] [--trace 0|1] [--out DIR] | --smoke";
  (match List.filter (fun v -> Sys.getenv_opt v <> None) pinned_env with
  | [] -> ()
  | set ->
    Printf.eprintf "ledger: refusing to run with %s set: it changes the program measured\n"
      (String.concat ", " set);
    exit 2);
  if !trace <> 0 && !trace <> 1 then (prerr_endline "ledger: --trace takes 0 or 1"; exit 2);
  if !seconds < 0 then (prerr_endline "ledger: --seconds must be >= 0"; exit 2);
  Tdf_par.set_jobs 1;
  Tdf_legalizer.Tile.set_tiles 1;
  mkdir_p !out;
  let trace = !trace = 1 in
  if !smoke_run then smoke ~out:!out
  else
    match !workload with
    | Some name -> single ~out:!out ~seed:!seed ~seconds:!seconds ~trace name
    | None -> all ~out:!out ~seed:!seed ~seconds:!seconds ~trace
