(* tdflow command-line interface.

     legalize gen      — generate a synthetic ICCAD-style case
     legalize run      — legalize a design file with a chosen method
     legalize check    — audit a placement for legality
     legalize compare  — run all methods on a design and print a table
     legalize viz      — render a die of a placement as SVG
     legalize eco      — incrementally re-legalize after an ECO delta
     legalize serve    — persistent legalization daemon on a Unix socket
     legalize client   — replay a request trace against a running daemon
     legalize version  — print the version string *)

open Cmdliner
module Loader = Tdf_io.Loader

let design_arg =
  let doc = "Design file (tdflow text format, see lib/io/text.ml)." in
  Arg.(required & opt (some file) None & info [ "d"; "design" ] ~docv:"FILE" ~doc)

(* ---- parallelism --------------------------------------------------- *)

(* The experiments grid is the one parallel section, so only [compare]
   takes --jobs.  The flag only *requests* a pool size; Tdf_par clamps it
   and falls back to TDFLOW_JOBS, then 1, when the flag is absent.
   Results are bit-identical at every setting (see lib/par/pool.mli). *)
let jobs_term =
  let doc =
    "Number of worker domains over which $(b,compare) fans out the \
     methods.  Defaults to $(b,TDFLOW_JOBS) or 1.  Results are identical \
     at every setting."
  in
  let jobs =
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  Term.(const (Option.iter Tdf_par.set_jobs) $ jobs)

(* Inert: parsed, warned about once on stderr by Cmdliner, and ignored.
   They stay only because the performance ledger (bench/ledger) starts
   [serve ... --jobs 1 --tiles 1]; they go once the ledger stops passing
   them. *)
let inert name ~why =
  let v =
    Arg.(
      value
      & opt (some int) None
      & info [ name ] ~docv:"N" ~deprecated:("ignored: " ^ why)
          ~doc:"Accepted and ignored.")
  in
  Term.(const ignore $ v)

let tiles_term =
  inert "tiles" ~why:"the flow pass is no longer sharded into tiles"

(* ---- telemetry ----------------------------------------------------- *)

type telemetry_opts = {
  metrics : bool;
  metrics_json : string option;
  trace : string option;
}

let telemetry_term =
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Print a per-phase telemetry summary after the run: span \
             count/total/mean/p95, counter totals (MCMF pops, \
             augmentations, ...).")
  in
  let metrics_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:"Write the telemetry summary as JSON to $(docv).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event file to $(docv); open it in \
             Perfetto (ui.perfetto.dev) or chrome://tracing.")
  in
  let combine metrics metrics_json trace = { metrics; metrics_json; trace } in
  Term.(const combine $ metrics $ metrics_json $ trace)

(* Install the sinks the flags ask for, run, then flush the outputs (also
   on exceptions, so a failing run still leaves its trace behind). *)
let with_telemetry opts f =
  let agg =
    if opts.metrics || opts.metrics_json <> None then begin
      let a = Tdf_telemetry.Aggregate.create () in
      Tdf_telemetry.install (Tdf_telemetry.Aggregate.sink a);
      Some a
    end
    else None
  in
  let tr =
    match opts.trace with
    | Some _ ->
      let t = Tdf_telemetry.Trace.create () in
      Tdf_telemetry.install (Tdf_telemetry.Trace.sink t);
      Some t
    | None -> None
  in
  let write_failed = ref false in
  (* A bad output path must not surface as Fun.Finally_raised: report it
     like any other CLI error and fail after the run's results printed. *)
  let try_write what path write =
    try
      write ();
      Printf.printf "wrote %s %s\n" what path
    with Sys_error msg ->
      write_failed := true;
      Printf.eprintf "legalize: cannot write %s: %s\n" what msg
  in
  Fun.protect f ~finally:(fun () ->
      Tdf_telemetry.reset ();
      Option.iter
        (fun a ->
          if opts.metrics then begin
            print_newline ();
            print_string (Tdf_telemetry.Aggregate.render a)
          end;
          Option.iter
            (fun path ->
              try_write "metrics" path (fun () ->
                  let oc = open_out path in
                  output_string oc
                    (Tdf_telemetry.Json.to_string (Tdf_telemetry.Aggregate.to_json a));
                  output_char oc '\n';
                  close_out oc))
            opts.metrics_json)
        agg;
      Option.iter
        (fun t ->
          Option.iter
            (fun path -> try_write "trace" path (fun () -> Tdf_telemetry.Trace.save t path))
            opts.trace)
        tr);
  if !write_failed then exit 1

(* Designs load from either the native text format or the contest dialect;
   the first keyword disambiguates. *)
let load_design path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg ->
      Printf.eprintf "legalize: %s\n" msg;
      exit 2
  in
  match Loader.design ~path text with
  | Ok d -> d
  | Error e ->
    Printf.eprintf "legalize: %s\n" e;
    exit 2

let load_placement design path =
  match Tdf_io.Text.load_placement path design with
  | Ok p -> p
  | Error e ->
    Printf.eprintf "legalize: %s\n" (Loader.diagnostic ~path e);
    exit 2

let suite_conv =
  let parse = function
    | "iccad2022" | "2022" -> Ok Tdf_benchgen.Spec.Iccad2022
    | "iccad2023" | "2023" -> Ok Tdf_benchgen.Spec.Iccad2023
    | s -> Error (`Msg (Printf.sprintf "unknown suite %S (iccad2022|iccad2023)" s))
  in
  let print fmt s = Format.pp_print_string fmt (Tdf_benchgen.Spec.suite_slug s) in
  Arg.conv (parse, print)

(* Names match case-insensitively, and every name the printer shows
   (the help's [absent=Ours], [BonnPL]) parses back. *)
let method_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "tetris" -> Ok Tdf_experiments.Runner.Tetris
    | "abacus" -> Ok Tdf_experiments.Runner.Abacus
    | "bonn" | "bonnpl" -> Ok Tdf_experiments.Runner.Bonn
    | "ours" | "3dflow" | "flow3d" -> Ok Tdf_experiments.Runner.Ours
    | "no-d2d" | "w/o d2d" -> Ok Tdf_experiments.Runner.Ours_no_d2d
    | _ ->
      Error
        (`Msg (Printf.sprintf "unknown method %S (tetris|abacus|bonn|ours|no-d2d)" s))
  in
  let print fmt m =
    Format.pp_print_string fmt (Tdf_experiments.Runner.method_name m)
  in
  Arg.conv (parse, print)

let scale_arg =
  let doc = "Scale factor for generated case sizes (0 < s <= 1)." in
  Arg.(value & opt float 0.05 & info [ "s"; "scale" ] ~docv:"S" ~doc)

(* ---- gen ---------------------------------------------------------- *)

let gen_cmd =
  let suite =
    Arg.(
      value
      & opt suite_conv Tdf_benchgen.Spec.Iccad2023
      & info [ "suite" ] ~docv:"SUITE" ~doc:"Benchmark suite (iccad2022|iccad2023).")
  in
  let case =
    Arg.(
      value & opt string "case2"
      & info [ "case" ] ~docv:"CASE" ~doc:"Case name from TABLE II (e.g. case3h).")
  in
  let output =
    Arg.(
      value & opt string "-"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file; - for stdout.")
  in
  let contest =
    Arg.(
      value & flag
      & info [ "contest" ]
          ~doc:"Emit the ICCAD-contest-style dialect instead of the native \
                format.")
  in
  let run suite case scale output contest =
    match Tdf_benchgen.Spec.find suite case with
    | exception Not_found ->
      Printf.eprintf "error: unknown case %s\n" case;
      exit 2
    | spec ->
      let design = Tdf_benchgen.Gen.generate ~scale spec in
      let to_string d =
        if contest then Tdf_io.Contest.to_string d
        else Tdf_io.Text.design_to_string d
      in
      if output = "-" then print_string (to_string design)
      else begin
        if contest then Tdf_io.Contest.save output design
        else Tdf_io.Text.save_design output design;
        Printf.printf "wrote %s (%d cells, %d macros, %d nets)\n" output
          (Tdf_netlist.Design.n_cells design)
          (Array.length design.Tdf_netlist.Design.macros)
          (Array.length design.Tdf_netlist.Design.nets)
      end
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic ICCAD-style benchmark case.")
    Term.(const run $ suite $ case $ scale_arg $ output $ contest)

(* ---- run ---------------------------------------------------------- *)

let run_cmd =
  let meth =
    Arg.(
      value
      & opt method_conv Tdf_experiments.Runner.Ours
      & info [ "m"; "method" ] ~docv:"METHOD"
          ~doc:"Legalizer: tetris, abacus, bonn, ours, no-d2d.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the placement here.")
  in
  let alpha =
    Arg.(
      value
      & opt (some float) None
      & info [ "alpha" ] ~docv:"A" ~doc:"Branch-and-bound slack (default 0.1).")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Treat preflight warnings as fatal: refuse to legalize a \
                design with any diagnostic.")
  in
  let repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:"Auto-repair recoverable preflight issues (clamp positions, \
                drop degenerate nets and escaping macros) before \
                legalizing; each repair is reported.")
  in
  let budget_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget-ms" ] ~docv:"MS"
          ~doc:"Wall-clock budget per legalization attempt.  An exhausted \
                budget yields a best-effort partial placement (and, unless \
                $(b,--no-fallback), triggers the retry/fallback chain).")
  in
  let no_fallback =
    Arg.(
      value & flag
      & info [ "no-fallback" ]
          ~doc:"Disable the resilience chain (relaxed-config retry, then \
                Tetris degradation) for method `ours'; a failed run \
                reports its error instead.")
  in
  let run () design_path meth output alpha strict repair budget_ms
      no_fallback tele =
    with_telemetry tele @@ fun () ->
    let design = load_design design_path in
    let cfg =
      match alpha with
      | Some a ->
        { Tdf_legalizer.Config.default with Tdf_legalizer.Config.alpha = a }
      | None -> Tdf_legalizer.Config.default
    in
    let opts =
      { Tdf_robust.Pipeline.strict; repair; budget_ms;
        fallback = not no_fallback }
    in
    let finish design p dt extra =
      let s = Tdf_metrics.Displacement.summary design p in
      Printf.printf
        "%s: avg %.3f rows, max %.2f rows, hpwl %+.2f%%, %.2fs, legal %b%s\n"
        (Tdf_experiments.Runner.method_name meth)
        s.Tdf_metrics.Displacement.avg_norm s.Tdf_metrics.Displacement.max_norm
        (Tdf_metrics.Hpwl.increase_pct design p)
        dt
        (Tdf_metrics.Legality.is_legal design p)
        extra;
      Option.iter (fun path -> Tdf_io.Text.save_placement path design p) output
    in
    match meth with
    | Tdf_experiments.Runner.Ours ->
      (* The paper's method runs through the resilient pipeline: preflight,
         budgets, retry, Tetris fallback. *)
      let result, dt =
        Tdf_util.Timer.time (fun () ->
            Tdf_robust.Pipeline.run ~opts ~cfg design)
      in
      (match result with
      | Error e ->
        Printf.eprintf "legalize: %s\n" (Tdf_robust.Error.to_string e);
        exit 1
      | Ok r ->
        List.iter
          (fun i ->
            Printf.eprintf "preflight: %s\n"
              (Tdf_robust.Validate.issue_to_string i))
          r.Tdf_robust.Pipeline.issues;
        List.iter
          (fun msg -> Printf.eprintf "repair: %s\n" msg)
          r.Tdf_robust.Pipeline.repairs;
        let extra =
          match r.Tdf_robust.Pipeline.path with
          | Tdf_robust.Pipeline.Primary -> ""
          | p ->
            Printf.sprintf ", via %s (%d attempts)"
              (Tdf_robust.Pipeline.path_name p)
              r.Tdf_robust.Pipeline.attempts
        in
        finish r.Tdf_robust.Pipeline.design r.Tdf_robust.Pipeline.placement dt
          extra)
    | m ->
      (* Baselines skip the fallback chain but honor the preflight flags. *)
      let design, repairs =
        if repair then Tdf_robust.Validate.repair design else (design, [])
      in
      List.iter (fun msg -> Printf.eprintf "repair: %s\n" msg) repairs;
      let issues = Tdf_robust.Validate.design design in
      let blocking =
        if strict then issues else Tdf_robust.Validate.fatal issues
      in
      (match blocking with
      | i :: _ ->
        Printf.eprintf "legalize: preflight: %s\n"
          (Tdf_robust.Validate.issue_to_string i);
        exit 1
      | [] -> ());
      let p, dt =
        Tdf_util.Timer.time (fun () ->
            Tdf_experiments.Runner.legalize_with m design)
      in
      finish design p dt ""
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Legalize a design with one method.")
    Term.(
      const run $ tiles_term $ design_arg $ meth $ output $ alpha $ strict
      $ repair $ budget_ms $ no_fallback $ telemetry_term)

(* ---- check -------------------------------------------------------- *)

let check_cmd =
  let placement =
    Arg.(
      required
      & opt (some file) None
      & info [ "p"; "placement" ] ~docv:"FILE" ~doc:"Placement file to audit.")
  in
  let run design_path placement_path =
    let design = load_design design_path in
    let p = load_placement design placement_path in
    let rep = Tdf_metrics.Legality.check design p in
    if rep.Tdf_metrics.Legality.n_violations = 0 then print_endline "LEGAL"
    else begin
      Printf.printf "ILLEGAL: %d violations (overlap area %d)\n"
        rep.Tdf_metrics.Legality.n_violations rep.Tdf_metrics.Legality.overlap_area;
      List.iter print_endline rep.Tdf_metrics.Legality.messages;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Audit a placement for legality.")
    Term.(const run $ design_arg $ placement)

(* ---- compare ------------------------------------------------------ *)

let compare_cmd =
  let run () design_path tele =
    with_telemetry tele @@ fun () ->
    let design = load_design design_path in
    let r =
      Tdf_experiments.Runner.run_case ~case:design.Tdf_netlist.Design.name design
    in
    print_string
      (Tdf_experiments.Tables.comparison ~title:"Method comparison" [ r ])
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run every legalizer on a design and tabulate.")
    Term.(const run $ jobs_term $ design_arg $ telemetry_term)

(* ---- viz ---------------------------------------------------------- *)

let viz_cmd =
  let placement =
    Arg.(
      required
      & opt (some file) None
      & info [ "p"; "placement" ] ~docv:"FILE" ~doc:"Placement to render.")
  in
  let die =
    Arg.(value & opt int 1 & info [ "die" ] ~docv:"D" ~doc:"Die index to render.")
  in
  let output =
    Arg.(
      value & opt string "placement.svg"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output SVG path.")
  in
  let run design_path placement_path die output =
    let design = load_design design_path in
    let p = load_placement design placement_path in
    Tdf_io.Svg.save_die output design p ~die
      ~title:(Printf.sprintf "%s die %d" design.Tdf_netlist.Design.name die)
      ();
    Printf.printf "wrote %s\n" output
  in
  Cmd.v
    (Cmd.info "viz" ~doc:"Render one die of a placement as SVG (Fig. 8 style).")
    Term.(const run $ design_arg $ placement $ die $ output)

(* ---- eco ---------------------------------------------------------- *)

let eco_cmd =
  let placement =
    Arg.(
      required
      & opt (some file) None
      & info [ "p"; "placement" ] ~docv:"FILE"
          ~doc:"Previous legal placement for the design.")
  in
  let delta =
    Arg.(
      required
      & opt (some file) None
      & info [ "delta" ] ~docv:"FILE"
          ~doc:"ECO delta file (move/resize/add/remove/macro ops; see \
                lib/io/delta.mli for the grammar).")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the re-legalized placement here (cell ids are the \
                perturbed design's; see $(b,--out-design)).")
  in
  let out_design =
    Arg.(
      value
      & opt (some string) None
      & info [ "out-design" ] ~docv:"FILE"
          ~doc:"Write the perturbed design here (needed to interpret the \
                output placement after add/remove ops renumber cells).")
  in
  let radius =
    Arg.(
      value & opt int 4
      & info [ "radius" ] ~docv:"R"
          ~doc:"Initial BFS radius of the dirty region, in bins.")
  in
  let max_widenings =
    Arg.(
      value & opt int 3
      & info [ "max-widenings" ] ~docv:"N"
          ~doc:"Radius escalations before falling back to a full rerun.")
  in
  let no_fallback =
    Arg.(
      value & flag
      & info [ "no-fallback" ]
          ~doc:"Fail instead of degrading to a full re-legalization when \
                the local solves are exhausted.")
  in
  let budget_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget-ms" ] ~docv:"MS"
          ~doc:"Wall-clock budget per local attempt (and for the fallback \
                pipeline's attempts).")
  in
  let run () design_path placement_path delta_path output out_design radius
      max_widenings no_fallback budget_ms tele =
    with_telemetry tele @@ fun () ->
    let design = load_design design_path in
    let prev = load_placement design placement_path in
    let delta =
      match Tdf_io.Delta.load delta_path with
      | Ok d -> d
      | Error e ->
        Printf.eprintf "legalize: %s\n" (Loader.diagnostic ~path:delta_path e);
        exit 2
    in
    let cfg =
      {
        Tdf_incremental.Eco.default_cfg with
        Tdf_incremental.Eco.initial_radius = radius;
        max_widenings;
        fallback = not no_fallback;
        budget_ms;
      }
    in
    let result, dt =
      Tdf_util.Timer.time (fun () ->
          Tdf_incremental.Eco.run ~cfg design prev delta)
    in
    match result with
    | Error e ->
      Printf.eprintf "legalize: eco: %s\n"
        (Tdf_incremental.Eco.error_to_string e);
      exit 1
    | Ok r ->
      let s = r.Tdf_incremental.Eco.stats in
      Printf.printf
        "eco: %d ops, %s, dirty %d/%d bins (%d segments), %d widenings, %d \
         fallbacks, %.3fs, legal %b\n"
        (List.length delta)
        (Tdf_incremental.Eco.path_name s.Tdf_incremental.Eco.path)
        s.Tdf_incremental.Eco.dirty_bins s.Tdf_incremental.Eco.total_bins
        s.Tdf_incremental.Eco.dirty_segments s.Tdf_incremental.Eco.widenings
        s.Tdf_incremental.Eco.fallbacks dt
        (Tdf_metrics.Legality.is_legal r.Tdf_incremental.Eco.design
           r.Tdf_incremental.Eco.placement);
      Option.iter
        (fun path ->
          Tdf_io.Text.save_design path r.Tdf_incremental.Eco.design;
          Printf.printf "wrote %s\n" path)
        out_design;
      Option.iter
        (fun path ->
          Tdf_io.Text.save_placement path r.Tdf_incremental.Eco.design
            r.Tdf_incremental.Eco.placement;
          Printf.printf "wrote %s\n" path)
        output
  in
  Cmd.v
    (Cmd.info "eco"
       ~doc:
         "Incrementally re-legalize a previously legal placement after a \
          small ECO delta, touching only a dirty region of the grid.")
    Term.(
      const run $ tiles_term $ design_arg $ placement $ delta $ output
      $ out_design $ radius $ max_widenings $ no_fallback $ budget_ms
      $ telemetry_term)

(* ---- serve --------------------------------------------------------- *)

let socket_arg =
  let doc = "Unix-domain socket path of the daemon." in
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let max_sessions =
    Arg.(
      value & opt int 8
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:"Warm sessions kept resident; beyond this the least \
                recently used is evicted.")
  in
  let max_frame =
    Arg.(
      value
      & opt int (16 * 1024 * 1024)
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:"Largest accepted request frame; oversized frames are \
                refused before allocation.")
  in
  let budget_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget-ms" ] ~docv:"MS"
          ~doc:"Default wall-clock budget applied to requests that carry \
                none of their own.")
  in
  let journal_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"DIR"
          ~doc:"Enable durability: write-ahead journal and session \
                snapshots in $(docv); on restart the daemon recovers its \
                sessions from there.")
  in
  let fsync =
    Arg.(
      value & opt string "every:8"
      & info [ "fsync" ] ~docv:"POLICY"
          ~doc:"Journal fsync policy: $(b,always) (no acknowledged \
                record lost), $(b,every:N) (bounded loss window, \
                amortized cost), or $(b,never).")
  in
  let snapshot_every =
    Arg.(
      value & opt int 64
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:"Journal records between automatic snapshot+compact \
                cycles.")
  in
  let max_pending =
    Arg.(
      value & opt int 64
      & info [ "max-pending" ] ~docv:"N"
          ~doc:"Bound on requests queued for execution across all \
                connections; beyond it requests are shed with a typed \
                overloaded reply.")
  in
  let max_conn_queue =
    Arg.(
      value & opt int 256
      & info [ "max-conn-queue" ] ~docv:"N"
          ~doc:"Per-connection bound on queued frames (shed markers \
                included); a client that streams past it gets a typed \
                queue-overflow error and its connection closed.")
  in
  let idle_timeout =
    Arg.(
      value & opt float 0.
      & info [ "idle-timeout-s" ] ~docv:"SECONDS"
          ~doc:"Reap connections idle longer than $(docv) (0 disables).")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Hard cap applied to every request budget, explicit or \
                defaulted, so no request can hold the event loop past \
                the cap.")
  in
  let arm_failpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "arm-failpoint" ] ~docv:"SITE[:TIMES[:AFTER]]"
          ~doc:"Testing hook: arm a named failpoint (e.g. \
                $(b,journal.append:1:3) tears the 4th journal write and \
                kills the daemon — the chaos harness uses this).")
  in
  let parse_arm spec =
    let int_field what s =
      match int_of_string_opt s with
      | Some n when n >= 0 -> n
      | _ -> failwith (Printf.sprintf "bad --arm-failpoint %s %S" what s)
    in
    match String.split_on_char ':' spec with
    | [ site ] -> Tdf_util.Failpoint.arm site
    | [ site; times ] ->
      Tdf_util.Failpoint.arm ~times:(int_field "times" times) site
    | [ site; times; after ] ->
      Tdf_util.Failpoint.arm
        ~times:(int_field "times" times)
        ~after:(int_field "after" after) site
    | _ -> failwith ("bad --arm-failpoint spec " ^ spec)
  in
  let run () () socket max_sessions max_frame budget_ms journal_dir fsync
      snapshot_every max_pending max_conn_queue idle_timeout deadline_ms
      arm_failpoint tele =
    with_telemetry tele @@ fun () ->
    Option.iter parse_arm arm_failpoint;
    let journal =
      Option.map
        (fun dir ->
          match Tdf_io.Journal.fsync_policy_of_string fsync with
          | Error e -> failwith e
          | Ok policy ->
            { (Tdf_io.Journal.default_cfg ~dir) with Tdf_io.Journal.fsync = policy })
        journal_dir
    in
    let cfg =
      {
        (Tdf_server.Server.default_cfg ~socket_path:socket) with
        Tdf_server.Server.max_sessions;
        max_frame;
        default_budget_ms = budget_ms;
        journal;
        snapshot_every;
        max_pending;
        max_conn_queue;
        idle_timeout_s = idle_timeout;
        deadline_ms;
      }
    in
    let server = Tdf_server.Server.create cfg in
    (match Tdf_server.Server.recovery server with
    | Some r
      when r.Tdf_server.Server.recovered_sessions > 0
           || r.Tdf_server.Server.replayed_records > 0
           || r.Tdf_server.Server.truncated_bytes > 0
           || r.Tdf_server.Server.dropped_snapshots > 0 ->
      (* The torn-byte count is part of the printed contract: the chaos
         harness greps it to prove a mid-append kill was healed. *)
      Printf.printf
        "tdflow serve: recovered %d sessions (%d records replayed, %d torn \
         bytes truncated, %d snapshots dropped)\n\
         %!"
        r.Tdf_server.Server.recovered_sessions
        r.Tdf_server.Server.replayed_records
        r.Tdf_server.Server.truncated_bytes
        r.Tdf_server.Server.dropped_snapshots
    | _ -> ());
    let stop = ref false in
    let quit _ = stop := true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
    Printf.printf "tdflow serve: listening on %s\n%!" socket;
    while (not !stop) && Tdf_server.Server.step server do
      ()
    done;
    (* SIGTERM/SIGINT path: answer what is queued and write a final
       snapshot before tearing anything down. *)
    Tdf_server.Server.drain server;
    if journal <> None then
      Printf.printf "tdflow serve: drained; final snapshot written\n%!";
    let live = Tdf_server.Server.live_sessions server in
    Tdf_server.Server.close server;
    (* The session count is part of the printed contract: CI greps it to
       prove a replayed trace leaks no sessions. *)
    Printf.printf "tdflow serve: shut down (%d live sessions dropped)\n%!" live
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent legalization daemon: load designs into named \
          sessions over a Unix-domain socket and stream legalize/ECO \
          requests against the warm state (see lib/io/protocol.mli for \
          the wire grammar).  With $(b,--journal) the daemon survives \
          crashes: every mutating request is journaled before its reply \
          and replayed on restart.")
    Term.(
      const run
      $ inert "jobs" ~why:"every request runs sequentially"
      $ tiles_term $ socket_arg $ max_sessions $ max_frame
      $ budget_ms $ journal_dir $ fsync $ snapshot_every $ max_pending
      $ max_conn_queue $ idle_timeout $ deadline_ms $ arm_failpoint
      $ telemetry_term)

(* ---- client -------------------------------------------------------- *)

let client_cmd =
  let trace =
    Arg.(
      required
      & opt (some file) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Request trace to replay: one JSON request per line \
                (lib/io/protocol.mli grammar); blank lines and # comments \
                are skipped.")
  in
  let out_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "out-json" ] ~docv:"FILE"
          ~doc:"Write the replay summary (latency percentiles, error \
                counts) as JSON to $(docv).")
  in
  let require_legal =
    Arg.(
      value & flag
      & info [ "require-legal" ]
          ~doc:"Exit non-zero when any legalize/eco reply reports an \
                illegal placement (for CI smoke checks).")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ] ~doc:"Print one line per request replayed.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:"Retry budget for transient failures: refused connects, \
                dropped connections (daemon restarting) and overloaded \
                replies (0 fails fast).")
  in
  let backoff_ms =
    Arg.(
      value & opt int 50
      & info [ "backoff-ms" ] ~docv:"MS"
          ~doc:"Base retry delay; doubles per attempt, capped at 64x.")
  in
  let dump_placements =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-placements" ] ~docv:"FILE"
          ~doc:
            "Concatenate every placement text carried by a reply \
             (legalize/eco with \"placement\":true and get-placement), in \
             reply order, into $(docv) — two replay runs are then \
             byte-comparable with $(b,cmp), the determinism check CI \
             runs across daemons.")
  in
  let run socket trace_path out_json require_legal verbose retries backoff_ms
      dump_placements =
    let reqs =
      match Tdf_server.Client.Trace.load trace_path with
      | Ok reqs -> reqs
      | Error e ->
        Printf.eprintf "legalize: %s\n" e;
        exit 2
    in
    let client = Tdf_server.Client.connect ~retries ~backoff_ms socket in
    let summary = Tdf_server.Client.Trace.replay client reqs in
    Tdf_server.Client.close client;
    let illegal = ref 0 in
    List.iter
      (fun (o : Tdf_server.Client.Trace.outcome) ->
        let kind = Tdf_io.Protocol.request_kind o.request in
        let status =
          match o.response with
          | Ok (Tdf_io.Protocol.Legalized { legal; path; _ }) ->
            if not legal then incr illegal;
            Printf.sprintf "legal=%b via %s" legal path
          | Ok (Tdf_io.Protocol.Eco_applied { legal; path; grid_reused; _ }) ->
            if not legal then incr illegal;
            Printf.sprintf "legal=%b via %s%s" legal path
              (if grid_reused then " (warm grid)" else "")
          | Ok _ -> "ok"
          | Error e -> Printf.sprintf "error %s: %s" e.Tdf_io.Protocol.code
                         e.Tdf_io.Protocol.detail
        in
        if verbose then
          Printf.printf "%-13s %8.2f ms  %s\n" kind (o.wall_s *. 1000.) status)
      summary.Tdf_server.Client.Trace.outcomes;
    Printf.printf
      "replayed %d requests in %.2fs: %d ok, %d errors, %d retries, p50 \
       %.2f ms, p99 %.2f ms\n"
      (List.length summary.Tdf_server.Client.Trace.outcomes)
      summary.Tdf_server.Client.Trace.total_s
      summary.Tdf_server.Client.Trace.ok
      summary.Tdf_server.Client.Trace.errors
      summary.Tdf_server.Client.Trace.retries
      summary.Tdf_server.Client.Trace.p50_ms
      summary.Tdf_server.Client.Trace.p99_ms;
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc
          (Tdf_telemetry.Json.to_string
             (Tdf_server.Client.Trace.summary_json summary));
        output_char oc '\n';
        close_out oc;
        Printf.printf "wrote %s\n" path)
      out_json;
    Option.iter
      (fun path ->
        let oc = open_out path in
        List.iter
          (fun (o : Tdf_server.Client.Trace.outcome) ->
            match o.response with
            | Ok (Tdf_io.Protocol.Legalized { placement = Some p; _ })
            | Ok (Tdf_io.Protocol.Eco_applied { placement = Some p; _ })
            | Ok (Tdf_io.Protocol.Placement_text { placement = p; _ }) ->
              output_string oc p
            | _ -> ())
          summary.Tdf_server.Client.Trace.outcomes;
        close_out oc;
        Printf.printf "wrote %s\n" path)
      dump_placements;
    if summary.Tdf_server.Client.Trace.errors > 0 then exit 1;
    if require_legal && !illegal > 0 then begin
      Printf.eprintf "legalize: %d replies reported illegal placements\n"
        !illegal;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Replay a recorded request trace against a running $(b,serve) \
          daemon and summarize the latency distribution; \
          $(b,--dump-placements) concatenates every placement carried by \
          the replies into one byte-comparable file for determinism \
          checks.")
    Term.(
      const run $ socket_arg $ trace $ out_json $ require_legal $ verbose
      $ retries $ backoff_ms $ dump_placements)

(* ---- import / export ----------------------------------------------- *)

let import_cmd =
  let lef =
    Arg.(
      required
      & opt (some file) None
      & info [ "lef" ] ~docv:"FILE"
          ~doc:"LEF-lite library giving the placement site(s) and macro \
                footprints (lib/io/def_lef/lef.mli grammar).")
  in
  let defs =
    Arg.(
      non_empty & opt_all file []
      & info [ "def" ] ~docv:"FILE"
          ~doc:"DEF file; repeat once per die.  Files pair to dies by \
                their $(b,# tdflow.die <i> of <n>) tag when present, by \
                argument order otherwise.")
  in
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the imported design (native text format) to $(docv).")
  in
  let place_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "place-out" ] ~docv:"FILE"
          ~doc:"Also write the DEF's placed positions as a placement file \
                (components without coordinates sit at their gp seed).")
  in
  let run lef_path def_paths output place_out =
    let lef =
      match Tdf_def_lef.Lef.load lef_path with
      | Ok l -> l
      | Error e ->
        Printf.eprintf "legalize: %s\n" (Loader.diagnostic ~path:lef_path e);
        exit 2
    in
    let defs =
      List.map
        (fun p ->
          match Tdf_def_lef.Def.load p with
          | Ok d -> d
          | Error e ->
            Printf.eprintf "legalize: %s\n" (Loader.diagnostic ~path:p e);
            exit 2)
        def_paths
    in
    match Tdf_def_lef.Def.to_design ~lef defs with
    | Error e ->
      Printf.eprintf "legalize: import: %s\n" e;
      exit 2
    | Ok (design, placement) ->
      List.iter
        (fun i ->
          Printf.eprintf "preflight: %s\n" (Tdf_robust.Validate.issue_to_string i))
        (Tdf_robust.Validate.design design);
      Tdf_io.Text.save_design output design;
      Printf.printf "imported %d dies, %d cells, %d macros, %d nets -> %s\n"
        (Tdf_netlist.Design.n_dies design)
        (Tdf_netlist.Design.n_cells design)
        (Array.length design.Tdf_netlist.Design.macros)
        (Array.length design.Tdf_netlist.Design.nets)
        output;
      Option.iter
        (fun path ->
          Tdf_io.Text.save_placement path design placement;
          Printf.printf "wrote %s\n" path)
        place_out
  in
  Cmd.v
    (Cmd.info "import"
       ~doc:
         "Import an open design — one LEF-lite library plus one DEF per \
          die — into the native text format, validated like every other \
          reader (parse errors are typed $(b,file:line:) diagnostics, \
          exit 2).")
    Term.(const run $ lef $ defs $ output $ place_out)

let export_cmd =
  let placement =
    Arg.(
      value
      & opt (some file) None
      & info [ "p"; "placement" ] ~docv:"FILE"
          ~doc:"Placement to export; defaults to the design's rounded \
                global-placement seed.")
  in
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"BASE"
          ~doc:"Output base path: writes $(docv).lef plus one \
                $(docv).d<i>.def per die.")
  in
  let run design_path placement_path output =
    let design = load_design design_path in
    let placement = Option.map (load_placement design) placement_path in
    (* DEF components are name-keyed; refuse ambiguous exports instead of
       silently conflating cells (run --repair renames duplicates). *)
    (match
       List.filter
         (fun (i : Tdf_robust.Validate.issue) ->
           i.Tdf_robust.Validate.code = "duplicate-cell-name")
         (Tdf_robust.Validate.design design)
     with
    | i :: _ ->
      Printf.eprintf "legalize: export: %s\n"
        (Tdf_robust.Validate.issue_to_string i);
      exit 1
    | [] -> ());
    let lef, defs = Tdf_def_lef.Def.of_design ?placement design in
    let lef_path = output ^ ".lef" in
    Tdf_def_lef.Lef.save lef_path lef;
    let def_paths =
      List.mapi
        (fun i d ->
          let p = Printf.sprintf "%s.d%d.def" output i in
          Tdf_def_lef.Def.save p d;
          p)
        defs
    in
    Printf.printf "wrote %s (%d cells, %d macros, %d nets)\n"
      (String.concat " " (lef_path :: def_paths))
      (Tdf_netlist.Design.n_cells design)
      (Array.length design.Tdf_netlist.Design.macros)
      (Array.length design.Tdf_netlist.Design.nets)
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Export a design (and optionally a placement) as canonical \
          DEF/LEF-lite: one LEF plus one DEF per die, deterministic down \
          to the byte — $(b,export) after a lossless $(b,import) \
          reproduces the files exactly.")
    Term.(const run $ design_arg $ placement $ output)

(* ---- version ------------------------------------------------------- *)

let version_cmd =
  Cmd.v
    (Cmd.info "version" ~doc:"Print the tdflow version string.")
    Term.(const (fun () -> print_endline Version_info.version) $ const ())

let () =
  let info =
    Cmd.info "legalize" ~version:Version_info.version
      ~doc:"3D-Flow: flow-based standard-cell legalization for 3D ICs."
  in
  (* catch:false so run-time failures surface as one-line diagnostics
     instead of cmdliner's uncaught-exception backtrace dump; argument
     errors (unknown flags, bad values) still print the usage line. *)
  let code =
    try
      Cmd.eval ~catch:false
        (Cmd.group info
           [ gen_cmd; run_cmd; check_cmd; compare_cmd; viz_cmd; eco_cmd;
             import_cmd; export_cmd; serve_cmd; client_cmd; version_cmd ])
    with
    | Tdf_server.Server.Recovery_error e ->
      Printf.eprintf "legalize: recovery failed: %s\n"
        (Tdf_server.Server.recovery_error_to_string e);
      1
    | Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "legalize: %s: %s%s\n" fn (Unix.error_message e)
        (if arg = "" then "" else " (" ^ arg ^ ")");
      1
    | Sys_error msg | Failure msg ->
      Printf.eprintf "legalize: %s\n" msg;
      1
  in
  exit code
