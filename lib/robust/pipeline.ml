module Budget = Tdf_util.Budget
module Flow3d = Tdf_legalizer.Flow3d
module Config = Tdf_legalizer.Config
module Tetris = Tdf_baselines.Tetris
module Legality = Tdf_metrics.Legality

type path = Primary | Relaxed | Tetris_fallback

let path_name = function
  | Primary -> "primary"
  | Relaxed -> "relaxed-retry"
  | Tetris_fallback -> "tetris-fallback"

type options = {
  strict : bool;
  repair : bool;
  budget_ms : int option;
  fallback : bool;
}

let default_options =
  { strict = false; repair = false; budget_ms = None; fallback = true }

type report = {
  placement : Tdf_netlist.Placement.t;
  design : Tdf_netlist.Design.t;
  path : path;
  legal : bool;
  attempts : int;
  issues : Validate.issue list;
  repairs : string list;
  stats : Flow3d.stats option;
}

(* The retry configuration: coarser bins shrink the grid graph (fewer,
   larger supply bins are easier to resolve), more per-bin retries, and no
   post-optimization — favor finishing over polish. *)
let relax (cfg : Config.t) =
  {
    cfg with
    Config.bin_width_factor = cfg.Config.bin_width_factor *. 2.;
    max_retries = cfg.Config.max_retries * 2;
    post_opt_passes = 0;
  }

let preflight opts design =
  let issues = Validate.design design in
  let design, repairs, issues =
    if opts.repair && issues <> [] then begin
      let repaired, repairs = Validate.repair design in
      (repaired, repairs, Validate.design repaired)
    end
    else (design, [], issues)
  in
  let blocking =
    if opts.strict then issues else Validate.fatal issues
  in
  List.iter
    (fun (i : Validate.issue) ->
      if i.Validate.severity = Validate.Fatal then
        Tdf_telemetry.incr "validate.errors")
    issues;
  match blocking with
  | [] -> Ok (design, issues, repairs)
  | worst :: _ ->
    Error
      (Error.make Error.Preflight ~code:worst.Validate.code
         (Printf.sprintf "%s: %s%s" worst.Validate.subject
            worst.Validate.message
            (match List.length blocking with
            | 1 -> ""
            | n -> Printf.sprintf " (+%d more)" (n - 1))))

type attempt =
  | Legal of Tdf_netlist.Placement.t * Flow3d.stats option
  | Best_effort of Tdf_netlist.Placement.t * Flow3d.stats option
  | Failed of Error.t

let flow_attempt ?start ~budget_ms cfg design =
  let budget =
    match budget_ms with
    | None -> Budget.unlimited
    | Some ms -> Budget.create ~wall_ms:ms ()
  in
  match Flow3d.run ~cfg ~budget ?start design with
  | Error e -> Failed (Error.of_flow3d e)
  | Ok r ->
    if Legality.is_legal design r.Flow3d.placement then
      Legal (r.Flow3d.placement, Some r.Flow3d.stats)
    else Best_effort (r.Flow3d.placement, Some r.Flow3d.stats)

let run ?(opts = default_options) ?(cfg = Config.default) ?start design =
  Tdf_telemetry.span "robust.pipeline" @@ fun () ->
  match preflight opts design with
  | Error e -> Error e
  | Ok (design, issues, repairs) ->
    let finish path attempts = function
      | Legal (placement, stats) ->
        Ok
          { placement; design; path; legal = true; attempts; issues; repairs;
            stats }
      | Best_effort (placement, stats) ->
        Ok
          { placement; design; path; legal = false; attempts; issues; repairs;
            stats }
      | Failed e -> Error e
    in
    let primary = flow_attempt ?start ~budget_ms:opts.budget_ms cfg design in
    match primary with
    | Legal _ -> finish Primary 1 primary
    | (Best_effort _ | Failed _) when not opts.fallback ->
      finish Primary 1 primary
    | Best_effort _ | Failed _ ->
      Tdf_telemetry.incr "robust.retries";
      let retry =
        flow_attempt ?start ~budget_ms:opts.budget_ms (relax cfg) design
      in
      match retry with
      | Legal _ -> finish Relaxed 2 retry
      | Best_effort _ | Failed _ ->
        Tdf_telemetry.incr "robust.fallbacks";
        let placement =
          Tdf_telemetry.span "robust.tetris_fallback" @@ fun () ->
          Tetris.legalize design
        in
        if Legality.is_legal design placement then
          finish Tetris_fallback 3 (Legal (placement, None))
        else begin
          (* Even Tetris could not produce a legal result: fall back to the
             best effort we have, preferring the flow attempts (they at
             least minimize displacement). *)
          match (primary, retry) with
          | _, Best_effort _ -> finish Relaxed 3 retry
          | Best_effort _, _ -> finish Primary 3 primary
          | _ -> finish Tetris_fallback 3 (Best_effort (placement, None))
        end
