module Frame = Tdf_io.Frame
module Protocol = Tdf_io.Protocol
module Text = Tdf_io.Text
module Delta = Tdf_io.Delta
module Journal = Tdf_io.Journal
module Loader = Tdf_io.Loader
module Json = Tdf_telemetry.Json
module Eco = Tdf_incremental.Eco
module Pipeline = Tdf_robust.Pipeline
module Placement = Tdf_netlist.Placement
module Design = Tdf_netlist.Design
module Legality = Tdf_metrics.Legality
module Failpoint = Tdf_util.Failpoint
module Timer = Tdf_util.Timer
module Stats = Tdf_util.Stats

type cfg = {
  socket_path : string;
  max_sessions : int;
  max_frame : int;
  default_budget_ms : int option;
  eco : Eco.cfg;
  journal : Journal.cfg option;
  snapshot_every : int;
  max_pending : int;
  max_conn_queue : int;
  idle_timeout_s : float;
  deadline_ms : int option;
}

let default_cfg ~socket_path =
  {
    socket_path;
    max_sessions = 8;
    max_frame = 16 * 1024 * 1024;
    default_budget_ms = None;
    eco = Eco.default_cfg;
    journal = None;
    snapshot_every = 64;
    max_pending = 64;
    max_conn_queue = 256;
    idle_timeout_s = 0.;
    deadline_ms = None;
  }

type recovery_error =
  | Journal_unusable of { detail : string }
  | Snapshot_invalid of { session : string; detail : string }
  | Replay_failed of {
      lsn : int;
      session : string;
      code : string;
      detail : string;
    }
  | Digest_drift of {
      lsn : int;
      session : string;
      expected : string;
      got : string;
    }

exception Recovery_error of recovery_error

let recovery_error_to_string = function
  | Journal_unusable { detail } -> "journal unusable: " ^ detail
  | Snapshot_invalid { session; detail } ->
    Printf.sprintf "snapshot of session %S is invalid: %s" session detail
  | Replay_failed { lsn; session; code; detail } ->
    Printf.sprintf "replay of journal record %d (session %S) failed [%s]: %s"
      lsn session code detail
  | Digest_drift { lsn; session; expected; got } ->
    Printf.sprintf
      "placement digest drift at journal record %d (session %S): journaled \
       %s, replay produced %s"
      lsn session expected got

type recovery_stats = {
  recovered_sessions : int;
  replayed_records : int;
  truncated_bytes : int;
  dropped_snapshots : int;
}

type session = {
  id : string;
  sess : Eco.Session.t;
  mutable last_used : int;
  mutable requests : int;
}

(* Growable latency sample store; percentiles are computed on demand. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* A queued frame, or a marker for one that was shed at enqueue time.
   Shed markers stay in the per-connection queue so replies keep arriving
   in request order — the client can correlate them positionally. *)
type work = Exec of string | Shed

type conn = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  pending : work Queue.t;
  mutable alive : bool;
  mutable last_active_ns : int64;
}

type t = {
  cfg : cfg;
  listen_fd : Unix.file_descr option;  (** [None] for socketless (test) use *)
  mutable conns : conn list;
  sessions : (string, session) Hashtbl.t;
  mutable tick : int;
  started_ns : int64;
  mutable journal : Journal.t option;
  mutable records_since_snapshot : int;
  mutable pending_count : int;  (** queued [Exec] frames across all conns *)
  mutable recovery : recovery_stats option;
  (* stats *)
  mutable requests : int;
  mutable errors : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable shed : int;
  mutable reaped : int;
  mutable max_queue : int;
  req_kinds : (string, int ref) Hashtbl.t;
  latencies_ms : Samples.t;
  mutable stop : bool;
}

let stopping t = t.stop

let live_sessions t = Hashtbl.length t.sessions

let drop_sessions t =
  let n = Hashtbl.length t.sessions in
  Hashtbl.reset t.sessions;
  n

let recovery t = t.recovery

(* ---- mutations and their journal records ----------------------------- *)

(* A session-mutating request with every knob resolved: the budget after
   the deadline cap, the radius and widening defaults.  It is what a live request runs,
   what its journal record holds and what recovery re-runs, so there is
   one way to apply a mutation and one way to record it.  The type index
   is what {!apply} hands back for the live reply. *)
type _ mutation =
  | Load : {
      design : Design.t;
      placement : Placement.t;
    }
      -> unit mutation
  | Legalize : { budget_ms : int option } -> Pipeline.report mutation
  | Eco_delta : {
      delta : Delta.t;
      radius : int;
      max_widenings : int;
      budget_ms : int option;
    }
      -> Eco.result_t mutation

(* What a journal record does to its session. *)
type op = Apply : _ mutation -> op | Evict

let budget_of : type a. a mutation -> int option = function
  | Load _ -> None
  | Legalize { budget_ms; _ } -> budget_ms
  | Eco_delta { budget_ms; _ } -> budget_ms

(* The one writer of journal records and snapshot blobs.  A load is
   journaled as canonical native text whatever dialect arrived: replay
   has one parser and the digest pins the decoded state. *)
let encode ~session ?digest op =
  let budget budget_ms =
    Option.to_list (Option.map (fun v -> ("budget_ms", Json.Int v)) budget_ms)
  in
  let name, fields =
    match op with
    | Evict -> ("evict", [])
    | Apply (Load { design; placement }) ->
      ( "load",
        [
          ("design", Json.String (Text.design_to_string design));
          ( "placement",
            Json.String (Text.placement_to_string design placement) );
        ] )
    | Apply (Legalize { budget_ms }) -> ("legalize", budget budget_ms)
    | Apply (Eco_delta { delta; radius; max_widenings; budget_ms }) ->
      ( "eco",
        [
          ("delta", Json.String (Delta.to_string delta));
          ("radius", Json.Int radius);
          ("max_widenings", Json.Int max_widenings);
        ]
        @ budget budget_ms )
  in
  let digest = Option.map (fun d -> ("digest", Json.String d)) digest in
  Json.to_string
    (Json.Obj
       ((("op", Json.String name) :: ("session", Json.String session) :: fields)
       @ Option.to_list digest))

(* A snapshot blob is the load record that would rebuild the session as
   it stands, digest included. *)
let session_blob s =
  encode ~session:s.id
    ~digest:(Eco.Session.state_digest s.sess)
    (Apply
       (Load
          {
            design = Eco.Session.design s.sess;
            placement = Eco.Session.placement s.sess;
          }))

(* ---- journaling ------------------------------------------------------ *)

(* Snapshot every live session, then truncate the wal: from here on a
   recovery starts at the snapshots and replays nothing older.  Snapshots
   of sessions no longer live are removed first — once the wal is empty
   they are the whole truth, and a stale one would resurrect its
   session. *)
let snapshot_all t j =
  List.iter
    (fun id ->
      if not (Hashtbl.mem t.sessions id) then
        Journal.delete_snapshot j ~session:id)
    (Journal.snapshot_sessions j);
  Hashtbl.iter
    (fun _ s -> Journal.save_snapshot j ~session:s.id (session_blob s))
    t.sessions;
  Journal.compact j;
  t.records_since_snapshot <- 0

let journal_append t j payload =
  ignore (Journal.append j payload);
  t.records_since_snapshot <- t.records_since_snapshot + 1;
  if t.records_since_snapshot >= max 1 t.cfg.snapshot_every then
    snapshot_all t j

(* Journal [m] as applied to [s], with the digest of the state it left.
   A wall-clock budget is the one thing command-replay cannot promise to
   reproduce: the clip point is timing-dependent, so a replay of the
   record could land on a different placement and brick every restart with
   Digest_drift.  Snapshotting the session right after journaling a
   budget-capped mutation parks its result durably — recovery restores
   the snapshot and skips the record (lsn <= snapshot lsn), so the record
   is only ever command-replayed in the sliver of a crash between the
   append and this snapshot, where its reply cannot have been sent. *)
let record t s m =
  match t.journal with
  | None -> ()
  | Some j ->
    journal_append t j
      (encode ~session:s.id ~digest:(Eco.Session.state_digest s.sess) (Apply m));
    if budget_of m <> None then
      Journal.save_snapshot j ~session:s.id (session_blob s)

(* ---- session cache -------------------------------------------------- *)

let touch t s =
  t.tick <- t.tick + 1;
  s.last_used <- t.tick

let find_session t id =
  match Hashtbl.find_opt t.sessions id with
  | Some s ->
    t.hits <- t.hits + 1;
    Tdf_telemetry.incr "serve.cache.hit";
    touch t s;
    s.requests <- s.requests + 1;
    Some s
  | None ->
    t.misses <- t.misses + 1;
    Tdf_telemetry.incr "serve.cache.miss";
    None

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun _ s acc ->
        match acc with
        | Some best when best.last_used <= s.last_used -> acc
        | _ -> Some s)
      t.sessions None
  in
  match victim with
  | Some s -> (
    Hashtbl.remove t.sessions s.id;
    t.evictions <- t.evictions + 1;
    Tdf_telemetry.incr "serve.cache.evict";
    (* The eviction itself is journaled (and the stale snapshot removed)
       so recovery reproduces the exact live set, never a superset. *)
    match t.journal with
    | Some j ->
      journal_append t j (encode ~session:s.id Evict);
      Journal.delete_snapshot j ~session:s.id
    | None -> ())
  | None -> ()

let insert_session t id sess =
  (* Replacing an existing id is an update, not an eviction. *)
  if not (Hashtbl.mem t.sessions id) then
    while Hashtbl.length t.sessions >= max 1 t.cfg.max_sessions do
      evict_lru t
    done;
  let s = { id; sess; last_used = 0; requests = 1 } in
  Hashtbl.replace t.sessions id s;
  touch t s;
  s

(* ---- request execution ---------------------------------------------- *)

exception Reply_error of Protocol.err

let fail code fmt =
  Format.kasprintf
    (fun detail -> raise (Reply_error { Protocol.code; detail }))
    fmt

let read_source src =
  match src with
  | Protocol.Text t -> t
  | Protocol.Path path -> (
    try
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    with Sys_error msg -> fail "parse-error" "%s" msg)

(* Parse [src] with [read], reporting errors in path:line: form when the
   source was a file, like the CLI does. *)
let parse read src =
  let path =
    match src with Protocol.Path p -> Some p | Protocol.Text _ -> None
  in
  match read (read_source src) with
  | Ok v -> v
  | Error e -> fail "parse-error" "%s" (Loader.diagnostic ?path e)

let parse_design = parse Loader.design

let parse_placement design = parse (Text.read_placement design)

let parse_delta = parse Delta.read

let required_session t id =
  match find_session t id with
  | Some s -> s
  | None -> fail "unknown-session" "no session %S (use load-design first)" id

(* Float-bearing records (gp anchors, weights, utilization) must encode
   canonically: re-parsing the canonical text and re-encoding has to
   reproduce it byte-for-byte, or a placement/design would drift through
   repeated protocol round-trips. *)
let assert_design_roundtrip d =
  let canon = Text.design_to_string d in
  match Text.read_design canon with
  | Error e -> fail "freeze-drift" "canonical design text does not re-parse: %s" e
  | Ok d' ->
    if Text.design_to_string d' <> canon then
      fail "freeze-drift" "design text changed across encode/decode round-trip"

let assert_placement_roundtrip design p =
  let canon = Text.placement_to_string design p in
  (match Text.read_placement design canon with
  | Error e ->
    fail "freeze-drift" "canonical placement text does not re-parse: %s" e
  | Ok p' ->
    if Text.placement_to_string design p' <> canon then
      fail "freeze-drift" "placement text changed across encode/decode round-trip");
  canon

(* The deadline caps every budget, including explicit per-request ones:
   with [deadline_ms] set no request can hold the single-threaded event
   loop hostage longer than the cap (budget exhaustion degrades into a
   best-effort result or a typed error, never a hang — Tdf_util.Budget
   semantics). *)
let effective_budget t requested =
  let base =
    match requested with Some _ -> requested | None -> t.cfg.default_budget_ms
  in
  match (base, t.cfg.deadline_ms) with
  | Some b, Some d -> Some (min b d)
  | None, Some d -> Some d
  | b, None -> b

(* The one reader of {!encode}'s records.  The session comes back at once
   and the op on demand, so a record that recovery skips is parsed no
   further.  A snapshot blob ([snapshot_of] names its session) reads as a
   load record; blobs from before snapshots were load records carry no
   "op" or "session" and read the same way. *)
let decode ?snapshot_of payload =
  match Json.of_string payload with
  | Error e -> ("", fun () -> fail "bad-record" "record is not JSON: %s" e)
  | Ok doc ->
    let str name = Option.bind (Json.member name doc) Json.to_str in
    let int name = Option.bind (Json.member name doc) Json.to_int in
    let session, name =
      match snapshot_of with
      | Some session -> (session, "load")
      | None ->
        ( Option.value (str "session") ~default:"",
          Option.value (str "op") ~default:"" )
    in
    ( session,
      fun () ->
        let need get what =
          match get what with
          | Some v -> v
          | None -> fail "bad-record" "%s record missing %s" name what
        in
        let parsed what read =
          match read (need str what) with
          | Ok v -> v
          | Error e -> fail "parse-error" "%s: %s" what e
        in
        let budget_ms = int "budget_ms" in
        let op =
          match name with
          | "evict" -> Evict
          | "load" ->
            let design = parsed "design" Text.read_design in
            let placement = parsed "placement" (Text.read_placement design) in
            Apply (Load { design; placement })
          | "legalize" -> Apply (Legalize { budget_ms })
          | "eco" ->
            Apply
              (Eco_delta
                 {
                   delta = parsed "delta" Delta.read;
                   radius = need int "radius";
                   max_widenings = need int "max_widenings";
                   budget_ms;
                 })
          | other -> fail "bad-record" "unknown journal op %s" other
        in
        (op, str "digest") )

(* Run [m] against [sess] (a load builds its own session): the one place
   a mutation reaches the engines, for live requests and recovery alike.
   Returns the session holding the result and the engine's report; a
   failure is a typed [Reply_error] and leaves [sess] as it was. *)
let apply : type a.
    t -> Eco.Session.t option -> a mutation -> Eco.Session.t * a =
 fun t sess m ->
  let target () =
    match sess with
    | Some s -> s
    | None -> fail "unknown-session" "no loaded session to mutate"
  in
  match m with
  | Load { design; placement } ->
    (Eco.Session.create ~cfg:t.cfg.eco design placement, ())
  | Legalize { budget_ms } -> (
    let sess = target () in
    let opts = { Pipeline.default_options with Pipeline.budget_ms } in
    match
      Pipeline.run ~opts ~cfg:t.cfg.eco.Eco.flow
        ~start:(Eco.Session.placement sess) (Eco.Session.design sess)
    with
    | Error e -> fail "legalize-failed" "%s" (Tdf_robust.Error.to_string e)
    | Ok r ->
      Eco.Session.set_placement sess r.Pipeline.design r.Pipeline.placement;
      (sess, r))
  | Eco_delta { delta; radius; max_widenings; budget_ms } -> (
    let sess = target () in
    let cfg =
      { t.cfg.eco with Eco.initial_radius = radius; max_widenings; budget_ms }
    in
    match Eco.Session.eco ~cfg sess delta with
    | Error (Eco.Invalid_delta msg) -> fail "invalid-delta" "%s" msg
    | Error e -> fail "eco-failed" "%s" (Eco.error_to_string e)
    | Ok r -> (sess, r))

let stats_json t =
  let lat = Samples.to_array t.latencies_ms in
  let pct p = Stats.percentile lat p in
  let kinds =
    Hashtbl.fold (fun k n acc -> (k, Json.Int !n) :: acc) t.req_kinds []
    |> List.sort compare
  in
  Json.Obj
    [
      ("uptime_s", Json.Float (Timer.ns_to_s (Timer.elapsed_ns t.started_ns)));
      ("requests", Json.Int t.requests);
      ("errors", Json.Int t.errors);
      ("by_kind", Json.Obj kinds);
      ("sessions", Json.Int (Hashtbl.length t.sessions));
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Int t.hits);
            ("misses", Json.Int t.misses);
            ("evictions", Json.Int t.evictions);
          ] );
      ("max_queue_depth", Json.Int t.max_queue);
      ("shed", Json.Int t.shed);
      ("reaped_connections", Json.Int t.reaped);
      ( "journal",
        match t.journal with
        | None -> Json.Obj [ ("enabled", Json.Bool false) ]
        | Some j ->
          let js = Journal.stats j in
          let rs =
            Option.value t.recovery
              ~default:
                {
                  recovered_sessions = 0;
                  replayed_records = 0;
                  truncated_bytes = 0;
                  dropped_snapshots = 0;
                }
          in
          Json.Obj
            [
              ("enabled", Json.Bool true);
              ("appends", Json.Int js.Journal.appends);
              ("appended_bytes", Json.Int js.Journal.appended_bytes);
              ("fsyncs", Json.Int js.Journal.fsyncs);
              ("snapshots_written", Json.Int js.Journal.snapshots_written);
              ("compactions", Json.Int js.Journal.compactions);
              ("last_lsn", Json.Int (Journal.last_lsn j));
              ("recovered_sessions", Json.Int rs.recovered_sessions);
              ("replayed_records", Json.Int rs.replayed_records);
              ("truncated_tail_bytes", Json.Int rs.truncated_bytes);
              ("dropped_snapshots", Json.Int rs.dropped_snapshots);
            ] );
      ( "latency_ms",
        Json.Obj
          [
            ("count", Json.Int (Array.length lat));
            ("mean", Json.Float (Stats.mean lat));
            ("p50", Json.Float (pct 50.));
            ("p90", Json.Float (pct 90.));
            ("p99", Json.Float (pct 99.));
            ("max", Json.Float (Stats.max_value lat));
          ] );
    ]

let handle_req t (req : Protocol.request) : Protocol.response =
  match req with
  | Protocol.Ping -> Ok Protocol.Pong
  | Protocol.Stats -> Ok (Protocol.Stats_snapshot (stats_json t))
  | Protocol.Shutdown ->
    t.stop <- true;
    Ok Protocol.Shutting_down
  | Protocol.Load_design { session; design; placement; _ } ->
    let d = parse_design design in
    assert_design_roundtrip d;
    let p =
      match placement with
      | Some src -> parse_placement d src
      | None -> Placement.initial d
    in
    let m = Load { design = d; placement = p } in
    let sess, () = apply t None m in
    let s = insert_session t session sess in
    record t s m;
    Ok
      (Protocol.Loaded
         {
           session;
           n_cells = Design.n_cells d;
           n_nets = Array.length d.Design.nets;
           legal = Legality.is_legal d p;
         })
  | Protocol.Legalize { session; budget_ms; want_placement; _ } ->
    let s = required_session t session in
    let m = Legalize { budget_ms = effective_budget t budget_ms } in
    let (_, r), wall_s = Timer.time (fun () -> apply t (Some s.sess) m) in
    (* Journal before the round-trip assertion below: the session state
       has already advanced, and the journal must mirror it even when
       the reply degrades to a freeze-drift error. *)
    record t s m;
    let placement =
      if want_placement then
        Some (assert_placement_roundtrip r.Pipeline.design r.Pipeline.placement)
      else None
    in
    Ok
      (Protocol.Legalized
         {
           session;
           legal = r.Pipeline.legal;
           path = Pipeline.path_name r.Pipeline.path;
           wall_s;
           placement;
         })
  | Protocol.Eco
      { session; delta; radius; max_widenings; budget_ms; want_placement; _ }
    ->
    let s = required_session t session in
    let base = t.cfg.eco in
    let m =
      Eco_delta
        {
          delta = parse_delta delta;
          radius = Option.value radius ~default:base.Eco.initial_radius;
          max_widenings =
            Option.value max_widenings ~default:base.Eco.max_widenings;
          budget_ms = effective_budget t budget_ms;
        }
    in
    (* Snapshot so a post-hoc consistency failure can roll the warm
       session back to its pre-request state.  Only needed when the reply
       carries placement text (the round-trip assertion can reject). *)
    let snapshot =
      if want_placement then
        Some
          ( Eco.Session.design s.sess,
            Placement.copy (Eco.Session.placement s.sess) )
      else None
    in
    let (_, r), wall_s = Timer.time (fun () -> apply t (Some s.sess) m) in
    (* The wire placement must survive encode→decode→re-encode exactly,
       or the frozen-cell guarantee would silently rot in transit.  The
       assertion rides only on placement-carrying replies — it is the
       same text we are about to send. *)
    let placement =
      match snapshot with
      | None -> None
      | Some (prev_design, prev_placement) -> (
        try Some (assert_placement_roundtrip r.Eco.design r.Eco.placement)
        with Reply_error _ as e ->
          Eco.Session.set_placement s.sess prev_design prev_placement;
          raise e)
    in
    (* After the assertion: a rolled-back request left no state to
       journal. *)
    record t s m;
    let st = r.Eco.stats in
    Ok
      (Protocol.Eco_applied
         {
           session;
           (* [Ok] implies legality: both the local path and the full
              fallback verify before returning (see eco.ml). *)
           legal = true;
           path = Eco.path_name st.Eco.path;
           dirty_bins = st.Eco.dirty_bins;
           total_bins = st.Eco.total_bins;
           widenings = st.Eco.widenings;
           fallbacks = st.Eco.fallbacks;
           grid_reused = Eco.Session.grid_reused_last s.sess;
           wall_s;
           placement;
         })
  | Protocol.Get_placement { session } ->
    let s = required_session t session in
    Ok
      (Protocol.Placement_text
         {
           session;
           placement =
             Text.placement_to_string
               (Eco.Session.design s.sess)
               (Eco.Session.placement s.sess);
         })

(* Every request runs in its own fault domain: exceptions (including the
   armed "serve.request" failpoint) become typed error replies and the
   server keeps serving. *)
let handle t req =
  t.requests <- t.requests + 1;
  Tdf_telemetry.incr "serve.requests";
  let kind = Protocol.request_kind req in
  (match Hashtbl.find_opt t.req_kinds kind with
  | Some n -> incr n
  | None -> Hashtbl.replace t.req_kinds kind (ref 1));
  let response, wall_s =
    Timer.time (fun () ->
        try
          if Failpoint.fire "serve.request" then
            Protocol.error ~code:"injected"
              "fault injection killed this request (serve.request)"
          else handle_req t req
        with
        | Reply_error e -> Error e
        | Stack_overflow ->
          Protocol.error ~code:"internal" "stack overflow during request"
        | exn -> Protocol.error ~code:"internal" (Printexc.to_string exn))
  in
  let ms = wall_s *. 1000. in
  Samples.add t.latencies_ms ms;
  Tdf_telemetry.observe "serve.request_ms" ms;
  (match response with
  | Error _ ->
    t.errors <- t.errors + 1;
    Tdf_telemetry.incr "serve.errors"
  | Ok _ -> ());
  response

(* ---- recovery -------------------------------------------------------- *)

(* Rebuild the session table from the journal: latest valid snapshot per
   session, then command-replay of the wal suffix.  Both read records
   with {!decode} and run them through the live {!apply}, before the
   journal is attached, so nothing replayed is journaled again.  The
   engines are deterministic, so replay must land on the journaled digests — any drift is a typed startup
   error, not a silent divergence.  The one documented exception:
   budget-capped requests replay with the recorded effective budget, and
   a wall-clock budget that clipped the original run differently from
   the replay shows up as Digest_drift. *)
let recover t j (r : Journal.recovery) =
  let state : (string, Eco.Session.t * int) Hashtbl.t = Hashtbl.create 8 in
  (* Replies are written right after each request executes, so any
     record with a successor in the wal had its reply sent.  Only the
     final record can be un-acknowledged — which is the one place a
     timing-dependent budget clip may be forgiven. *)
  let last_wal_lsn =
    List.fold_left (fun a (l, _) -> max a l) 0 r.Journal.records
  in
  let replay ~lsn ~invalid (session, decoded) =
    try
      match decoded () with
      | Evict, _ -> Hashtbl.remove state session
      | Apply m, digest ->
        let sess, _ =
          apply t (Option.map fst (Hashtbl.find_opt state session)) m
        in
        (match digest with
        | None -> ()
        | Some expected ->
          let got = Eco.Session.state_digest sess in
          if got = expected then ()
          else if budget_of m <> None && lsn = last_wal_lsn then
            (* A wall-clock budget clipped the replay differently from
               the original run.  On the final wal record no later state
               depends on it and (budget-capped mutations snapshot right
               after their append) its reply almost surely never left the
               daemon: keep the deterministic replayed state and count
               it, rather than brick every subsequent restart. *)
            Tdf_telemetry.incr "serve.recovery.tolerated_drift"
          else
            raise
              (Recovery_error (Digest_drift { lsn; session; expected; got })));
        Hashtbl.replace state session (sess, lsn)
    with Reply_error e -> raise (Recovery_error (invalid session e))
  in
  List.iter
    (fun (s : Journal.snapshot) ->
      replay ~lsn:s.Journal.snap_lsn
        ~invalid:(fun session e ->
          Snapshot_invalid { session; detail = e.Protocol.detail })
        (decode ~snapshot_of:s.Journal.snap_session s.Journal.blob))
    r.Journal.snapshots;
  let replayed = ref 0 in
  List.iter
    (fun (lsn, payload) ->
      let ((session, _) as entry) = decode payload in
      (* Anything at or below the session's snapshot lsn is already
         reflected in the snapshot — skipping it makes a crash between
         save_snapshot and compact harmless. *)
      match Hashtbl.find_opt state session with
      | Some (_, high) when lsn <= high -> ()
      | _ ->
        incr replayed;
        replay ~lsn
          ~invalid:(fun session { Protocol.code; detail } ->
            Replay_failed { lsn; session; code; detail })
          entry)
    r.Journal.records;
  (* Install in last-mutation order so LRU recency approximates the
     pre-crash order (read-only touches are not journaled). *)
  let ordered =
    Hashtbl.fold (fun id (sess, lsn) acc -> (lsn, id, sess) :: acc) state []
    |> List.sort compare
  in
  List.iter (fun (_, id, sess) -> ignore (insert_session t id sess)) ordered;
  t.recovery <-
    Some
      {
        recovered_sessions = List.length ordered;
        replayed_records = !replayed;
        truncated_bytes = r.Journal.truncated_bytes;
        dropped_snapshots = r.Journal.dropped_snapshots;
      };
  if ordered <> [] || r.Journal.records <> [] || r.Journal.truncated_bytes > 0
  then Tdf_telemetry.incr "serve.recoveries";
  (* Re-baseline: fresh snapshots, empty wal.  The next recovery starts
     here instead of running history again. *)
  t.journal <- Some j;
  snapshot_all t j


let make cfg listen_fd =
  let t =
    {
      cfg;
      listen_fd;
      conns = [];
      sessions = Hashtbl.create 16;
      tick = 0;
      started_ns = Timer.now_ns ();
      journal = None;
      records_since_snapshot = 0;
      pending_count = 0;
      recovery = None;
      requests = 0;
      errors = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      shed = 0;
      reaped = 0;
      max_queue = 0;
      req_kinds = Hashtbl.create 8;
      latencies_ms = Samples.create ();
      stop = false;
    }
  in
  (match cfg.journal with
  | None -> ()
  | Some jcfg -> (
    match Journal.open_ jcfg with
    | Error detail -> raise (Recovery_error (Journal_unusable { detail }))
    | Ok (j, r) -> recover t j r));
  t

(* A socket file can outlive a SIGKILLed daemon.  Probe it: a successful
   connect means someone is listening (refuse to steal the address); a
   refused connect means the file is stale and safe to unlink.  A
   non-socket file at the path is never deleted. *)
let remove_stale_socket path =
  match (Unix.lstat path).Unix.st_kind with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | Unix.S_SOCK ->
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path));
    (try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> raise (Unix.Unix_error (Unix.EEXIST, "bind", path))

let create cfg =
  (* A client that vanishes mid-reply turns our write into EPIPE; that
     must close one connection, not SIGPIPE-kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  remove_stale_socket cfg.socket_path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen fd 64;
     Unix.set_nonblock fd
   with e ->
     Unix.close fd;
     raise e);
  match make cfg (Some fd) with
  | t -> t
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
    raise e

(* ---- event loop ------------------------------------------------------ *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    match Unix.write fd b !off (n - !off) with
    | written -> off := !off + written
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
      try ignore (Unix.select [] [ fd ] [] 1.0)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let close_conn t conn =
  conn.alive <- false;
  Queue.iter
    (function
      | Exec _ -> t.pending_count <- t.pending_count - 1
      | Shed -> ())
    conn.pending;
  Queue.clear conn.pending;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let send_response t conn resp =
  conn.last_active_ns <- Timer.now_ns ();
  try write_all conn.fd (Frame.encode (Protocol.response_to_string resp))
  with Unix.Unix_error _ -> close_conn t conn

let accept_new t fd =
  let rec loop () =
    match Unix.accept fd with
    | client, _ ->
      Unix.set_nonblock client;
      t.conns <-
        {
          fd = client;
          dec = Frame.decoder ~max_frame:t.cfg.max_frame ();
          pending = Queue.create ();
          alive = true;
          last_active_ns = Timer.now_ns ();
        }
        :: t.conns;
      loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

let read_conn t conn =
  let buf = Bytes.create 65536 in
  let rec drain_frames () =
    match Frame.next conn.dec with
    | Ok (Some payload) ->
      if Queue.length conn.pending >= max 1 t.cfg.max_conn_queue then begin
        (* Shed markers keep replies ordered but still cost memory: a
           client that ignores the "overloaded" backpressure and keeps
           streaming would grow its queue without bound — the exact
           overload max_pending exists to prevent.  Past the
           per-connection cap the connection is closed after one typed
           error; whatever it still had queued is dropped with it. *)
        t.errors <- t.errors + 1;
        Tdf_telemetry.incr "serve.errors";
        Tdf_telemetry.incr "serve.conn_overflow";
        send_response t conn
          (Protocol.error ~code:"queue-overflow"
             "per-connection queue limit exceeded while overloaded; \
              connection closed");
        close_conn t conn
      end
      else begin
        (* Overload decision at enqueue time: beyond the global bound
           the frame is dropped and a Shed marker keeps its reply slot,
           so the client still gets an answer (a typed "overloaded") in
           order. *)
        (if t.pending_count >= max 1 t.cfg.max_pending then
           Queue.add Shed conn.pending
         else begin
           t.pending_count <- t.pending_count + 1;
           Queue.add (Exec payload) conn.pending
         end);
        drain_frames ()
      end
    | Ok None -> ()
    | Error e ->
      (* Framing is lost: reply once with a typed error, then drop the
         connection — there is no way to resynchronize the stream. *)
      t.errors <- t.errors + 1;
      Tdf_telemetry.incr "serve.errors";
      send_response t conn
        (Protocol.error ~code:"bad-frame" (Frame.error_to_string e));
      close_conn t conn
  in
  let rec loop () =
    if conn.alive then
      match Unix.read conn.fd buf 0 (Bytes.length buf) with
      | 0 -> close_conn t conn
      | n ->
        conn.last_active_ns <- Timer.now_ns ();
        Frame.feed conn.dec (Bytes.sub_string buf 0 n);
        drain_frames ();
        if conn.alive then loop ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (_, _, _) -> close_conn t conn
  in
  loop ()

let process_queues ~respect_stop t =
  let depth =
    List.fold_left (fun a c -> a + Queue.length c.pending) 0 t.conns
  in
  if depth > t.max_queue then t.max_queue <- depth;
  if depth > 0 then Tdf_telemetry.observe "serve.queue_depth" (float_of_int depth);
  (* Round-robin one frame per connection per pass, so one chatty client
     cannot starve the others. *)
  let stopped () = respect_stop && t.stop in
  let progressed = ref true in
  while !progressed && not (stopped ()) do
    progressed := false;
    List.iter
      (fun conn ->
        if conn.alive && (not (stopped ())) && not (Queue.is_empty conn.pending)
        then begin
          progressed := true;
          match Queue.take conn.pending with
          | Shed ->
            t.shed <- t.shed + 1;
            Tdf_telemetry.incr "serve.shed";
            send_response t conn
              (Protocol.error ~code:"overloaded"
                 "server overloaded: pending-request queue is full; retry \
                  after a backoff")
          | Exec payload ->
            t.pending_count <- t.pending_count - 1;
            let resp =
              match Protocol.request_of_string payload with
              | Error e ->
                t.requests <- t.requests + 1;
                t.errors <- t.errors + 1;
                Tdf_telemetry.incr "serve.requests";
                Tdf_telemetry.incr "serve.errors";
                Error e
              | Ok req -> handle t req
            in
            send_response t conn resp
        end)
      t.conns
  done

let process_pending t = process_queues ~respect_stop:true t

let reap_idle t =
  if t.cfg.idle_timeout_s > 0. then begin
    let limit_ns = Int64.of_float (t.cfg.idle_timeout_s *. 1e9) in
    List.iter
      (fun conn ->
        if
          conn.alive
          && Queue.is_empty conn.pending
          && Int64.compare (Timer.elapsed_ns conn.last_active_ns) limit_ns > 0
        then begin
          t.reaped <- t.reaped + 1;
          Tdf_telemetry.incr "serve.reaped";
          close_conn t conn
        end)
      t.conns
  end

let step ?(timeout_ms = 200) t =
  if t.stop then false
  else begin
    let fds =
      (match t.listen_fd with Some fd -> [ fd ] | None -> [])
      @ List.filter_map (fun c -> if c.alive then Some c.fd else None) t.conns
    in
    let readable, _, _ =
      try Unix.select fds [] [] (float_of_int timeout_ms /. 1000.)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    (match t.listen_fd with
    | Some fd when List.memq fd readable -> accept_new t fd
    | _ -> ());
    List.iter
      (fun conn ->
        if conn.alive && List.memq conn.fd readable then read_conn t conn)
      t.conns;
    process_pending t;
    reap_idle t;
    t.conns <- List.filter (fun c -> c.alive) t.conns;
    not t.stop
  end

let run t = while step t do () done

let drain t =
  (* Answer everything already queued (even when a shutdown request set
     the stop flag), then persist a final consistent image. *)
  process_queues ~respect_stop:false t;
  match t.journal with
  | Some j ->
    snapshot_all t j;
    Journal.sync j
  | None -> ()

let close t =
  (match t.journal with
  | Some j ->
    snapshot_all t j;
    Journal.close j;
    t.journal <- None
  | None -> ());
  t.stop <- true;
  List.iter (close_conn t) t.conns;
  t.conns <- [];
  (match t.listen_fd with
  | Some fd -> (
    (try Unix.close fd with Unix.Unix_error _ -> ());
    try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ())
  | None -> ());
  ignore (drop_sessions t)

let crash t =
  (* Abandon without the final snapshot close/drain would write: whatever
     the journal holds is exactly what a SIGKILL would have left. *)
  (match t.journal with
  | Some j ->
    Journal.close j;
    t.journal <- None
  | None -> ());
  t.stop <- true;
  List.iter (close_conn t) t.conns;
  t.conns <- [];
  (match t.listen_fd with
  | Some fd -> (
    (try Unix.close fd with Unix.Unix_error _ -> ());
    try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ())
  | None -> ());
  ignore (drop_sessions t)
