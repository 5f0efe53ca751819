(* The serve daemon: framing, protocol decode, request handling against a
   live server instance, the frozen-cell byte-identity guarantee over the
   wire, LRU session eviction, fault injection mid-request, and a full
   socket round-trip driven through the steppable event loop (no fork —
   worker domains may be live under TDFLOW_JOBS>1). *)

module Frame = Tdf_io.Frame
module Protocol = Tdf_io.Protocol
module Text = Tdf_io.Text
module Delta = Tdf_io.Delta
module Server = Tdf_server.Server
module Client = Tdf_server.Client
module Eco = Tdf_incremental.Eco
module Flow3d = Tdf_legalizer.Flow3d
module Legality = Tdf_metrics.Legality
module Placement = Tdf_netlist.Placement
module Failpoint = Tdf_util.Failpoint
module Prng = Tdf_util.Prng

let check = Alcotest.(check bool)

(* ---- framing -------------------------------------------------------- *)

let test_frame_roundtrip () =
  let payloads = [ ""; "x"; "{\"req\":\"ping\"}"; "line1\nline2\n"; String.make 5000 'z' ] in
  (* All at once. *)
  let dec = Frame.decoder () in
  List.iter (fun p -> Frame.feed dec (Frame.encode p)) payloads;
  List.iter
    (fun p ->
      match Frame.next dec with
      | Ok (Some got) -> Alcotest.(check string) "payload" p got
      | Ok None -> Alcotest.fail "frame not ready"
      | Error e -> Alcotest.fail (Frame.error_to_string e))
    payloads;
  check "drained" true (Frame.next dec = Ok None);
  (* Byte at a time: incremental decode must see the same payloads. *)
  let dec = Frame.decoder () in
  let all = String.concat "" (List.map Frame.encode payloads) in
  let got = ref [] in
  String.iter
    (fun c ->
      Frame.feed dec (String.make 1 c);
      match Frame.next dec with
      | Ok (Some p) -> got := p :: !got
      | Ok None -> ()
      | Error e -> Alcotest.fail (Frame.error_to_string e))
    all;
  check "byte-at-a-time" true (List.rev !got = payloads)

let test_frame_truncated () =
  let dec = Frame.decoder () in
  let frame = Frame.encode "hello world" in
  (* Every strict prefix of a valid frame must decode to "need more". *)
  for cut = 0 to String.length frame - 1 do
    let dec = Frame.decoder () in
    Frame.feed dec (String.sub frame 0 cut);
    check "prefix incomplete" true (Frame.next dec = Ok None)
  done;
  Frame.feed dec frame;
  check "whole frame ok" true (Frame.next dec = Ok (Some "hello world"))

let test_frame_oversized () =
  let dec = Frame.decoder ~max_frame:8 () in
  Frame.feed dec (Frame.encode (String.make 100 'a'));
  (match Frame.next dec with
  | Error (Frame.Oversized { len = 100; limit = 8 }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Frame.error_to_string e)
  | Ok _ -> Alcotest.fail "oversized frame accepted");
  (* The decoder is poisoned: same error forever, feed refuses. *)
  (match Frame.next dec with
  | Error (Frame.Oversized _) -> ()
  | _ -> Alcotest.fail "poisoned decoder forgot its error");
  match Frame.feed dec "more" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "poisoned decoder accepted bytes"

let test_frame_bad_prefix_and_terminator () =
  let dec = Frame.decoder () in
  Frame.feed dec "12ab\n";
  (match Frame.next dec with
  | Error (Frame.Bad_prefix _) -> ()
  | _ -> Alcotest.fail "non-decimal prefix accepted");
  let dec = Frame.decoder () in
  (* Correct length, wrong terminator byte. *)
  Frame.feed dec "3\nabcX";
  match Frame.next dec with
  | Error Frame.Bad_terminator -> ()
  | _ -> Alcotest.fail "missing terminator accepted"

(* ---- protocol ------------------------------------------------------- *)

let test_request_roundtrip () =
  let reqs =
    [
      Protocol.Ping;
      Protocol.Stats;
      Protocol.Shutdown;
      Protocol.Load_design
        {
          session = "s";
          design = Protocol.Text "cells 0\n";
          placement = Some (Protocol.Path "/tmp/p.place");
          tiles = Some 4;
        };
      Protocol.Legalize
        {
          session = "s";
          budget_ms = Some 50;
          jobs = Some 2;
          tiles = Some 2;
          want_placement = true;
        };
      Protocol.Eco
        {
          session = "s";
          delta = Protocol.Text "move 1 2 3 0\n";
          radius = Some 2;
          max_widenings = None;
          budget_ms = None;
          jobs = None;
          tiles = Some 1;
          want_placement = false;
        };
      Protocol.Get_placement { session = "s" };
    ]
  in
  List.iter
    (fun req ->
      match Protocol.request_of_string (Protocol.request_to_string req) with
      | Ok req' -> check (Protocol.request_kind req) true (req = req')
      | Error e -> Alcotest.failf "%s: %s" e.Protocol.code e.Protocol.detail)
    reqs

let decode_err payload =
  match Protocol.request_of_string payload with
  | Error e -> e.Protocol.code
  | Ok _ -> "accepted"

let test_request_decode_errors () =
  Alcotest.(check string) "syntax" "bad-json" (decode_err "{not json");
  Alcotest.(check string) "not an object" "bad-request" (decode_err "[1,2]");
  Alcotest.(check string) "no req field" "bad-request" (decode_err "{\"x\":1}");
  Alcotest.(check string) "req not a string" "bad-request" (decode_err "{\"req\":42}");
  Alcotest.(check string) "unknown tag" "unknown-request"
    (decode_err "{\"req\":\"frobnicate\"}");
  Alcotest.(check string) "eco without delta" "bad-request"
    (decode_err "{\"req\":\"eco\",\"session\":\"s\"}");
  Alcotest.(check string) "load without session" "bad-request"
    (decode_err "{\"req\":\"load-design\",\"design_text\":\"x\"}")

let test_response_roundtrip () =
  let resps =
    [
      Ok Protocol.Pong;
      Ok Protocol.Shutting_down;
      Protocol.error ~code:"unknown-session" "no session \"x\"";
      Ok
        (Protocol.Eco_applied
           {
             session = "s";
             legal = true;
             path = "local";
             dirty_bins = 3;
             total_bins = 64;
             widenings = 1;
             fallbacks = 0;
             grid_reused = true;
             wall_s = 0.012;
             placement = Some "cell 1 2 3 0\n";
           });
    ]
  in
  List.iter
    (fun resp ->
      match Protocol.response_of_string (Protocol.response_to_string resp) with
      | Ok resp' -> check "response round-trips" true (resp = resp')
      | Error e -> Alcotest.fail e)
    resps

(* ---- request handling on a live server ------------------------------ *)

let sock_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "tdfsrv-%d-%s.sock" (Unix.getpid ()) name)

let with_server ?(max_sessions = 8) ?(tweak = fun c -> c) name f =
  let cfg =
    tweak
      {
        (Server.default_cfg ~socket_path:(sock_path name)) with
        Server.max_sessions;
      }
  in
  let server = Server.create cfg in
  Fun.protect ~finally:(fun () -> Server.close server) (fun () -> f server cfg)

(* A small legal fixture served as inline text, exactly what a client
   would send in "design_text"/"placement_text". *)
let fixture seed =
  let d = Fixtures.random ~n:40 seed in
  let p = (Flow3d.legalize d).Flow3d.placement in
  check "fixture legal" true (Legality.is_legal d p);
  (d, p)

let load server ~session (d, p) =
  Server.handle server
    (Protocol.Load_design
       {
         session;
         design = Protocol.Text (Text.design_to_string d);
         placement = Some (Protocol.Text (Text.placement_to_string d p));
         tiles = None;
       })

let ok_or_fail = function
  | Ok reply -> reply
  | Error e -> Alcotest.failf "%s: %s" e.Protocol.code e.Protocol.detail

let err_code = function
  | Ok _ -> Alcotest.fail "expected an error reply"
  | Error e -> e.Protocol.code

let test_handle_flows () =
  with_server "flows" (fun server _cfg ->
      check "ping" true (Server.handle server Protocol.Ping = Ok Protocol.Pong);
      (match ok_or_fail (load server ~session:"a" (fixture 11)) with
      | Protocol.Loaded { n_cells = 40; legal = true; _ } -> ()
      | _ -> Alcotest.fail "wrong load reply");
      check "one live session" true (Server.live_sessions server = 1);
      (* First ECO builds the grid; the second reuses it warm. *)
      let eco delta =
        Server.handle server
          (Protocol.Eco
             {
               session = "a";
               delta = Protocol.Text delta;
               radius = None;
               max_widenings = None;
               budget_ms = None;
               jobs = None;
               tiles = None;
               want_placement = false;
             })
      in
      (match ok_or_fail (eco "move 3 10 10 0\n") with
      | Protocol.Eco_applied { legal = true; _ } -> ()
      | _ -> Alcotest.fail "wrong eco reply");
      (match ok_or_fail (eco "move 7 60 20 1\n") with
      | Protocol.Eco_applied { legal = true; grid_reused = true; _ } -> ()
      | Protocol.Eco_applied { grid_reused = false; _ } ->
        Alcotest.fail "second eco rebuilt the grid"
      | _ -> Alcotest.fail "wrong eco reply");
      (* The session's placement is still legal and retrievable. *)
      (match ok_or_fail (Server.handle server (Protocol.Get_placement { session = "a" })) with
      | Protocol.Placement_text { placement; _ } ->
        check "placement text non-empty" true (String.length placement > 0)
      | _ -> Alcotest.fail "wrong get-placement reply");
      (* Typed errors leave the server serving. *)
      Alcotest.(check string) "unknown session" "unknown-session"
        (err_code
           (Server.handle server (Protocol.Get_placement { session = "ghost" })));
      Alcotest.(check string) "bad delta cell" "invalid-delta"
        (err_code (eco "move 99999 1 1 0\n"));
      Alcotest.(check string) "delta parse error" "parse-error"
        (err_code (eco "move 1 2\n"));
      (match ok_or_fail (Server.handle server Protocol.Stats) with
      | Protocol.Stats_snapshot _ -> ()
      | _ -> Alcotest.fail "wrong stats reply");
      check "still alive after errors" true
        (Server.handle server Protocol.Ping = Ok Protocol.Pong);
      (* Shutdown flips [stopping] but still replies. *)
      check "shutdown reply" true
        (Server.handle server Protocol.Shutdown = Ok Protocol.Shutting_down);
      check "stopping" true (Server.stopping server))

(* A request's [jobs] is accepted and ignored: it must not resize the
   process-wide pool, which would outlive the request and change every
   later one. *)
let test_request_jobs_ignored () =
  with_server "jobs" (fun server _cfg ->
      let before = Tdf_par.jobs () in
      let asked = if before = 4 then 5 else 4 in
      ignore (ok_or_fail (load server ~session:"a" (fixture 11)));
      (match
         ok_or_fail
           (Server.handle server
              (Protocol.Eco
                 {
                   session = "a";
                   delta = Protocol.Text "move 3 10 10 0\n";
                   radius = None;
                   max_widenings = None;
                   budget_ms = None;
                   jobs = Some asked;
                   tiles = None;
                   want_placement = false;
                 }))
       with
      | Protocol.Eco_applied { legal = true; _ } -> ()
      | _ -> Alcotest.fail "wrong eco reply");
      Alcotest.(check int) "pool size unchanged by eco" before (Tdf_par.jobs ());
      ignore
        (ok_or_fail
           (Server.handle server
              (Protocol.Legalize
                 {
                   session = "a";
                   budget_ms = None;
                   jobs = Some asked;
                   tiles = None;
                   want_placement = false;
                 })));
      Alcotest.(check int) "pool size unchanged by legalize" before
        (Tdf_par.jobs ()))

(* Satellite 1: the placement text a server reply carries is byte-identical
   to what the incremental engine produces directly, and every cell the
   delta did not touch keeps its exact line — the frozen-cell guarantee
   survives the protocol encode/decode round-trip. *)
let test_byte_identity () =
  with_server "bytes" (fun server _cfg ->
      let d, p = fixture 23 in
      let before = Text.placement_to_string d p in
      ignore (ok_or_fail (load server ~session:"s" (d, p)));
      let delta_text = "move 5 30 25 0\nmove 12 80 15 1\n" in
      let served =
        match
          ok_or_fail
            (Server.handle server
               (Protocol.Eco
                  {
                    session = "s";
                    delta = Protocol.Text delta_text;
                    radius = None;
                    max_widenings = None;
                    budget_ms = None;
                    jobs = None;
                    tiles = None;
                    want_placement = true;
                  }))
        with
        | Protocol.Eco_applied { placement = Some txt; legal = true; _ } -> txt
        | Protocol.Eco_applied { placement = None; _ } ->
          Alcotest.fail "placement:true reply carried no placement"
        | _ -> Alcotest.fail "wrong eco reply"
      in
      (* Same engine, no server in between. *)
      let sess = Eco.Session.create d (Placement.copy p) in
      let direct =
        match Eco.Session.eco sess (Result.get_ok (Delta.read delta_text)) with
        | Ok r -> Text.placement_to_string r.Eco.design r.Eco.placement
        | Error e -> Alcotest.fail (Eco.error_to_string e)
      in
      Alcotest.(check string) "server text = direct engine text" direct served;
      (* Frozen cells: every line outside the delta's disturbance must be
         carried over exactly.  Moved cells (5 and 12) may differ; count
         how many lines changed at all and require the overwhelming
         majority frozen byte-for-byte. *)
      let lines s = String.split_on_char '\n' s in
      let before_l = lines before and after_l = lines served in
      check "same line count" true (List.length before_l = List.length after_l);
      let changed =
        List.fold_left2
          (fun n a b -> if a = b then n else n + 1)
          0 before_l after_l
      in
      check "a real change happened" true (changed > 0);
      check "far cells frozen byte-for-byte" true (changed <= 12);
      (* And the served text round-trips through the parser unchanged. *)
      match Text.read_placement d served with
      | Ok p' ->
        Alcotest.(check string) "decode/encode stable" served
          (Text.placement_to_string d p')
      | Error e -> Alcotest.fail e)

let test_lru_eviction () =
  with_server ~max_sessions:2 "lru" (fun server _cfg ->
      let fx = fixture 31 in
      ignore (ok_or_fail (load server ~session:"a" fx));
      ignore (ok_or_fail (load server ~session:"b" fx));
      (* Touch "a" so "b" is the LRU victim when "c" arrives. *)
      ignore (ok_or_fail (Server.handle server (Protocol.Get_placement { session = "a" })));
      ignore (ok_or_fail (load server ~session:"c" fx));
      check "capacity respected" true (Server.live_sessions server = 2);
      Alcotest.(check string) "LRU victim evicted" "unknown-session"
        (err_code (Server.handle server (Protocol.Get_placement { session = "b" })));
      (match Server.handle server (Protocol.Get_placement { session = "a" }) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "recently-used session evicted: %s" e.Protocol.detail);
      (* Reloading an existing id replaces in place, no eviction. *)
      ignore (ok_or_fail (load server ~session:"c" fx));
      check "replace is not eviction" true (Server.live_sessions server = 2))

(* Satellite 3: kill a request mid-execution via the "serve.request"
   failpoint — typed "injected" error reply, warm cache untouched, server
   keeps serving. *)
let test_failpoint_kill () =
  with_server "failpoint" (fun server _cfg ->
      ignore (ok_or_fail (load server ~session:"s" (fixture 41)));
      let eco () =
        Server.handle server
          (Protocol.Eco
             {
               session = "s";
               delta = Protocol.Text "move 2 15 15 0\n";
               radius = None;
               max_widenings = None;
               budget_ms = None;
               jobs = None;
               tiles = None;
               want_placement = false;
             })
      in
      Failpoint.reset ();
      Failpoint.arm "serve.request";
      Alcotest.(check string) "killed mid-request" "injected" (err_code (eco ()));
      check "charge consumed" true (Failpoint.fired "serve.request" = 1);
      (* The session survived the injected death and still serves. *)
      check "session intact" true (Server.live_sessions server = 1);
      (match ok_or_fail (eco ()) with
      | Protocol.Eco_applied { legal = true; _ } -> ()
      | _ -> Alcotest.fail "server did not recover after injection");
      Failpoint.reset ())

(* ---- socket end-to-end ---------------------------------------------- *)

(* Single-process client: nonblocking fd driven in lockstep with
   [Server.step].  Forking would hang under TDFLOW_JOBS>1 (live worker
   domains don't survive fork), so the loop is stepped explicitly. *)
let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  fd

let send fd payload =
  let s = Frame.encode payload in
  let b = Bytes.of_string s in
  let off = ref 0 in
  while !off < Bytes.length b do
    match Unix.write fd b !off (Bytes.length b - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ignore (Unix.select [] [ fd ] [] 0.1)
  done

(* Pump the server until the client fd yields one frame (or EOF → None). *)
let recv server fd dec =
  let buf = Bytes.create 4096 in
  let deadline = 500 in
  let rec loop n =
    if n > deadline then Alcotest.fail "no reply within stepping budget"
    else
      match Frame.next dec with
      | Ok (Some payload) -> Some payload
      | Error e -> Alcotest.fail (Frame.error_to_string e)
      | Ok None -> (
        ignore (Server.step ~timeout_ms:10 server);
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> None
        | got ->
          Frame.feed dec (Bytes.sub_string buf 0 got);
          loop (n + 1)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          loop (n + 1))
  in
  loop 0

let call server fd dec req =
  send fd (Protocol.request_to_string req);
  match recv server fd dec with
  | None -> Alcotest.fail "server closed the connection"
  | Some payload -> (
    match Protocol.response_of_string payload with
    | Ok resp -> resp
    | Error e -> Alcotest.failf "unparseable response: %s" e)

let test_socket_end_to_end () =
  with_server "e2e" (fun server cfg ->
      let d, p = fixture 53 in
      let fd = connect cfg.Server.socket_path in
      let dec = Frame.decoder () in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          check "wire ping" true (call server fd dec Protocol.Ping = Ok Protocol.Pong);
          (match
             ok_or_fail
               (call server fd dec
                  (Protocol.Load_design
                     {
                       session = "wire";
                       design = Protocol.Text (Text.design_to_string d);
                       placement = Some (Protocol.Text (Text.placement_to_string d p));
                       tiles = None;
                     }))
           with
          | Protocol.Loaded { n_cells = 40; _ } -> ()
          | _ -> Alcotest.fail "wrong load reply");
          (match
             ok_or_fail
               (call server fd dec
                  (Protocol.Eco
                     {
                       session = "wire";
                       delta = Protocol.Text "move 9 45 30 1\n";
                       radius = None;
                       max_widenings = None;
                       budget_ms = None;
                       jobs = None;
                       tiles = None;
                       want_placement = true;
                     }))
           with
          | Protocol.Eco_applied { legal = true; placement = Some _; _ } -> ()
          | _ -> Alcotest.fail "wrong eco reply");
          check "wire shutdown" true
            (call server fd dec Protocol.Shutdown = Ok Protocol.Shutting_down);
          check "loop stops after shutdown" true (not (Server.step server));
          Server.close server;
          check "socket unlinked" true (not (Sys.file_exists cfg.Server.socket_path)))
      )

let test_socket_bad_frame () =
  with_server "badframe" (fun server cfg ->
      let fd = connect cfg.Server.socket_path in
      let dec = Frame.decoder () in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* Garbage prefix: the server must reply once with "bad-frame"
             and then close the connection — framing is unrecoverable. *)
          let b = Bytes.of_string "garbage without a length\n" in
          ignore (Unix.write fd b 0 (Bytes.length b));
          (match recv server fd dec with
          | Some payload -> (
            match Protocol.response_of_string payload with
            | Ok (Error e) ->
              Alcotest.(check string) "typed framing error" "bad-frame"
                e.Protocol.code
            | Ok (Ok _) -> Alcotest.fail "garbage produced a success reply"
            | Error e -> Alcotest.failf "unparseable response: %s" e)
          | None -> Alcotest.fail "connection closed without a bad-frame reply");
          (* Then EOF. *)
          match recv server fd dec with
          | None -> ()
          | Some _ -> Alcotest.fail "connection survived a framing loss"))

(* ---- overload control and lifecycle ---------------------------------- *)

(* Pipeline a burst past max_pending in one write: the first frame
   executes, the rest are shed with typed "overloaded" replies delivered
   in request order. *)
let test_overload_shed () =
  with_server ~tweak:(fun c -> { c with Server.max_pending = 1 }) "shed"
    (fun server cfg ->
      let fd = connect cfg.Server.socket_path in
      let dec = Frame.decoder () in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let burst =
            String.concat ""
              (List.init 4 (fun _ ->
                   Frame.encode (Protocol.request_to_string Protocol.Ping)))
          in
          let b = Bytes.of_string burst in
          ignore (Unix.write fd b 0 (Bytes.length b));
          let replies =
            List.init 4 (fun _ ->
                match recv server fd dec with
                | Some payload -> (
                  match Protocol.response_of_string payload with
                  | Ok r -> r
                  | Error e -> Alcotest.failf "unparseable reply: %s" e)
                | None -> Alcotest.fail "connection closed during burst")
          in
          (match replies with
          | Ok Protocol.Pong :: shed ->
            List.iter
              (fun r ->
                Alcotest.(check string) "shed reply" "overloaded" (err_code r))
              shed
          | _ -> Alcotest.fail "first frame of the burst was not executed");
          (* A shed request costs no session work and the server keeps
             serving afterwards. *)
          check "alive after shedding" true
            (call server fd dec Protocol.Ping = Ok Protocol.Pong)))

(* A client that ignores "overloaded" backpressure and keeps streaming
   must not grow its queue without bound: past max_conn_queue the
   connection gets one typed "queue-overflow" error and is closed,
   dropping what it had queued. *)
let test_conn_queue_overflow () =
  with_server
    ~tweak:(fun c -> { c with Server.max_pending = 1; max_conn_queue = 4 })
    "connoverflow"
    (fun server cfg ->
      let fd = connect cfg.Server.socket_path in
      let dec = Frame.decoder () in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* 8 frames in one write: 1 executable + 3 shed markers fill
             the per-connection queue, the 5th frame overflows it. *)
          let burst =
            String.concat ""
              (List.init 8 (fun _ ->
                   Frame.encode (Protocol.request_to_string Protocol.Ping)))
          in
          let b = Bytes.of_string burst in
          ignore (Unix.write fd b 0 (Bytes.length b));
          (match recv server fd dec with
          | Some payload -> (
            match Protocol.response_of_string payload with
            | Ok r ->
              Alcotest.(check string) "typed overflow error" "queue-overflow"
                (err_code r)
            | Error e -> Alcotest.failf "unparseable reply: %s" e)
          | None -> Alcotest.fail "connection closed without a typed error");
          (* Then EOF: the queued work was dropped with the connection. *)
          (match recv server fd dec with
          | None -> ()
          | Some _ -> Alcotest.fail "connection survived the queue overflow");
          (* The server itself keeps serving new connections. *)
          let fd2 = connect cfg.Server.socket_path in
          let dec2 = Frame.decoder () in
          Fun.protect
            ~finally:(fun () ->
              try Unix.close fd2 with Unix.Unix_error _ -> ())
            (fun () ->
              check "alive after overflow" true
                (call server fd2 dec2 Protocol.Ping = Ok Protocol.Pong))))

(* The client must never blindly re-send a mutating request whose reply
   was lost: the daemon journals and applies before replying, so the
   mutation may already be durable and a re-send could apply it twice.
   Resend-safe requests (ping, reads) do attempt the reconnect. *)
let test_client_resend_safety () =
  check "reads/ping/load are resend-safe, legalize/eco are not" true
    (Protocol.request_resend_safe Protocol.Ping
    && Protocol.request_resend_safe Protocol.Stats
    && Protocol.request_resend_safe (Protocol.Get_placement { session = "s" })
    && Protocol.request_resend_safe Protocol.Shutdown
    && Protocol.request_resend_safe
         (Protocol.Load_design
            { session = "s"; design = Protocol.Text ""; placement = None; tiles = None })
    && (not
          (Protocol.request_resend_safe
             (Protocol.Legalize
                {
                  session = "s";
                  budget_ms = None;
                  jobs = None;
                  tiles = None;
                  want_placement = false;
                })))
    && not
         (Protocol.request_resend_safe
            (Protocol.Eco
               {
                 session = "s";
                 delta = Protocol.Text "";
                 radius = None;
                 max_widenings = None;
                 budget_ms = None;
                 jobs = None;
                 tiles = None;
                 want_placement = false;
               })));
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  (* A fake daemon that accepts and immediately drops the connection —
     the reply is lost and the client cannot know whether the request
     was applied. *)
  let path = sock_path "resend" in
  if Sys.file_exists path then Sys.remove path;
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 4;
  let dead_conn () =
    let c = Client.connect ~retries:2 ~backoff_ms:1 path in
    let accepted, _ = Unix.accept listener in
    Unix.close accepted;
    c
  in
  let eco_req =
    Protocol.Eco
      {
        session = "s";
        delta = Protocol.Text "move 0 1 1 0\n";
        radius = None;
        max_widenings = None;
        budget_ms = None;
        jobs = None;
        tiles = None;
        want_placement = false;
      }
  in
  let c_eco = dead_conn () in
  let c_ping = dead_conn () in
  Fun.protect
    ~finally:(fun () ->
      Client.close c_eco;
      Client.close c_ping;
      (try Unix.close listener with Unix.Unix_error _ -> ());
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (* Mutating: retry budget available, but the client must refuse to
         re-send and name the unknown state. *)
      (match Client.call c_eco eco_req with
      | _ -> Alcotest.fail "eco succeeded against a dead connection"
      | exception Failure msg ->
        check "eco failure names the unknown state" true
          (contains msg "state unknown");
        check "eco did not burn reconnect retries" true
          (Client.retries_used c_eco = 0));
      (* Resend-safe: with nothing listening any more, the client must at
         least have attempted the reconnect. *)
      Unix.close listener;
      Sys.remove path;
      match Client.call c_ping Protocol.Ping with
      | _ -> Alcotest.fail "ping succeeded against a dead connection"
      | exception Failure msg ->
        check "ping attempted a re-send via reconnect" true
          (contains msg "reconnect failed"))

(* A stale socket file from a SIGKILLed daemon is probed and removed; a
   live daemon's socket is not stolen; a non-socket file is never
   deleted. *)
let test_stale_socket_handling () =
  let path = sock_path "stale" in
  (* Fabricate a dead daemon: bind, then close without unlinking. *)
  if Sys.file_exists path then Sys.remove path;
  let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind dead (Unix.ADDR_UNIX path);
  Unix.listen dead 1;
  Unix.close dead;
  check "stale file left behind" true (Sys.file_exists path);
  let cfg = Server.default_cfg ~socket_path:path in
  let server = Server.create cfg in
  Fun.protect
    ~finally:(fun () -> Server.close server)
    (fun () ->
      (* Second daemon on the same path: the probe connects, so the
         socket is live and must not be stolen. *)
      (match Server.create cfg with
      | second ->
        Server.close second;
        Alcotest.fail "second daemon stole a live socket"
      | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ());
      check "live socket still present" true (Sys.file_exists path));
  (* A plain file at the path is refused, not deleted. *)
  let oc = open_out path in
  output_string oc "precious";
  close_out oc;
  (match Server.create cfg with
  | second ->
    Server.close second;
    Alcotest.fail "daemon clobbered a non-socket file"
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  check "non-socket file untouched" true (Sys.file_exists path);
  Sys.remove path

(* Idle connections are reaped once idle_timeout_s passes with nothing
   queued; an active connection is not. *)
let test_idle_reap () =
  with_server
    ~tweak:(fun c -> { c with Server.idle_timeout_s = 0.05 })
    "reap"
    (fun server cfg ->
      let fd = connect cfg.Server.socket_path in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let dec = Frame.decoder () in
          check "served before idling" true
            (call server fd dec Protocol.Ping = Ok Protocol.Pong);
          Unix.sleepf 0.08;
          (* Let the loop notice the idle connection, then the next read
             must see EOF. *)
          ignore (Server.step ~timeout_ms:10 server);
          match recv server fd dec with
          | None -> ()
          | Some _ -> Alcotest.fail "idle connection survived the reaper"))

(* drain: everything queued is answered and the journal ends compacted
   with one snapshot per live session — the SIGTERM path minus the
   process machinery. *)
let test_drain_snapshots () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tdfsrv-drain-%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
  with_server
    ~tweak:(fun c ->
      { c with Server.journal = Some (Tdf_io.Journal.default_cfg ~dir) })
    "drain"
    (fun server _cfg ->
      ignore (ok_or_fail (load server ~session:"s" (fixture 79)));
      (match
         Server.handle server
           (Protocol.Eco
              {
                session = "s";
                delta = Protocol.Text "move 4 20 20 0\n";
                radius = None;
                max_widenings = None;
                budget_ms = None;
                jobs = None;
                tiles = None;
                want_placement = false;
              })
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "eco: %s" e.Protocol.detail);
      Server.drain server;
      (* Snapshot on disk, wal compacted: a restart replays nothing. *)
      match Tdf_io.Journal.open_ (Tdf_io.Journal.default_cfg ~dir) with
      | Error e -> Alcotest.failf "journal reopen: %s" e
      | Ok (j, r) ->
        Tdf_io.Journal.close j;
        check "wal compacted by drain" true (r.Tdf_io.Journal.records = []);
        check "one snapshot per live session" true
          (List.map
             (fun s -> s.Tdf_io.Journal.snap_session)
             r.Tdf_io.Journal.snapshots
          = [ "s" ]))

(* ---- frame decoder fuzzing ------------------------------------------- *)

let frame_payloads_arb =
  Props.list ~min_len:1 ~max_len:6
    (Props.map
       ~print:(fun s -> Printf.sprintf "%S" s)
       (fun l ->
         let a = Array.of_list l in
         String.init (Array.length a) (fun i -> Char.chr a.(i)))
       (Props.list ~max_len:30 (Props.int_range 0 255)))

(* Feeding a valid frame stream in arbitrary chunks decodes the exact
   payload sequence. *)
let prop_frame_chunked_decode (payloads, splits) =
  let stream = String.concat "" (List.map Frame.encode payloads) in
  let dec = Frame.decoder () in
  let got = ref [] in
  let n = String.length stream in
  let cuts =
    List.sort_uniq compare
      (0 :: n :: List.map (fun f -> int_of_float (f *. float_of_int n)) splits)
  in
  let rec feed = function
    | a :: (b :: _ as rest) ->
      Frame.feed dec (String.sub stream a (b - a));
      let rec drain () =
        match Frame.next dec with
        | Ok (Some p) ->
          got := p :: !got;
          drain ()
        | Ok None -> ()
        | Error e -> Alcotest.failf "valid stream errored: %s" (Frame.error_to_string e)
      in
      drain ();
      feed rest
    | _ -> ()
  in
  feed cuts;
  List.rev !got = payloads

(* A mutated stream (bit flip or truncation) may decode to anything the
   bytes say — but the decoder must stay total: typed results only,
   never an exception, and a poisoned decoder stays poisoned instead of
   spinning. *)
let prop_frame_mutation_total (payloads, pos_frac, bit) =
  let stream = String.concat "" (List.map Frame.encode payloads) in
  let n = String.length stream in
  let data = Bytes.of_string stream in
  let pos = min (n - 1) (int_of_float (pos_frac *. float_of_int n)) in
  (* bit 8 means truncate at [pos] instead of flipping. *)
  let mutated =
    if bit = 8 then Bytes.sub_string data 0 pos
    else begin
      Bytes.set data pos
        (Char.chr (Char.code (Bytes.get data pos) lxor (1 lsl bit)));
      Bytes.to_string data
    end
  in
  let dec = Frame.decoder ~max_frame:(1 lsl 20) () in
  let rec drain budget =
    if budget = 0 then Alcotest.fail "decoder failed to converge"
    else
      match Frame.next dec with
      | Ok (Some _) -> drain (budget - 1)
      | Ok None -> true
      | Error _ -> true
  in
  (match Frame.feed dec mutated with
  | () -> ()
  | exception Invalid_argument _ -> ());
  drain 100

(* ---- protocol decoder fuzzing ---------------------------------------- *)

(* The four decoder properties of the DEF/LEF fuzzing (truncation,
   comment injection, whitespace mangling, line noise) applied to
   [request_of_string] and [response_of_string]: every result is a typed
   [Error] or a value identical to the original's, never an escaping
   exception.  The corpus covers every request and reply shape, including
   requests carrying the ignored "tiles" key. *)
let protocol_corpus =
  lazy
    (let module Json = Tdf_telemetry.Json in
     let req r = `Req (r, Protocol.request_to_string r) in
     let resp r = `Resp (r, Protocol.response_to_string r) in
     [
       req Protocol.Ping;
       req Protocol.Stats;
       req Protocol.Shutdown;
       req (Protocol.Get_placement { session = "s \"q\" \\ {}" });
       req
         (Protocol.Load_design
            {
              session = "s";
              design = Protocol.Text "cells 1\ncell a 10 0 0 0\n";
              placement = Some (Protocol.Path "/tmp/p.place");
              tiles = Some 4;
            });
       req
         (Protocol.Load_design
            {
              session = "s";
              design = Protocol.Path "d.design";
              placement = None;
              tiles = None;
            });
       req
         (Protocol.Legalize
            {
              session = "s";
              budget_ms = Some 50;
              jobs = Some 2;
              tiles = Some 2;
              want_placement = true;
            });
       req
         (Protocol.Eco
            {
              session = "s";
              delta = Protocol.Text "move 1 2 3 0\nremove 4\n";
              radius = Some 2;
              max_widenings = Some 1;
              budget_ms = None;
              jobs = None;
              tiles = Some 1;
              want_placement = false;
            });
       resp (Ok Protocol.Pong);
       resp (Ok Protocol.Shutting_down);
       resp (Protocol.error ~code:"unknown-session" "no session \"x\"");
       resp
         (Ok
            (Protocol.Loaded
               { session = "s"; n_cells = 40; n_nets = 12; legal = true }));
       resp
         (Ok
            (Protocol.Legalized
               {
                 session = "s";
                 legal = false;
                 path = "relaxed";
                 wall_s = 1.5;
                 placement = None;
               }));
       resp
         (Ok
            (Protocol.Eco_applied
               {
                 session = "s";
                 legal = true;
                 path = "local(r=4)";
                 dirty_bins = 3;
                 total_bins = 64;
                 widenings = 1;
                 fallbacks = 0;
                 grid_reused = true;
                 wall_s = 0.25;
                 placement = Some "place 1 2 3 0\n";
               }));
       resp
         (Ok (Protocol.Placement_text { session = "s"; placement = "place 0 1 2 0\n" }));
       resp
         (Ok
            (Protocol.Stats_snapshot
               (Json.Obj
                  [
                    ("requests", Json.Int 3);
                    ("by_kind", Json.Obj [ ("eco", Json.Int 2) ]);
                    ("sessions", Json.List [ Json.String "a"; Json.Null ]);
                  ])));
     ])

(* Decode [text] as the corpus entry's kind: [`Same] when it gives the
   entry's value back, [`Error] on a typed error, [`Other] on any other
   value.  An exception escapes and fails the property. *)
let decode_as entry text =
  match entry with
  | `Req (r, _) -> (
    match Protocol.request_of_string text with
    | Ok r' -> if r' = r then `Same else `Other
    | Error (_ : Protocol.err) -> `Error)
  | `Resp (r, _) -> (
    match Protocol.response_of_string text with
    | Ok r' -> if r' = r then `Same else `Other
    | Error (_ : string) -> `Error)

let encoded = function `Req (_, s) | `Resp (_, s) -> s

(* Positions between two JSON tokens: next to a structural character
   outside every string. *)
let token_boundaries text =
  let n = String.length text in
  let acc = ref [ 0; n ] and in_str = ref false and esc = ref false in
  String.iteri
    (fun i c ->
      if !in_str then begin
        if !esc then esc := false
        else if c = '\\' then esc := true
        else if c = '"' then in_str := false
      end
      else if c = '"' then in_str := true
      else if String.contains "{}[],:" c then acc := i :: (i + 1) :: !acc)
    text;
  Array.of_list (List.sort_uniq compare !acc)

let insert_at text i piece =
  String.sub text 0 i ^ piece ^ String.sub text i (String.length text - i)

let fuzz_entry rng =
  let corpus = Lazy.force protocol_corpus in
  List.nth corpus (Prng.int rng (List.length corpus))

let fuzz_protocol_truncation =
  Props.test "protocol fuzz: truncation is a typed error" ~count:300
    (Props.int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let entry = fuzz_entry rng in
      let text = encoded entry in
      let cut = Prng.int_in rng 0 (String.length text) in
      match decode_as entry (String.sub text 0 cut) with
      | `Error -> cut < String.length text
      | `Same -> cut = String.length text
      | `Other -> false)

(* JSON has no comments: one between two tokens is a typed error, and an
   unknown member (the JSON idiom for a comment) is read past. *)
let fuzz_protocol_comment_injection =
  Props.test "protocol fuzz: comment injection is an error or a no-op"
    ~count:300
    (Props.int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let entry = fuzz_entry rng in
      let text = encoded entry in
      let b = token_boundaries text in
      let comment =
        Prng.choose rng
          [| "/* c */"; "// c\n"; "# c\n"; "<!-- c -->"; "\"_comment\":\"{\\\"req\\\":1}\"," |]
      in
      let i = b.(Prng.int rng (Array.length b)) in
      let with_member = insert_at text 1 "\"_comment\":\"tiles: 9\"," in
      (match decode_as entry (insert_at text i comment) with
      | `Error | `Same -> true
      | `Other -> false)
      && decode_as entry with_member = `Same)

let fuzz_protocol_whitespace =
  Props.test "protocol fuzz: whitespace between tokens leaves the value"
    ~count:300
    (Props.int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let entry = fuzz_entry rng in
      let text = encoded entry in
      let b = token_boundaries text in
      let mangled = ref text in
      (* from the right, so earlier boundaries stay valid *)
      for k = Array.length b - 1 downto 0 do
        if Prng.int rng 3 = 0 then
          mangled :=
            insert_at !mangled b.(k)
              (Prng.choose rng [| " "; "\t"; "\n"; "\r\n"; "  \t" |])
      done;
      decode_as entry !mangled = `Same)

let fuzz_protocol_line_noise =
  Props.test "protocol fuzz: random edits yield a value or a typed error"
    ~count:300
    (Props.int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let entry = fuzz_entry rng in
      let text = ref (encoded entry) in
      (* drop, duplicate or garble a few random spans *)
      for _ = 1 to Prng.int_in rng 1 4 do
        let n = String.length !text in
        let i = Prng.int_in rng 0 n in
        let len = Prng.int_in rng 0 (min 8 (n - i)) in
        let span = String.sub !text i len in
        let rest = String.sub !text (i + len) (n - i - len) in
        text :=
          String.sub !text 0 i
          ^ (match Prng.int_in rng 0 3 with
            | 0 -> ""
            | 1 -> span ^ span
            | 2 -> "ZZZ" ^ span
            | _ -> String.map (fun c -> Char.chr (Char.code c lxor 0x20)) span)
          ^ rest
      done;
      match decode_as entry !text with `Same | `Error | `Other -> true)

let suite =
  [
    Alcotest.test_case "frame round-trip (bulk and byte-at-a-time)" `Quick
      test_frame_roundtrip;
    Alcotest.test_case "truncated frames need more bytes" `Quick
      test_frame_truncated;
    Alcotest.test_case "oversized length prefix poisons the decoder" `Quick
      test_frame_oversized;
    Alcotest.test_case "bad prefix / bad terminator" `Quick
      test_frame_bad_prefix_and_terminator;
    Alcotest.test_case "request JSON round-trip" `Quick test_request_roundtrip;
    Alcotest.test_case "malformed requests get typed codes" `Quick
      test_request_decode_errors;
    Alcotest.test_case "response JSON round-trip" `Quick test_response_roundtrip;
    Alcotest.test_case "handle: load/eco/get-placement/stats/shutdown" `Quick
      test_handle_flows;
    Alcotest.test_case "a request's jobs leaves the pool size alone" `Quick
      test_request_jobs_ignored;
    Alcotest.test_case "byte-identity: wire placement = engine placement" `Quick
      test_byte_identity;
    Alcotest.test_case "LRU eviction honors max_sessions" `Quick
      test_lru_eviction;
    Alcotest.test_case "failpoint kills a request, cache survives" `Quick
      test_failpoint_kill;
    Alcotest.test_case "socket end-to-end via stepped event loop" `Quick
      test_socket_end_to_end;
    Alcotest.test_case "framing loss: one bad-frame reply, then close" `Quick
      test_socket_bad_frame;
    Alcotest.test_case "overload: burst past max_pending is shed typed" `Quick
      test_overload_shed;
    Alcotest.test_case "overload: per-connection queue cap closes abusers"
      `Quick test_conn_queue_overflow;
    Alcotest.test_case "client never re-sends a mutation with a lost reply"
      `Quick test_client_resend_safety;
    Alcotest.test_case "stale socket reclaimed, live and non-socket refused"
      `Quick test_stale_socket_handling;
    Alcotest.test_case "idle connections are reaped" `Quick test_idle_reap;
    Alcotest.test_case "drain compacts the journal behind a snapshot" `Quick
      test_drain_snapshots;
    Props.test ~count:40 "frame: chunked decode equals payloads"
      (Props.pair frame_payloads_arb
         (Props.list ~max_len:8 (Props.float_range 0. 1.)))
      prop_frame_chunked_decode;
    Props.test ~count:60 "frame: mutated stream stays total"
      (Props.triple frame_payloads_arb
         (Props.float_range 0. 0.999)
         (Props.int_range 0 8))
      prop_frame_mutation_total;
    fuzz_protocol_truncation;
    fuzz_protocol_comment_injection;
    fuzz_protocol_whitespace;
    fuzz_protocol_line_noise;
  ]
