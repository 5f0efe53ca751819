(* Chaos harness for the durable serve daemon: drive a seeded request
   trace against a journaled daemon, SIGKILL it at random points —
   including mid-journal-write through the "journal.append" failpoint —
   restart it, let recovery replay, and diff every subsequent reply
   against an uninterrupted reference daemon.  Replies must be
   byte-identical (modulo the wall-clock timing field) or the run fails.

   The kill model makes the harness's own re-sends provably safe:
   external kills land between requests (the daemon is idle, everything
   acknowledged is journaled), and mid-request kills go through the
   failpoint, which tears the journal record so the in-flight request is
   provably unapplied.  A kill in the general unsafe window — after a
   mutation's journal append but before its reply — is exactly why
   Client refuses to auto-resend legalize/eco (request_resend_safe);
   the harness never needs that window because it re-sends only
   requests its kill plan proves unapplied.

   Usage: chaos.exe [--seed N] [--kills K] [--ecos N] [--scale S]
                    [--workdir DIR] [--daemon PATH]                   *)

module Protocol = Tdf_io.Protocol
module Delta = Tdf_io.Delta
module Client = Tdf_server.Client
module Prng = Tdf_util.Prng

let failf fmt = Printf.ksprintf (fun m -> prerr_endline ("CHAOS: " ^ m); exit 1) fmt

(* ---- process plumbing ------------------------------------------------ *)

(* The daemon: [--daemon PATH] when given, else the [bin/legalize.exe]
   built beside this harness ([_build/default/tools/chaos/chaos.exe] ->
   [_build/default/bin/legalize.exe]). *)
let legalize_exe daemon =
  let exe =
    match daemon with
    | Some exe -> exe
    | None ->
      let up = Filename.dirname in
      Filename.concat (up (up (up Sys.executable_name))) "bin/legalize.exe"
  in
  if Sys.file_exists exe then exe else failf "no daemon at %s (pass --daemon PATH)" exe

let spawn_daemon exe ~sock ~log ?journal ?arm () =
  let logfd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let dev_null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let args =
    [ "serve"; "--socket"; sock ]
    @ (match journal with Some dir -> [ "--journal"; dir ] | None -> [])
    @ match arm with Some spec -> [ "--arm-failpoint"; spec ] | None -> []
  in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) dev_null logfd logfd
  in
  Unix.close logfd;
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
  go 200

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let clean_dir dir =
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  mkdir_p dir

(* ---- trace generation ------------------------------------------------ *)

(* Same gate-sizing ECO shape the serve benchmark uses: [k] distinct
   cells jump into a window around their current legal position. *)
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

let is_mutating = function
  | Protocol.Load_design _ | Protocol.Legalize _ | Protocol.Eco _ -> true
  | Protocol.Get_placement _ | Protocol.Stats | Protocol.Ping
  | Protocol.Shutdown ->
    false

(* Timing differs run to run by construction; everything else must not. *)
let normalize (resp : Protocol.response) =
  match resp with
  | Ok (Protocol.Legalized r) -> Ok (Protocol.Legalized { r with wall_s = 0. })
  | Ok (Protocol.Eco_applied r) ->
    Ok (Protocol.Eco_applied { r with wall_s = 0. })
  | r -> r

let reply_string resp = Protocol.response_to_string (normalize resp)

type kill = External | TornAppend

let () =
  let seed = ref 7 in
  let kills = ref 5 in
  let ecos = ref 30 in
  let scale = ref 0.02 in
  let workdir = ref "out/chaos" in
  let daemon = ref None in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "N  PRNG seed for trace and kill plan");
      ("--kills", Arg.Set_int kills, "K  kill/recover cycles (default 5)");
      ("--ecos", Arg.Set_int ecos, "N  ECO requests in the trace (default 30)");
      ("--scale", Arg.Set_float scale, "S  benchmark case scale (default 0.02)");
      ("--workdir", Arg.Set_string workdir, "DIR  scratch directory");
      ( "--daemon",
        Arg.String (fun p -> daemon := Some p),
        "PATH  the legalize executable to serve (default: found from this one)" );
    ]
    (fun a -> failf "unexpected argument %S" a)
    "chaos.exe: seeded SIGKILL/recovery loop against the serve daemon";
  if !ecos < !kills + 1 then failf "--ecos must exceed --kills";
  let exe = legalize_exe !daemon in
  mkdir_p !workdir;
  let file name = Filename.concat !workdir name in
  let journal_dir = file "journal" in
  clean_dir journal_dir;
  let chaos_log = file "chaos_daemon.log" in
  let ref_log = file "ref_daemon.log" in
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f)
    [ chaos_log; ref_log ];
  let rng = Prng.create !seed in
  Printf.printf "chaos: seed %d, %d ecos, %d kills, scale %g\n%!" !seed !ecos
    !kills !scale;

  (* Fixture: a generated case plus its legal sign-off placement. *)
  let design =
    Tdf_benchgen.Gen.generate_by_name ~scale:!scale Tdf_benchgen.Spec.Iccad2023
      "case2"
  in
  let prev =
    (Tdf_legalizer.Flow3d.legalize design).Tdf_legalizer.Flow3d.placement
  in
  if not (Tdf_metrics.Legality.is_legal design prev) then
    failf "fixture placement is not legal";
  Tdf_io.Text.save_design (file "d0.design") design;
  Tdf_io.Text.save_placement (file "p0.place") design prev;

  (* Deterministic trace: load, one full legalize, the eco stream, and a
     final placement readback.  Every eco carries its placement so each
     reply is byte-comparable. *)
  let session = "chaos" in
  let k = max 2 (Tdf_netlist.Design.n_cells design / 300) in
  let requests =
    Array.of_list
      (Protocol.Load_design
         {
           session;
           design = Protocol.Path (file "d0.design");
           placement = Some (Protocol.Path (file "p0.place"));
           tiles = None;
         }
      :: Protocol.Legalize
           {
             session;
             budget_ms = None;
             jobs = None;
             tiles = None;
             want_placement = true;
           }
      :: List.init !ecos (fun _ ->
             Protocol.Eco
               {
                 session;
                 delta = Protocol.Text (Delta.to_string (eco_delta ~rng ~design ~prev ~k));
                 radius = None;
                 max_widenings = None;
                 budget_ms = None;
                 jobs = None;
                 tiles = None;
                 want_placement = true;
               })
      @ [ Protocol.Get_placement { session } ])
  in
  let n_requests = Array.length requests in

  (* Kill plan: [kills] distinct eco positions, each external or
     torn-append; at least one of each kind when the budget allows. *)
  let eco_lo = 2 and eco_hi = n_requests - 2 in
  let positions = Array.init (eco_hi - eco_lo + 1) (fun i -> eco_lo + i) in
  Prng.shuffle rng positions;
  let plan = Hashtbl.create 8 in
  for i = 0 to !kills - 1 do
    let kind =
      if i = 0 then TornAppend
      else if i = 1 then External
      else if Prng.bool rng then TornAppend
      else External
    in
    Hashtbl.replace plan positions.(i) kind
  done;

  (* Reference: one uninterrupted, unjournaled daemon. *)
  let ref_sock = file "ref.sock" in
  let ref_pid = spawn_daemon exe ~sock:ref_sock ~log:ref_log () in
  let refc = connect_with_retry ref_sock in
  let reference =
    Array.map
      (fun req ->
        let resp = Client.call refc req in
        (match resp with
        | Error e -> failf "reference daemon errored: %s: %s" e.Protocol.code e.Protocol.detail
        | Ok _ -> ());
        reply_string resp)
      requests
  in
  ignore (Client.call refc Protocol.Shutdown);
  Client.close refc;
  let code = wait_exit ref_pid in
  if code <> 0 then failf "reference daemon exited with %d" code;

  (* Chaos run.  When (re)starting the daemon before request [i0], look
     ahead for the next kill point: a torn-append kill is armed NOW, via
     --arm-failpoint journal.append:1:AFTER where AFTER counts the
     journal appends (= mutating requests) the daemon will serve first —
     the failpoint then tears exactly the target request's record. *)
  let chaos_sock = file "chaos.sock" in
  let next_kill from =
    let rec go j = if j >= n_requests then None
      else match Hashtbl.find_opt plan j with
        | Some kind -> Some (j, kind)
        | None -> go (j + 1)
    in
    go from
  in
  let appends_between i0 j =
    let c = ref 0 in
    for i = i0 to j - 1 do
      if is_mutating requests.(i) then incr c
    done;
    !c
  in
  let start_daemon i0 =
    let arm =
      match next_kill i0 with
      | Some (j, TornAppend) ->
        Some (Printf.sprintf "journal.append:1:%d" (appends_between i0 j))
      | _ -> None
    in
    let pid =
      spawn_daemon exe ~sock:chaos_sock ~log:chaos_log ~journal:journal_dir
        ?arm ()
    in
    (pid, connect_with_retry chaos_sock)
  in
  let pid = ref 0 and client = ref (Obj.magic 0 : Client.t) in
  let torn_kills = ref 0 and external_kills = ref 0 in
  (let p, c = start_daemon 0 in
   pid := p;
   client := c);
  let mismatches = ref 0 in
  let check i resp =
    let got = reply_string resp in
    if got <> reference.(i) then begin
      incr mismatches;
      Printf.eprintf "CHAOS: reply %d diverged after recovery\n  ref: %s\n  got: %s\n"
        i
        (String.sub reference.(i) 0 (min 200 (String.length reference.(i))))
        (String.sub got 0 (min 200 (String.length got)))
    end
  in
  for i = 0 to n_requests - 1 do
    (match Hashtbl.find_opt plan i with
    | Some External ->
      (* Daemon is idle between requests: SIGKILL and restart; the
         journal suffix replays everything acknowledged so far. *)
      Hashtbl.remove plan i;
      incr external_kills;
      Printf.printf "chaos: external SIGKILL before request %d\n%!" i;
      Unix.kill !pid Sys.sigkill;
      ignore (wait_exit !pid);
      Client.close !client;
      let p, c = start_daemon i in
      pid := p;
      client := c
    | Some TornAppend | None -> ());
    match Client.call !client requests.(i) with
    | resp ->
      (match Hashtbl.find_opt plan i with
      | Some TornAppend ->
        failf "request %d should have died on the armed journal.append tear" i
      | _ -> ());
      check i resp
    | exception Failure _ ->
      (match Hashtbl.find_opt plan i with
      | Some TornAppend -> ()
      | _ -> failf "daemon died unexpectedly at request %d" i);
      (* The armed failpoint wrote half of request [i]'s record, fsynced
         and SIGKILLed the daemon mid-append.  The record fails its CRC,
         recovery truncates it, so the request is unapplied: re-sending
         it is safe, and its reply must still match the reference. *)
      Hashtbl.remove plan i;
      incr torn_kills;
      Printf.printf "chaos: daemon tore journal append of request %d (SIGKILL mid-write)\n%!" i;
      let code = wait_exit !pid in
      (* [wait_exit] folds OCaml signal numbers, so SIGKILL is
         [128 + Sys.sigkill], not the POSIX 137. *)
      if code <> 128 + Sys.sigkill then
        failf "torn-append daemon exited with %d, expected SIGKILL" code;
      Client.close !client;
      let p, c = start_daemon i in
      pid := p;
      client := c;
      check i (Client.call !client requests.(i))
  done;
  ignore (Client.call !client Protocol.Shutdown);
  Client.close !client;
  let code = wait_exit !pid in
  if code <> 0 then failf "chaos daemon exited with %d after shutdown" code;

  (* Evidence check: at least one restart banner must report a nonzero
     torn-byte truncation — proof the mid-append kill really tore the
     wal and recovery healed it. *)
  let log = read_file chaos_log in
  let saw_torn_truncation =
    String.split_on_char '\n' log
    |> List.exists (fun line ->
           match
             Scanf.sscanf_opt line
               "tdflow serve: recovered %d sessions (%d records replayed, %d \
                torn bytes truncated"
               (fun _ _ torn -> torn)
           with
           | Some torn -> torn > 0
           | None -> false)
  in
  if !torn_kills > 0 && not saw_torn_truncation then
    failf "no recovery banner reported torn bytes despite %d torn kills" !torn_kills;
  if !mismatches > 0 then failf "%d replies diverged from the reference" !mismatches;
  Printf.printf
    "chaos: OK — %d requests, %d kills (%d torn-append, %d external), all \
     replies byte-identical across %d recoveries\n"
    n_requests (!torn_kills + !external_kills) !torn_kills !external_kills
    (!torn_kills + !external_kills)
