(* The write-ahead journal and crash recovery: CRC-32 vectors, record
   append/reopen round-trips, torn-tail truncation and first-bad-record
   scanning, snapshot atomicity + compaction, lsn monotonicity across
   compaction — then the durability loop through the server itself
   (crash → recover → byte-identical state) and the typed digest-drift
   startup error.  Property cases fuzz the record decoder: random
   payloads, random truncation points and random bit flips must yield a
   clean prefix or a typed result, never an exception. *)

module Journal = Tdf_io.Journal
module Crc32 = Tdf_util.Crc32
module Protocol = Tdf_io.Protocol
module Text = Tdf_io.Text
module Server = Tdf_server.Server
module Flow3d = Tdf_legalizer.Flow3d
module Legality = Tdf_metrics.Legality

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* Fresh scratch directory per call; recursively cleared first so a
   crashed previous run cannot leak state into this one. *)
let dir_counter = ref 0

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p

let tmpdir name =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tdfjrn-%d-%s-%d" (Unix.getpid ()) name !dir_counter)
  in
  rm_rf d;
  d

let open_exn cfg =
  match Journal.open_ cfg with
  | Ok v -> v
  | Error e -> Alcotest.failf "journal open failed: %s" e

let wal dir = Filename.concat dir "wal.log"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ---- CRC-32 ---------------------------------------------------------- *)

let test_crc_vectors () =
  (* The IEEE 802.3 check value, plus the empty-string identity. *)
  check_int "crc32(123456789)" 0xCBF43926 (Crc32.string "123456789");
  check_int "crc32(empty)" 0 (Crc32.string "");
  check_str "hex rendering" "cbf43926" (Crc32.to_hex (Crc32.string "123456789"));
  (* Streaming in arbitrary chunks must equal the one-shot value. *)
  let s = String.init 257 (fun i -> Char.chr (i * 7 mod 256)) in
  let whole = Crc32.string s in
  for cut = 0 to String.length s do
    let st = Crc32.update_string Crc32.empty ~off:0 ~len:cut s in
    let st = Crc32.update_string st ~off:cut ~len:(String.length s - cut) s in
    if Crc32.value st <> whole then
      Alcotest.failf "chunked crc differs at cut %d" cut
  done;
  (* Reading a value does not finalize the state. *)
  let st = Crc32.update_string Crc32.empty "1234" in
  ignore (Crc32.value st);
  check_int "value is non-consuming" whole
    (Crc32.value (Crc32.update_string (Crc32.update_string Crc32.empty "") s))

(* ---- append / reopen ------------------------------------------------- *)

let payloads3 = [ "a"; "bb"; "ccc\nwith newline" ]

let append_all t = List.map (fun p -> Journal.append t p) payloads3

let test_append_reopen () =
  let cfg = Journal.default_cfg ~dir:(tmpdir "roundtrip") in
  let t, r0 = open_exn cfg in
  check "fresh journal is empty" true
    (r0.Journal.records = [] && r0.Journal.snapshots = []
   && r0.Journal.truncated_bytes = 0);
  check "lsns count from 1" true (append_all t = [ 1; 2; 3 ]);
  check_int "last_lsn" 3 (Journal.last_lsn t);
  Journal.close t;
  Journal.close t (* idempotent *);
  let t, r = open_exn cfg in
  check "records survive reopen" true
    (r.Journal.records = List.mapi (fun i p -> (i + 1, p)) payloads3);
  check_int "no torn bytes" 0 r.Journal.truncated_bytes;
  check_int "lsn resumes" 4 (Journal.append t "dddd");
  Journal.close t

(* ---- torn tails and corruption --------------------------------------- *)

(* Chop [n] bytes off the end of the wal, as a crash mid-write would. *)
let chop dir n =
  let data = read_file (wal dir) in
  write_file (wal dir) (String.sub data 0 (String.length data - n))

let test_torn_tail_truncated () =
  let cfg = Journal.default_cfg ~dir:(tmpdir "torn") in
  let t, _ = open_exn cfg in
  ignore (append_all t);
  Journal.close t;
  chop cfg.Journal.dir 3;
  let t, r = open_exn cfg in
  check "prefix before the tear survives" true
    (List.map snd r.Journal.records = [ "a"; "bb" ]);
  (* The whole torn record goes, not just the chopped bytes: framing is
     8 bytes (len+crc) + 8 bytes lsn + payload. *)
  check_int "torn bytes reported" (16 + String.length "ccc\nwith newline" - 3)
    r.Journal.truncated_bytes;
  (* The tail is physically gone and appending resumes cleanly; the torn
     record's lsn is reclaimed — it was never durably assigned. *)
  check_int "append after truncation" 3 (Journal.append t "recovered");
  Journal.close t;
  let _, r = open_exn cfg in
  check "post-truncation wal is clean" true
    (List.map snd r.Journal.records = [ "a"; "bb"; "recovered" ])

let test_bitflip_stops_scan () =
  let cfg = Journal.default_cfg ~dir:(tmpdir "bitflip") in
  let t, _ = open_exn cfg in
  ignore (append_all t);
  Journal.close t;
  (* Records are 17 and 18 bytes; flip one payload bit of the middle
     record — its CRC fails, so the scan keeps record 1 and drops the
     rest of the log even though record 3 is intact. *)
  let data = Bytes.of_string (read_file (wal cfg.Journal.dir)) in
  Bytes.set data 27 (Char.chr (Char.code (Bytes.get data 27) lxor 0x10));
  write_file (wal cfg.Journal.dir) (Bytes.to_string data);
  let t, r = open_exn cfg in
  check "scan stops at first bad record" true
    (List.map snd r.Journal.records = [ "a" ]);
  check_int "everything after it is truncated" (Bytes.length data - 17)
    r.Journal.truncated_bytes;
  Journal.close t

(* ---- snapshots and compaction ---------------------------------------- *)

let test_snapshot_compact () =
  let cfg = Journal.default_cfg ~dir:(tmpdir "snap") in
  let t, _ = open_exn cfg in
  ignore (Journal.append t "one");
  ignore (Journal.append t "two");
  Journal.save_snapshot t ~session:"s/1" "BLOB-BYTES\n";
  check "snapshot listed" true (Journal.snapshot_sessions t = [ "s/1" ]);
  Journal.compact t;
  Journal.close t;
  let t, r = open_exn cfg in
  check "wal empty after compaction" true (r.Journal.records = []);
  (match r.Journal.snapshots with
  | [ { Journal.snap_session = "s/1"; snap_lsn = 2; blob = "BLOB-BYTES\n" } ] ->
    ()
  | _ -> Alcotest.fail "snapshot did not survive reopen intact");
  (* Lsns are pinned by the snapshot high-water mark: numbering continues
     across compaction, it never restarts. *)
  check_int "lsn continues after compact" 3 (Journal.append t "three");
  Journal.delete_snapshot t ~session:"s/1";
  check "snapshot deleted" true (Journal.snapshot_sessions t = []);
  Journal.close t

(* [max_record] caps wal appends, not snapshots: a session whose blob
   outgrows it must still snapshot, compact and recover — the old
   behavior silently dropped the snapshot on restart, losing the
   session with no error. *)
let test_oversized_snapshot_recovered () =
  let cfg =
    { (Journal.default_cfg ~dir:(tmpdir "snapbig")) with Journal.max_record = 64 }
  in
  let t, _ = open_exn cfg in
  let blob = String.init 1000 (fun i -> Char.chr (33 + (i mod 90))) in
  Journal.save_snapshot t ~session:"big" blob;
  Journal.compact t;
  Journal.close t;
  let t, r = open_exn cfg in
  check_int "no snapshot dropped" 0 r.Journal.dropped_snapshots;
  (match r.Journal.snapshots with
  | [ { Journal.snap_session = "big"; blob = b; _ } ] ->
    check_str "blob intact" blob b
  | _ -> Alcotest.fail "oversized snapshot lost on reopen");
  Journal.close t

let test_snapshot_corruption_dropped () =
  let cfg = Journal.default_cfg ~dir:(tmpdir "snapcorrupt") in
  let t, _ = open_exn cfg in
  Journal.save_snapshot t ~session:"x" "good";
  Journal.close t;
  (* Session "x" is hex 78; garbage in its file must be skipped, counted,
     and must not take the journal down.  A leftover .tmp from an
     interrupted snapshot write is deleted on open. *)
  write_file (Filename.concat cfg.Journal.dir "snap-78.snap") "garbage";
  let leftover = Filename.concat cfg.Journal.dir "snap-79.snap.tmp" in
  write_file leftover "partial";
  let t, r = open_exn cfg in
  check "corrupt snapshot dropped" true (r.Journal.snapshots = []);
  check_int "drop counted" 1 r.Journal.dropped_snapshots;
  check "tmp file cleaned" true (not (Sys.file_exists leftover));
  Journal.close t

(* ---- crash recovery through the server ------------------------------- *)

let sock_path name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "tdfjrnsrv-%d-%s.sock" (Unix.getpid ()) name)

let journaled_cfg name dir =
  {
    (Server.default_cfg ~socket_path:(sock_path name)) with
    Server.journal = Some (Journal.default_cfg ~dir);
  }

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

let eco server ~session delta =
  Server.handle server
    (Protocol.Eco
       {
         session;
         delta = Protocol.Text delta;
         radius = None;
         max_widenings = None;
         budget_ms = None;
         jobs = None;
         tiles = None;
         want_placement = false;
       })

let placement_text server ~session =
  match Server.handle server (Protocol.Get_placement { session }) with
  | Ok (Protocol.Placement_text { placement; _ }) -> placement
  | Ok _ -> Alcotest.fail "wrong get-placement reply"
  | Error e -> Alcotest.failf "%s: %s" e.Protocol.code e.Protocol.detail

let expect_ok name = function
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: %s: %s" name e.Protocol.code e.Protocol.detail

(* SIGKILL-shaped stop (Server.crash skips the final snapshot), restart
   on the same journal directory, and the recovered session must serve
   the exact placement bytes the dead daemon last acknowledged. *)
let test_crash_recovery_byte_identical () =
  let dir = tmpdir "recover" in
  let server = Server.create (journaled_cfg "rec1" dir) in
  let fx = fixture 67 in
  expect_ok "load" (load server ~session:"s" fx);
  expect_ok "eco1" (eco server ~session:"s" "move 3 10 10 0\n");
  expect_ok "eco2" (eco server ~session:"s" "move 7 60 20 1\n");
  let before = placement_text server ~session:"s" in
  Server.crash server;
  let server = Server.create (journaled_cfg "rec2" dir) in
  Fun.protect
    ~finally:(fun () -> Server.close server)
    (fun () ->
      (match Server.recovery server with
      | Some r ->
        check_int "one session recovered" 1 r.Server.recovered_sessions;
        check_int "three records replayed" 3 r.Server.replayed_records
      | None -> Alcotest.fail "journaled server reported no recovery");
      check_int "session live after recovery" 1 (Server.live_sessions server);
      check_str "placement bytes identical" before
        (placement_text server ~session:"s");
      (* And the recovered session keeps serving ECOs. *)
      expect_ok "eco after recovery" (eco server ~session:"s" "move 5 30 25 0\n"))

(* A snapshot plus journal suffix recover together: records at or below
   the snapshot lsn are already inside the blob and must be skipped, the
   rest replays on top. *)
let test_snapshot_plus_suffix_recovery () =
  let dir = tmpdir "snapsuffix" in
  let cfg =
    { (journaled_cfg "snap1" dir) with Server.snapshot_every = 2 }
  in
  let server = Server.create cfg in
  let fx = fixture 71 in
  expect_ok "load" (load server ~session:"s" fx);
  expect_ok "eco1" (eco server ~session:"s" "move 3 10 10 0\n");
  (* snapshot+compact happened at record 2; this lands in the suffix. *)
  expect_ok "eco2" (eco server ~session:"s" "move 7 60 20 1\n");
  let before = placement_text server ~session:"s" in
  Server.crash server;
  let server = Server.create (journaled_cfg "snap2" dir) in
  Fun.protect
    ~finally:(fun () -> Server.close server)
    (fun () ->
      (match Server.recovery server with
      | Some r ->
        check_int "restored from snapshot" 1 r.Server.recovered_sessions;
        check "suffix replayed, prefix skipped" true
          (r.Server.replayed_records <= 1)
      | None -> Alcotest.fail "no recovery stats");
      check_str "snapshot+suffix = pre-crash bytes" before
        (placement_text server ~session:"s"))

(* A budget-capped mutation snapshots immediately after its journal
   append, so recovery restores it from the snapshot and never
   command-replays it — the one op whose replay is timing-dependent
   (wall-clock clipping) must not be able to brick a restart. *)
let test_budget_capped_mutation_never_replays () =
  let dir = tmpdir "budgetsnap" in
  let server = Server.create (journaled_cfg "bud1" dir) in
  expect_ok "load" (load server ~session:"s" (fixture 83));
  let eco_budgeted =
    Server.handle server
      (Protocol.Eco
         {
           session = "s";
           delta = Protocol.Text "move 6 25 15 0\n";
           radius = None;
           max_widenings = None;
           budget_ms = Some 600_000;
           jobs = None;
           tiles = None;
           want_placement = false;
         })
  in
  expect_ok "budgeted eco" eco_budgeted;
  let before = placement_text server ~session:"s" in
  Server.crash server;
  let server = Server.create (journaled_cfg "bud2" dir) in
  Fun.protect
    ~finally:(fun () -> Server.close server)
    (fun () ->
      (match Server.recovery server with
      | Some r ->
        check_int "session recovered" 1 r.Server.recovered_sessions;
        (* The snapshot covers both the load and the budgeted eco:
           nothing is command-replayed. *)
        check_int "no command replay needed" 0 r.Server.replayed_records
      | None -> Alcotest.fail "no recovery stats");
      check_str "budgeted state recovered byte-identically" before
        (placement_text server ~session:"s"))

(* Tamper with a journaled digest: replay then disagrees with the record
   and startup must fail with the typed drift error, not serve bad
   state. *)
let test_digest_drift_detected () =
  let dir = tmpdir "drift" in
  let server = Server.create (journaled_cfg "drift1" dir) in
  expect_ok "load" (load server ~session:"s" (fixture 73));
  expect_ok "eco" (eco server ~session:"s" "move 3 10 10 0\n");
  Server.crash server;
  (* Rewrite every journaled digest to a value replay cannot produce.
     Appending through a fresh journal keeps framing and CRCs valid —
     the corruption is semantic, exactly what the checksum cannot catch
     and the digest check exists for. *)
  let t1, r = open_exn (Journal.default_cfg ~dir) in
  Journal.close t1;
  let tampered = tmpdir "drift-tampered" in
  let t2, _ = open_exn (Journal.default_cfg ~dir:tampered) in
  let find_sub hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i =
      if i + n > h then None
      else if String.sub hay i n = needle then Some i
      else go (i + 1)
    in
    go 0
  in
  List.iter
    (fun (_, payload) ->
      let needle = "\"digest\":\"" in
      let payload =
        match find_sub payload needle with
        | Some i ->
          let j = i + String.length needle in
          String.sub payload 0 j ^ "ffffffff"
          ^ String.sub payload (j + 8) (String.length payload - j - 8)
        | None -> payload
      in
      ignore (Journal.append t2 payload))
    r.Journal.records;
  Journal.close t2;
  match Server.create (journaled_cfg "drift2" tampered) with
  | server ->
    Server.close server;
    Alcotest.fail "server started on drifted journal"
  | exception Server.Recovery_error (Server.Digest_drift { got; _ }) ->
    check "drift reports the replayed digest" true (got <> "ffffffff")
  | exception Server.Recovery_error e ->
    Alcotest.failf "wrong recovery error: %s" (Server.recovery_error_to_string e)

(* A fixed load/legalize/eco/evict sequence pins the byte format of every
   wal record (by CRC-32), then recovery must replay all four record kinds
   to the placement the dead daemon served. *)
let test_journal_format_and_replay () =
  let dir = tmpdir "format" in
  let cfg name =
    { (journaled_cfg name dir) with Server.max_sessions = 1 }
  in
  let server = Server.create (cfg "fmt1") in
  let d, p = fixture 89 in
  let load session =
    Server.handle server
      (Protocol.Load_design
         {
           session;
           design = Protocol.Text (Text.design_to_string d);
           placement = Some (Protocol.Text (Text.placement_to_string d p));
           tiles = None;
         })
  in
  let legalize session =
    Server.handle server
      (Protocol.Legalize
         {
           session;
           budget_ms = None;
           jobs = None;
           tiles = None;
           want_placement = false;
         })
  in
  let eco session delta =
    Server.handle server
      (Protocol.Eco
         {
           session;
           delta = Protocol.Text delta;
           radius = None;
           max_widenings = None;
           budget_ms = None;
           jobs = None;
           tiles = None;
           want_placement = false;
         })
  in
  expect_ok "load s1" (load "s1");
  expect_ok "legalize s1" (legalize "s1");
  expect_ok "eco s1" (eco "s1" "move 3 10 10 0\n");
  (match eco "s1" "move 9999 10 10 0\n" with
  | Error { Protocol.code = "invalid-delta"; _ } -> ()
  | _ -> Alcotest.fail "out-of-range eco was not rejected");
  expect_ok "load s2 (evicts s1)" (load "s2");
  expect_ok "eco s2" (eco "s2" "move 7 60 20 1\n");
  expect_ok "legalize s2" (legalize "s2");
  let before = placement_text server ~session:"s2" in
  Server.crash server;
  let j, r = open_exn (Journal.default_cfg ~dir) in
  Journal.close j;
  let ops =
    List.map
      (fun (_, payload) ->
        match Tdf_telemetry.Json.of_string payload with
        | Ok doc ->
          Option.bind (Tdf_telemetry.Json.member "op" doc)
            Tdf_telemetry.Json.to_str
          |> Option.value ~default:"?"
        | Error e -> Alcotest.failf "wal record is not JSON: %s" e)
      r.Journal.records
  in
  Alcotest.(check (list string))
    "wal record kinds"
    [ "load"; "legalize"; "eco"; "evict"; "load"; "eco"; "legalize" ]
    ops;
  let crcs =
    List.map (fun (_, payload) -> Crc32.to_hex (Crc32.string payload))
      r.Journal.records
  in
  Alcotest.(check (list string))
    "wal payload CRCs"
    [
      "f14df81e"; "64697992"; "dc2dd1bf"; "909eb4cb"; "cf0e1453"; "f5849190";
      "bdc1f135";
    ]
    crcs;
  let server = Server.create (cfg "fmt2") in
  Fun.protect
    ~finally:(fun () -> Server.close server)
    (fun () ->
      (match Server.recovery server with
      | Some r -> check_int "one session recovered" 1 r.Server.recovered_sessions
      | None -> Alcotest.fail "no recovery stats");
      check_str "s2 placement bytes identical" before
        (placement_text server ~session:"s2");
      match Server.handle server (Protocol.Get_placement { session = "s1" }) with
      | Error { Protocol.code = "unknown-session"; _ } -> ()
      | _ -> Alcotest.fail "evicted session s1 came back")

(* A snapshot blob as written before snapshots became load records —
   {"design","placement","digest"}, no "op" — still restores. *)
let test_legacy_snapshot_blob_restores () =
  let dir = tmpdir "legacysnap" in
  let d, p = fixture 97 in
  let digest =
    Tdf_incremental.Eco.Session.state_digest
      (Tdf_incremental.Eco.Session.create d p)
  in
  let module Json = Tdf_telemetry.Json in
  let blob =
    Json.to_string
      (Json.Obj
         [
           ("design", Json.String (Text.design_to_string d));
           ("placement", Json.String (Text.placement_to_string d p));
           ("digest", Json.String digest);
         ])
  in
  let j, _ = open_exn (Journal.default_cfg ~dir) in
  Journal.save_snapshot j ~session:"old" blob;
  Journal.close j;
  let server = Server.create (journaled_cfg "legacy" dir) in
  Fun.protect
    ~finally:(fun () -> Server.close server)
    (fun () ->
      (match Server.recovery server with
      | Some r -> check_int "snapshot restored" 1 r.Server.recovered_sessions
      | None -> Alcotest.fail "no recovery stats");
      check_str "restored placement" (Text.placement_to_string d p)
        (placement_text server ~session:"old"))

(* A load and an eco record as journaled when requests could still name a
   tile count: both carry "tiles":2.  The payloads are rebuilt field by
   field and pinned by CRC to the bytes that daemon wrote; recovery must
   replay them to the digests they record and to the placement it served
   (pinned by CRC).  The decoder reads past the key. *)
let test_legacy_tiles_records_recover () =
  let dir = tmpdir "legacytiles" in
  let d, p = fixture 101 in
  let module Json = Tdf_telemetry.Json in
  let record op fields digest =
    Json.to_string
      (Json.Obj
         ((("op", Json.String op) :: ("session", Json.String "t") :: fields)
         @ [ ("tiles", Json.Int 2); ("digest", Json.String digest) ]))
  in
  let payloads =
    [
      record "load"
        [
          ("design", Json.String (Text.design_to_string d));
          ("placement", Json.String (Text.placement_to_string d p));
        ]
        "8483ddbc";
      record "eco"
        [
          ("delta", Json.String "move 3 10 10 0\n");
          ("radius", Json.Int 4);
          ("max_widenings", Json.Int 3);
        ]
        "75c34427";
    ]
  in
  Alcotest.(check (list string))
    "legacy record CRCs" [ "83888e19"; "4500416a" ]
    (List.map (fun s -> Crc32.to_hex (Crc32.string s)) payloads);
  let j, _ = open_exn (Journal.default_cfg ~dir) in
  List.iter (fun s -> ignore (Journal.append j s)) payloads;
  Journal.close j;
  let server = Server.create (journaled_cfg "legacytiles" dir) in
  Fun.protect
    ~finally:(fun () -> Server.close server)
    (fun () ->
      (match Server.recovery server with
      | Some r ->
        check_int "session recovered" 1 r.Server.recovered_sessions;
        check_int "both records replayed" 2 r.Server.replayed_records
      | None -> Alcotest.fail "no recovery stats");
      check_str "recovered placement CRC" "0f0c60cc"
        (Crc32.to_hex (Crc32.string (placement_text server ~session:"t"))))

(* Records a daemon wrote while a request's job count was journaled: a
   legalize and an eco carrying "jobs":2.  The key is no longer read, so
   they replay to the digests the daemon recorded; their bytes are pinned
   by CRC to what it wrote. *)
let test_legacy_jobs_records_recover () =
  let dir = tmpdir "legacyjobs" in
  let d, p = fixture 103 in
  let module Json = Tdf_telemetry.Json in
  let record op fields digest =
    Json.to_string
      (Json.Obj
         ((("op", Json.String op) :: ("session", Json.String "t") :: fields)
         @ [ ("digest", Json.String digest) ]))
  in
  let payloads =
    [
      record "load"
        [
          ("design", Json.String (Text.design_to_string d));
          ("placement", Json.String (Text.placement_to_string d p));
        ]
        "8600de34";
      record "legalize" [ ("jobs", Json.Int 2) ] "8600de34";
      record "eco"
        [
          ("delta", Json.String "move 3 10 10 0\n");
          ("radius", Json.Int 4);
          ("max_widenings", Json.Int 3);
          ("jobs", Json.Int 2);
        ]
        "6ce5132e";
    ]
  in
  Alcotest.(check (list string))
    "legacy record CRCs" [ "f0efd89b"; "41918c11"; "fdb904a4" ]
    (List.map (fun s -> Crc32.to_hex (Crc32.string s)) payloads);
  let j, _ = open_exn (Journal.default_cfg ~dir) in
  List.iter (fun s -> ignore (Journal.append j s)) payloads;
  Journal.close j;
  let server = Server.create (journaled_cfg "legacyjobs" dir) in
  Fun.protect
    ~finally:(fun () -> Server.close server)
    (fun () ->
      (match Server.recovery server with
      | Some r ->
        check_int "session recovered" 1 r.Server.recovered_sessions;
        check_int "all records replayed" 3 r.Server.replayed_records
      | None -> Alcotest.fail "no recovery stats");
      check_str "recovered placement CRC" "19bbe843"
        (Crc32.to_hex (Crc32.string (placement_text server ~session:"t"))))

(* ---- property fuzzing ------------------------------------------------ *)

let payload_arb =
  Props.map
    ~print:(fun s -> Printf.sprintf "%S" s)
    (fun l ->
      let a = Array.of_list l in
      String.init (Array.length a) (fun i -> Char.chr a.(i)))
    (Props.list ~max_len:40 (Props.int_range 0 255))

let payloads_arb = Props.list ~min_len:1 ~max_len:8 payload_arb

let with_wal name payloads f =
  let cfg = Journal.default_cfg ~dir:(tmpdir name) in
  let t, _ = open_exn cfg in
  List.iter (fun p -> ignore (Journal.append t p)) payloads;
  Journal.close t;
  Fun.protect ~finally:(fun () -> rm_rf cfg.Journal.dir) (fun () -> f cfg)

(* Records written are records read, byte for byte and in order. *)
let prop_append_reopen_identity payloads =
  with_wal "prop-rt" payloads (fun cfg ->
      let t, r = open_exn cfg in
      Journal.close t;
      List.map snd r.Journal.records = payloads
      && List.map fst r.Journal.records
         = List.init (List.length payloads) (fun i -> i + 1))

(* Truncating the wal anywhere yields a clean record prefix — and never
   an exception. *)
let prop_truncation_yields_prefix (payloads, frac) =
  with_wal "prop-trunc" payloads (fun cfg ->
      let size = String.length (read_file (wal cfg.Journal.dir)) in
      let keep = int_of_float (frac *. float_of_int size) in
      chop cfg.Journal.dir (size - keep);
      let t, r = open_exn cfg in
      Journal.close t;
      let survived = List.map snd r.Journal.records in
      let rec is_prefix xs ys =
        match (xs, ys) with
        | [], _ -> true
        | x :: xs, y :: ys -> x = y && is_prefix xs ys
        | _ :: _, [] -> false
      in
      is_prefix survived payloads && r.Journal.truncated_bytes >= 0)

(* Flipping any single bit anywhere in the wal still yields a clean
   prefix of the original records (CRC-32 catches every single-bit
   error), never an exception. *)
let prop_bitflip_yields_prefix (payloads, pos_frac, bit) =
  with_wal "prop-flip" payloads (fun cfg ->
      let data = Bytes.of_string (read_file (wal cfg.Journal.dir)) in
      let n = Bytes.length data in
      let pos = min (n - 1) (int_of_float (pos_frac *. float_of_int n)) in
      Bytes.set data pos
        (Char.chr (Char.code (Bytes.get data pos) lxor (1 lsl bit)));
      write_file (wal cfg.Journal.dir) (Bytes.to_string data);
      let t, r = open_exn cfg in
      Journal.close t;
      let survived = List.map snd r.Journal.records in
      let rec is_prefix xs ys =
        match (xs, ys) with
        | [], _ -> true
        | x :: xs, y :: ys -> x = y && is_prefix xs ys
        | _ :: _, [] -> false
      in
      is_prefix survived payloads
      && List.length survived < List.length payloads)

let suite =
  [
    Alcotest.test_case "crc32 vectors and streaming equivalence" `Quick
      test_crc_vectors;
    Alcotest.test_case "append / reopen round-trip, lsn continuity" `Quick
      test_append_reopen;
    Alcotest.test_case "torn tail is truncated and reported" `Quick
      test_torn_tail_truncated;
    Alcotest.test_case "bit flip stops the scan at the bad record" `Quick
      test_bitflip_stops_scan;
    Alcotest.test_case "snapshot + compact survive reopen, lsns pinned" `Quick
      test_snapshot_compact;
    Alcotest.test_case "corrupt snapshot dropped, tmp files cleaned" `Quick
      test_snapshot_corruption_dropped;
    Alcotest.test_case "oversized snapshot recovers (max_record is a wal cap)"
      `Quick test_oversized_snapshot_recovered;
    Alcotest.test_case "budget-capped mutation snapshots, never replays"
      `Quick test_budget_capped_mutation_never_replays;
    Alcotest.test_case "crash recovery restores byte-identical state" `Quick
      test_crash_recovery_byte_identical;
    Alcotest.test_case "snapshot + journal suffix recover together" `Quick
      test_snapshot_plus_suffix_recovery;
    Alcotest.test_case "journaled digest drift is a typed startup error"
      `Quick test_digest_drift_detected;
    Alcotest.test_case "wal record format pinned; every record kind replays"
      `Quick test_journal_format_and_replay;
    Alcotest.test_case "parent-shape snapshot blob restores" `Quick
      test_legacy_snapshot_blob_restores;
    Alcotest.test_case "records carrying a tile count still recover" `Quick
      test_legacy_tiles_records_recover;
    Alcotest.test_case "records carrying a job count still recover" `Quick
      test_legacy_jobs_records_recover;
    Props.test ~count:30 "journal: append/reopen identity" payloads_arb
      prop_append_reopen_identity;
    Props.test ~count:30 "journal: any truncation yields a clean prefix"
      (Props.pair payloads_arb (Props.float_range 0. 1.))
      prop_truncation_yields_prefix;
    Props.test ~count:30 "journal: any bit flip yields a clean prefix"
      (Props.triple payloads_arb
         (Props.float_range 0. 0.999)
         (Props.int_range 0 7))
      prop_bitflip_yields_prefix;
  ]
