module Crc32 = Tdf_util.Crc32
module Failpoint = Tdf_util.Failpoint

type fsync_policy = Always | Every of int | Never

let default_fsync = Every 8

let fsync_policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | s when String.length s > 6 && String.sub s 0 6 = "every:" -> (
    match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
    | Some n when n >= 1 -> Ok (Every n)
    | _ -> Error (Printf.sprintf "bad fsync policy %S (need every:N, N >= 1)" s)
  )
  | s ->
    Error
      (Printf.sprintf "bad fsync policy %S (expected always, never or every:N)"
         s)

type cfg = { dir : string; fsync : fsync_policy; max_record : int }

let default_cfg ~dir = { dir; fsync = default_fsync; max_record = 64 * 1024 * 1024 }

type snapshot = { snap_session : string; snap_lsn : int; blob : string }

type recovery = {
  records : (int * string) list;
  snapshots : snapshot list;
  truncated_bytes : int;
  dropped_snapshots : int;
}

type stats = {
  appends : int;
  appended_bytes : int;
  fsyncs : int;
  snapshots_written : int;
  compactions : int;
}

type t = {
  cfg : cfg;
  fd : Unix.file_descr;  (** wal.log, positioned at its end *)
  mutable lsn : int;
  mutable unsynced : int;  (** appends since the last fsync *)
  mutable snap_sessions : string list;
  mutable closed : bool;
  (* stats *)
  mutable appends : int;
  mutable appended_bytes : int;
  mutable fsyncs : int;
  mutable snapshots_written : int;
  mutable compactions : int;
}

(* ---- framing --------------------------------------------------------- *)

let header_len = 8

let put_u32_be b off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (v land 0xff))

let get_u32_be s off =
  (Char.code (Bytes.get s off) lsl 24)
  lor (Char.code (Bytes.get s (off + 1)) lsl 16)
  lor (Char.code (Bytes.get s (off + 2)) lsl 8)
  lor Char.code (Bytes.get s (off + 3))

let put_u64_be b off v =
  put_u32_be b off ((v lsr 32) land 0xFFFFFFFF);
  put_u32_be b (off + 4) (v land 0xFFFFFFFF)

let get_u64_be s off = (get_u32_be s off lsl 32) lor get_u32_be s (off + 4)

(* One framed record: len | crc | payload. *)
let frame payload =
  let n = String.length payload in
  let b = Bytes.create (header_len + n) in
  put_u32_be b 0 n;
  put_u32_be b 4 (Crc32.string payload);
  Bytes.blit_string payload 0 b header_len n;
  b

(* Scan framed records out of [data]; returns the payloads in order and
   the offset of the first incomplete/corrupt record (= length when the
   whole buffer parses). *)
let scan ~max_record data =
  let total = Bytes.length data in
  let out = ref [] in
  let pos = ref 0 in
  let ok = ref true in
  while !ok && !pos + header_len <= total do
    let len = get_u32_be data !pos in
    if len < 0 || len > max_record || !pos + header_len + len > total then
      ok := false
    else
      let crc = get_u32_be data (!pos + 4) in
      let payload = Bytes.sub_string data (!pos + header_len) len in
      if Crc32.string payload <> crc then ok := false
      else begin
        out := payload :: !out;
        pos := !pos + header_len + len
      end
  done;
  (List.rev !out, !pos)

(* ---- low-level IO ---------------------------------------------------- *)

let rec restart_on_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f

let write_all fd b off len =
  let off = ref off and left = ref len in
  while !left > 0 do
    let n = restart_on_eintr (fun () -> Unix.write fd b !off !left) in
    off := !off + n;
    left := !left - n
  done

let read_whole fd =
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    let n = restart_on_eintr (fun () -> Unix.read fd chunk 0 (Bytes.length chunk)) in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    end
  in
  go ();
  Buffer.to_bytes buf

(* ---- paths ----------------------------------------------------------- *)

let hex_of_string s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let string_of_hex h =
  if String.length h mod 2 <> 0 then None
  else
    try
      Some
        (String.init
           (String.length h / 2)
           (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2))))
    with _ -> None

let wal_path cfg = Filename.concat cfg.dir "wal.log"

let snap_path cfg session =
  Filename.concat cfg.dir ("snap-" ^ hex_of_string session ^ ".snap")

(* ---- snapshots ------------------------------------------------------- *)

let encode_snapshot ~session ~lsn blob =
  let slen = String.length session in
  let b = Bytes.create (8 + 2 + slen + String.length blob) in
  put_u64_be b 0 lsn;
  Bytes.set b 8 (Char.chr ((slen lsr 8) land 0xff));
  Bytes.set b 9 (Char.chr (slen land 0xff));
  Bytes.blit_string session 0 b 10 slen;
  Bytes.blit_string blob 0 b (10 + slen) (String.length blob);
  Bytes.to_string b

let decode_snapshot payload =
  let n = String.length payload in
  if n < 10 then None
  else
    let b = Bytes.of_string payload in
    let lsn = get_u64_be b 0 in
    let slen = (Char.code payload.[8] lsl 8) lor Char.code payload.[9] in
    if lsn < 0 || 10 + slen > n then None
    else
      Some
        {
          snap_session = String.sub payload 10 slen;
          snap_lsn = lsn;
          blob = String.sub payload (10 + slen) (n - 10 - slen);
        }

(* A snapshot file holds exactly one record and is read whole, so its
   own length bounds the scan — [cfg.max_record] is a wal-append cap and
   must NOT apply here, or a session whose blob outgrew it would
   snapshot successfully and then be silently dropped on recovery. *)
let load_snapshot path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | exception Sys_error _ -> None
  | raw -> (
    match scan ~max_record:(String.length raw) (Bytes.of_string raw) with
    | [ payload ], good when good = String.length raw -> decode_snapshot payload
    | _ -> None)

(* ---- open / recovery ------------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ cfg =
  try
    mkdir_p cfg.dir;
    if not (Sys.is_directory cfg.dir) then
      failwith (cfg.dir ^ " exists and is not a directory");
    (* Leftover tmp files are interrupted snapshot writes: never valid. *)
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".tmp" then
          try Sys.remove (Filename.concat cfg.dir f) with Sys_error _ -> ())
      (Sys.readdir cfg.dir);
    let fd =
      Unix.openfile (wal_path cfg) [ Unix.O_RDWR; Unix.O_CREAT ] 0o644
    in
    let data = read_whole fd in
    let payloads, good = scan ~max_record:cfg.max_record data in
    let truncated = Bytes.length data - good in
    if truncated > 0 then begin
      Unix.ftruncate fd good;
      Tdf_telemetry.incr "journal.truncated_tails"
    end;
    ignore (Unix.lseek fd good Unix.SEEK_SET);
    (* wal payload = lsn:u64be ++ user bytes; a record too short for its
       lsn is treated like a checksum failure would have been at scan
       time — it cannot happen through [append], so drop it and anything
       after it.  (Belt and braces: [scan] already checksummed.) *)
    let records =
      let rec go acc = function
        | [] -> List.rev acc
        | p :: rest when String.length p >= 8 ->
          let b = Bytes.of_string p in
          go ((get_u64_be b 0, String.sub p 8 (String.length p - 8)) :: acc) rest
        | _ :: _ -> List.rev acc
      in
      go [] payloads
    in
    let dropped = ref 0 in
    let snaps = ref [] in
    Array.iter
      (fun f ->
        if
          String.length f > 10
          && String.sub f 0 5 = "snap-"
          && Filename.check_suffix f ".snap"
        then begin
          let hex = String.sub f 5 (String.length f - 10) in
          match
            (string_of_hex hex, load_snapshot (Filename.concat cfg.dir f))
          with
          | Some session, Some snap when session = snap.snap_session ->
            snaps := snap :: !snaps
          | _ -> incr dropped
        end)
      (Sys.readdir cfg.dir);
    let snapshots =
      List.sort (fun a b -> compare a.snap_session b.snap_session) !snaps
    in
    let last_lsn =
      List.fold_left
        (fun a s -> max a s.snap_lsn)
        (List.fold_left (fun a (l, _) -> max a l) 0 records)
        snapshots
    in
    let t =
      {
        cfg;
        fd;
        lsn = last_lsn;
        unsynced = 0;
        snap_sessions = List.map (fun s -> s.snap_session) snapshots;
        closed = false;
        appends = 0;
        appended_bytes = 0;
        fsyncs = 0;
        snapshots_written = 0;
        compactions = 0;
      }
    in
    Ok
      ( t,
        {
          records;
          snapshots;
          truncated_bytes = truncated;
          dropped_snapshots = !dropped;
        } )
  with
  | Unix.Unix_error (e, fn, arg) ->
    Error
      (Printf.sprintf "journal %s: %s: %s%s" cfg.dir fn (Unix.error_message e)
         (if arg = "" then "" else " (" ^ arg ^ ")"))
  | Sys_error msg | Failure msg -> Error (Printf.sprintf "journal: %s" msg)

(* ---- appending ------------------------------------------------------- *)

let do_fsync t =
  restart_on_eintr (fun () -> Unix.fsync t.fd);
  t.unsynced <- 0;
  t.fsyncs <- t.fsyncs + 1

let sync t = if not t.closed then do_fsync t

let append t payload =
  if t.closed then invalid_arg "Journal.append: closed journal";
  if String.length payload > t.cfg.max_record - 8 then
    invalid_arg
      (Printf.sprintf "Journal.append: %d-byte record exceeds max_record %d"
         (String.length payload) t.cfg.max_record);
  let lsn = t.lsn + 1 in
  let body = Bytes.create (8 + String.length payload) in
  put_u64_be body 0 lsn;
  Bytes.blit_string payload 0 body 8 (String.length payload);
  let record = frame (Bytes.to_string body) in
  if Failpoint.fire "journal.append" then begin
    (* Chaos hook: die mid-write, leaving a torn record on disk — the
       exact crash [open_]'s torn-tail truncation exists for. *)
    let torn = max 1 (Bytes.length record / 2) in
    write_all t.fd record 0 torn;
    (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
    Unix.kill (Unix.getpid ()) Sys.sigkill
  end;
  write_all t.fd record 0 (Bytes.length record);
  t.lsn <- lsn;
  t.appends <- t.appends + 1;
  t.appended_bytes <- t.appended_bytes + Bytes.length record;
  t.unsynced <- t.unsynced + 1;
  Tdf_telemetry.incr "journal.appends";
  (match t.cfg.fsync with
  | Always -> do_fsync t
  | Every n -> if t.unsynced >= n then do_fsync t
  | Never -> ());
  lsn

let last_lsn t = t.lsn

(* ---- snapshots / compaction ------------------------------------------ *)

let save_snapshot t ~session blob =
  if t.closed then invalid_arg "Journal.save_snapshot: closed journal";
  let payload = encode_snapshot ~session ~lsn:t.lsn blob in
  let record = frame payload in
  let final = snap_path t.cfg session in
  let tmp = final ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_all fd record 0 (Bytes.length record);
      restart_on_eintr (fun () -> Unix.fsync fd));
  Unix.rename tmp final;
  if not (List.mem session t.snap_sessions) then
    t.snap_sessions <- session :: t.snap_sessions;
  t.snapshots_written <- t.snapshots_written + 1;
  Tdf_telemetry.incr "journal.snapshots"

let delete_snapshot t ~session =
  (try Sys.remove (snap_path t.cfg session) with Sys_error _ -> ());
  t.snap_sessions <- List.filter (fun s -> s <> session) t.snap_sessions

let snapshot_sessions t = List.sort compare t.snap_sessions

let compact t =
  if t.closed then invalid_arg "Journal.compact: closed journal";
  Unix.ftruncate t.fd 0;
  ignore (Unix.lseek t.fd 0 Unix.SEEK_SET);
  do_fsync t;
  t.compactions <- t.compactions + 1;
  Tdf_telemetry.incr "journal.compactions"

let stats t =
  {
    appends = t.appends;
    appended_bytes = t.appended_bytes;
    fsyncs = t.fsyncs;
    snapshots_written = t.snapshots_written;
    compactions = t.compactions;
  }

let close t =
  if not t.closed then begin
    (try do_fsync t with Unix.Unix_error _ -> ());
    (try Unix.close t.fd with Unix.Unix_error _ -> ());
    t.closed <- true
  end
