module Stats = Tdf_util.Stats

(* Growable float series (OCaml 5.1 has no Dynarray). *)
type series = { mutable data : float array; mutable len : int }

let series_create () = { data = Array.make 16 0.; len = 0 }

let series_push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let series_to_array s = Array.sub s.data 0 s.len

type t = {
  spans : (string, series) Hashtbl.t;  (* durations, ns *)
  counters : (string, int ref) Hashtbl.t;
  observations : (string, series) Hashtbl.t;
}

let create () =
  {
    spans = Hashtbl.create 32;
    counters = Hashtbl.create 32;
    observations = Hashtbl.create 16;
  }

let find_series tbl name =
  match Hashtbl.find_opt tbl name with
  | Some s -> s
  | None ->
    let s = series_create () in
    Hashtbl.add tbl name s;
    s

let sink t : Core.sink = function
  | Core.Span { name; dur_ns; _ } ->
    series_push (find_series t.spans name) (Int64.to_float dur_ns)
  | Core.Count { name; value } -> (
    match Hashtbl.find_opt t.counters name with
    | Some r -> r := !r + value
    | None -> Hashtbl.add t.counters name (ref value))
  | Core.Observe { name; value } ->
    series_push (find_series t.observations name) value

(* ---- queries ------------------------------------------------------- *)

let span_count t name =
  match Hashtbl.find_opt t.spans name with Some s -> s.len | None -> 0

let counter_total t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let span_names t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.spans [])

let counter_names t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.counters [])

let observation_names t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.observations [])

(* ---- rendering ----------------------------------------------------- *)

type span_row = {
  count : int;
  total_ms : float;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

let span_row t name =
  let xs = series_to_array (find_series t.spans name) in
  let s = Stats.summarize xs in
  {
    count = s.Stats.count;
    total_ms = s.Stats.total /. 1e6;
    mean_ms = s.Stats.mean /. 1e6;
    p50_ms = Stats.percentile xs 50. /. 1e6;
    p95_ms = Stats.percentile xs 95. /. 1e6;
    p99_ms = Stats.percentile xs 99. /. 1e6;
  }

let render t =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let spans = span_names t in
  if spans <> [] then begin
    out "%-34s %8s %11s %10s %10s %10s %10s\n" "span" "count" "total(ms)"
      "mean(ms)" "p50(ms)" "p95(ms)" "p99(ms)";
    (* heaviest first: that is what a perf reader scans for *)
    let rows = List.map (fun n -> (n, span_row t n)) spans in
    let rows =
      List.sort (fun (_, a) (_, b) -> compare b.total_ms a.total_ms) rows
    in
    List.iter
      (fun (n, r) ->
        out "%-34s %8d %11.2f %10.4f %10.4f %10.4f %10.4f\n" n r.count
          r.total_ms r.mean_ms r.p50_ms r.p95_ms r.p99_ms)
      rows
  end;
  let counters = counter_names t in
  if counters <> [] then begin
    if spans <> [] then out "\n";
    out "%-34s %16s\n" "counter" "total";
    List.iter (fun n -> out "%-34s %16d\n" n (counter_total t n)) counters
  end;
  let obs = observation_names t in
  if obs <> [] then begin
    out "\n%-34s %8s %12s %12s %12s %12s\n" "histogram" "count" "mean" "p50"
      "p95" "p99";
    List.iter
      (fun n ->
        let xs = series_to_array (find_series t.observations n) in
        let s = Stats.summarize xs in
        out "%-34s %8d %12.4f %12.4f %12.4f %12.4f\n" n s.Stats.count
          s.Stats.mean
          (Stats.percentile xs 50.)
          (Stats.percentile xs 95.)
          (Stats.percentile xs 99.))
      obs
  end;
  Buffer.contents buf

let to_json t =
  let span_json n =
    let r = span_row t n in
    ( n,
      Json.Obj
        [
          ("count", Json.Int r.count);
          ("total_ms", Json.Float r.total_ms);
          ("mean_ms", Json.Float r.mean_ms);
          ("p50_ms", Json.Float r.p50_ms);
          ("p95_ms", Json.Float r.p95_ms);
          ("p99_ms", Json.Float r.p99_ms);
        ] )
  in
  let obs_json n =
    let xs = series_to_array (find_series t.observations n) in
    let s = Stats.summarize xs in
    ( n,
      Json.Obj
        [
          ("count", Json.Int s.Stats.count);
          ("mean", Json.Float s.Stats.mean);
          ("p50", Json.Float (Stats.percentile xs 50.));
          ("p95", Json.Float (Stats.percentile xs 95.));
          ("p99", Json.Float (Stats.percentile xs 99.));
          ("total", Json.Float s.Stats.total);
        ] )
  in
  Json.Obj
    [
      ("spans", Json.Obj (List.map span_json (span_names t)));
      ( "counters",
        Json.Obj
          (List.map (fun n -> (n, Json.Int (counter_total t n))) (counter_names t))
      );
      ("histograms", Json.Obj (List.map obs_json (observation_names t)));
    ]
