module Timer = Tdf_util.Timer

(* Chrome trace-event exporter (the JSON-array flavour), loadable in
   Perfetto / chrome://tracing.  Spans become complete ("X") events;
   counters become cumulative counter ("C") tracks; observations become a
   value track.  Counter/observe events carry no timestamp of their own, so
   the sink stamps them on arrival. *)

type entry = { ev : Core.event; at_ns : int64 }

type t = { mutable entries : entry list (* newest first *) }

let create () = { entries = [] }

let sink t : Core.sink =
 fun ev -> t.entries <- { ev; at_ns = Timer.now_ns () } :: t.entries

let to_json t =
  let entries = List.rev t.entries in
  (* Rebase timestamps so the trace starts at ~0 µs regardless of the
     monotonic clock origin. *)
  let base =
    List.fold_left
      (fun acc e ->
        let ts =
          match e.ev with Core.Span { start_ns; _ } -> start_ns | _ -> e.at_ns
        in
        if Int64.compare ts acc < 0 then ts else acc)
      Int64.max_int entries
  in
  let base = if base = Int64.max_int then 0L else base in
  let us ns = Int64.to_float (Int64.sub ns base) /. 1e3 in
  let cum : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let events =
    List.filter_map
      (fun e ->
        match e.ev with
        | Core.Span { name; start_ns; dur_ns; _ } ->
          Some
            (Json.Obj
               [
                 ("name", Json.String name);
                 ("cat", Json.String "tdflow");
                 ("ph", Json.String "X");
                 ("ts", Json.Float (us start_ns));
                 ("dur", Json.Float (Int64.to_float dur_ns /. 1e3));
                 ("pid", Json.Int 1);
                 ("tid", Json.Int 1);
               ])
        | Core.Count { name; value } ->
          let v = (try Hashtbl.find cum name with Not_found -> 0) + value in
          Hashtbl.replace cum name v;
          Some
            (Json.Obj
               [
                 ("name", Json.String name);
                 ("cat", Json.String "tdflow");
                 ("ph", Json.String "C");
                 ("ts", Json.Float (us e.at_ns));
                 ("pid", Json.Int 1);
                 ("args", Json.Obj [ ("value", Json.Int v) ]);
               ])
        | Core.Observe { name; value } ->
          Some
            (Json.Obj
               [
                 ("name", Json.String name);
                 ("cat", Json.String "tdflow");
                 ("ph", Json.String "C");
                 ("ts", Json.Float (us e.at_ns));
                 ("pid", Json.Int 1);
                 ("args", Json.Obj [ ("value", Json.Float value) ]);
               ]))
      entries
  in
  let meta =
    Json.Obj
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("args", Json.Obj [ ("name", Json.String "tdflow") ]);
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta :: events));
      ("displayTimeUnit", Json.String "ms");
    ]

let to_string t = Json.to_string (to_json t)

let save t path =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc
