module Json = Tdf_telemetry.Json

type source = Path of string | Text of string

(* The [tiles] fields are round-tripped but never acted on: the flow pass
   is no longer sharded, and they stay only because the performance
   ledger (bench/ledger) still builds requests with them. *)
type request =
  | Load_design of {
      session : string;
      design : source;
      placement : source option;
      tiles : int option;
    }
  | Legalize of {
      session : string;
      budget_ms : int option;
      jobs : int option;
      tiles : int option;
      want_placement : bool;
    }
  | Eco of {
      session : string;
      delta : source;
      radius : int option;
      max_widenings : int option;
      budget_ms : int option;
      jobs : int option;
      tiles : int option;
      want_placement : bool;
    }
  | Get_placement of { session : string }
  | Stats
  | Ping
  | Shutdown

let request_kind = function
  | Load_design _ -> "load-design"
  | Legalize _ -> "legalize"
  | Eco _ -> "eco"
  | Get_placement _ -> "get-placement"
  | Stats -> "stats"
  | Ping -> "ping"
  | Shutdown -> "shutdown"

(* Reads carry no state and [Load_design] is a full-state put (applying
   it twice equals applying it once), so a blind re-send cannot change
   the outcome.  [Legalize] and [Eco] advance session state from
   wherever it currently is — and the server journals and applies them
   before replying — so a lost reply leaves their effect unknown and a
   re-send could apply them twice. *)
let request_resend_safe = function
  | Load_design _ | Get_placement _ | Stats | Ping | Shutdown -> true
  | Legalize _ | Eco _ -> false

type err = { code : string; detail : string }

type reply =
  | Loaded of { session : string; n_cells : int; n_nets : int; legal : bool }
  | Legalized of {
      session : string;
      legal : bool;
      path : string;
      wall_s : float;
      placement : string option;
    }
  | Eco_applied of {
      session : string;
      legal : bool;
      path : string;
      dirty_bins : int;
      total_bins : int;
      widenings : int;
      fallbacks : int;
      grid_reused : bool;
      wall_s : float;
      placement : string option;
    }
  | Placement_text of { session : string; placement : string }
  | Stats_snapshot of Json.t
  | Pong
  | Shutting_down

type response = (reply, err) result

let error ~code detail = Error { code; detail }

(* ---- encoding ------------------------------------------------------ *)

let opt name f = function None -> [] | Some v -> [ (name, f v) ]

let source_fields ~path_key ~text_key = function
  | Path p -> [ (path_key, Json.String p) ]
  | Text t -> [ (text_key, Json.String t) ]

let request_to_json = function
  | Load_design { session; design; placement; tiles } ->
    Json.Obj
      ([
         ("req", Json.String "load-design"); ("session", Json.String session);
       ]
      @ source_fields ~path_key:"design_path" ~text_key:"design_text" design
      @ Option.fold ~none:[]
          ~some:
            (source_fields ~path_key:"placement_path"
               ~text_key:"placement_text")
          placement
      @ opt "tiles" (fun v -> Json.Int v) tiles)
  | Legalize { session; budget_ms; jobs; tiles; want_placement } ->
    Json.Obj
      ([ ("req", Json.String "legalize"); ("session", Json.String session) ]
      @ opt "budget_ms" (fun v -> Json.Int v) budget_ms
      @ opt "jobs" (fun v -> Json.Int v) jobs
      @ opt "tiles" (fun v -> Json.Int v) tiles
      @ if want_placement then [ ("placement", Json.Bool true) ] else [])
  | Eco
      {
        session;
        delta;
        radius;
        max_widenings;
        budget_ms;
        jobs;
        tiles;
        want_placement;
      } ->
    Json.Obj
      ([ ("req", Json.String "eco"); ("session", Json.String session) ]
      @ source_fields ~path_key:"delta_path" ~text_key:"delta" delta
      @ opt "radius" (fun v -> Json.Int v) radius
      @ opt "max_widenings" (fun v -> Json.Int v) max_widenings
      @ opt "budget_ms" (fun v -> Json.Int v) budget_ms
      @ opt "jobs" (fun v -> Json.Int v) jobs
      @ opt "tiles" (fun v -> Json.Int v) tiles
      @ if want_placement then [ ("placement", Json.Bool true) ] else [])
  | Get_placement { session } ->
    Json.Obj
      [ ("req", Json.String "get-placement"); ("session", Json.String session) ]
  | Stats -> Json.Obj [ ("req", Json.String "stats") ]
  | Ping -> Json.Obj [ ("req", Json.String "ping") ]
  | Shutdown -> Json.Obj [ ("req", Json.String "shutdown") ]

(* ---- request decoding ---------------------------------------------- *)

exception Bad of err

let bad code fmt =
  Format.kasprintf (fun detail -> raise (Bad { code; detail })) fmt

let str_field name j =
  match Option.bind (Json.member name j) Json.to_str with
  | Some s -> s
  | None -> bad "bad-request" "missing string field %S" name

let opt_int name j =
  match Json.member name j with
  | None -> None
  | Some v -> (
    match Json.to_int v with
    | Some n -> Some n
    | None -> bad "bad-request" "field %S must be an integer" name)

let opt_bool name j =
  match Json.member name j with
  | None | Some Json.Null -> false
  | Some (Json.Bool b) -> b
  | Some _ -> bad "bad-request" "field %S must be a boolean" name

let opt_source ~path_key ~text_key j =
  match (Json.member path_key j, Json.member text_key j) with
  | Some _, Some _ ->
    bad "bad-request" "fields %S and %S are mutually exclusive" path_key
      text_key
  | Some v, None -> (
    match Json.to_str v with
    | Some p -> Some (Path p)
    | None -> bad "bad-request" "field %S must be a string" path_key)
  | None, Some v -> (
    match Json.to_str v with
    | Some t -> Some (Text t)
    | None -> bad "bad-request" "field %S must be a string" text_key)
  | None, None -> None

let req_source ~path_key ~text_key j =
  match opt_source ~path_key ~text_key j with
  | Some s -> s
  | None -> bad "bad-request" "need field %S or %S" path_key text_key

let request_of_json j =
  try
    match j with
    | Json.Obj _ -> (
      let session () = str_field "session" j in
      match str_field "req" j with
      | "load-design" ->
        Ok
          (Load_design
             {
               session = session ();
               design =
                 req_source ~path_key:"design_path" ~text_key:"design_text" j;
               placement =
                 opt_source ~path_key:"placement_path"
                   ~text_key:"placement_text" j;
               tiles = opt_int "tiles" j;
             })
      | "legalize" ->
        Ok
          (Legalize
             {
               session = session ();
               budget_ms = opt_int "budget_ms" j;
               jobs = opt_int "jobs" j;
               tiles = opt_int "tiles" j;
               want_placement = opt_bool "placement" j;
             })
      | "eco" ->
        Ok
          (Eco
             {
               session = session ();
               delta = req_source ~path_key:"delta_path" ~text_key:"delta" j;
               radius = opt_int "radius" j;
               max_widenings = opt_int "max_widenings" j;
               budget_ms = opt_int "budget_ms" j;
               jobs = opt_int "jobs" j;
               tiles = opt_int "tiles" j;
               want_placement = opt_bool "placement" j;
             })
      | "get-placement" -> Ok (Get_placement { session = session () })
      | "stats" -> Ok Stats
      | "ping" -> Ok Ping
      | "shutdown" -> Ok Shutdown
      | kind -> Error { code = "unknown-request"; detail = kind })
    | _ -> Error { code = "bad-request"; detail = "request must be an object" }
  with Bad e -> Error e

let request_of_string s =
  match Json.of_string s with
  | Error e -> Error { code = "bad-json"; detail = e }
  | Ok j -> request_of_json j

let request_to_string r = Json.to_string (request_to_json r)

(* ---- response encoding --------------------------------------------- *)

let response_to_json = function
  | Error { code; detail } ->
    Json.Obj
      [
        ("ok", Json.Bool false);
        ( "error",
          Json.Obj
            [ ("code", Json.String code); ("detail", Json.String detail) ] );
      ]
  | Ok reply ->
    let fields =
      match reply with
      | Loaded { session; n_cells; n_nets; legal } ->
        [
          ("reply", Json.String "loaded");
          ("session", Json.String session);
          ("n_cells", Json.Int n_cells);
          ("n_nets", Json.Int n_nets);
          ("legal", Json.Bool legal);
        ]
      | Legalized { session; legal; path; wall_s; placement } ->
        [
          ("reply", Json.String "legalized");
          ("session", Json.String session);
          ("legal", Json.Bool legal);
          ("path", Json.String path);
          ("wall_s", Json.Float wall_s);
        ]
        @ opt "placement" (fun p -> Json.String p) placement
      | Eco_applied
          {
            session;
            legal;
            path;
            dirty_bins;
            total_bins;
            widenings;
            fallbacks;
            grid_reused;
            wall_s;
            placement;
          } ->
        [
          ("reply", Json.String "eco");
          ("session", Json.String session);
          ("legal", Json.Bool legal);
          ("path", Json.String path);
          ("dirty_bins", Json.Int dirty_bins);
          ("total_bins", Json.Int total_bins);
          ("widenings", Json.Int widenings);
          ("fallbacks", Json.Int fallbacks);
          ("grid_reused", Json.Bool grid_reused);
          ("wall_s", Json.Float wall_s);
        ]
        @ opt "placement" (fun p -> Json.String p) placement
      | Placement_text { session; placement } ->
        [
          ("reply", Json.String "placement");
          ("session", Json.String session);
          ("placement", Json.String placement);
        ]
      | Stats_snapshot j -> [ ("reply", Json.String "stats"); ("stats", j) ]
      | Pong -> [ ("reply", Json.String "pong") ]
      | Shutting_down -> [ ("reply", Json.String "shutting-down") ]
    in
    Json.Obj (("ok", Json.Bool true) :: fields)

(* ---- response decoding --------------------------------------------- *)

exception Shape of string

let shape fmt = Format.kasprintf (fun s -> raise (Shape s)) fmt

let rstr name j =
  match Option.bind (Json.member name j) Json.to_str with
  | Some s -> s
  | None -> shape "response missing string field %S" name

let rint name j =
  match Option.bind (Json.member name j) Json.to_int with
  | Some n -> n
  | None -> shape "response missing integer field %S" name

let rbool name j =
  match Json.member name j with
  | Some (Json.Bool b) -> b
  | _ -> shape "response missing boolean field %S" name

let rfloat name j =
  match Option.bind (Json.member name j) Json.to_float with
  | Some f -> f
  | None -> shape "response missing numeric field %S" name

let ostr name j = Option.bind (Json.member name j) Json.to_str

let response_of_json j =
  try
    match Json.member "ok" j with
    | Some (Json.Bool false) ->
      let e =
        match Json.member "error" j with
        | Some e -> e
        | None -> shape "error response without \"error\" object"
      in
      Ok (Error { code = rstr "code" e; detail = rstr "detail" e })
    | Some (Json.Bool true) ->
      let reply =
        match rstr "reply" j with
        | "loaded" ->
          Loaded
            {
              session = rstr "session" j;
              n_cells = rint "n_cells" j;
              n_nets = rint "n_nets" j;
              legal = rbool "legal" j;
            }
        | "legalized" ->
          Legalized
            {
              session = rstr "session" j;
              legal = rbool "legal" j;
              path = rstr "path" j;
              wall_s = rfloat "wall_s" j;
              placement = ostr "placement" j;
            }
        | "eco" ->
          Eco_applied
            {
              session = rstr "session" j;
              legal = rbool "legal" j;
              path = rstr "path" j;
              dirty_bins = rint "dirty_bins" j;
              total_bins = rint "total_bins" j;
              widenings = rint "widenings" j;
              fallbacks = rint "fallbacks" j;
              grid_reused = rbool "grid_reused" j;
              wall_s = rfloat "wall_s" j;
              placement = ostr "placement" j;
            }
        | "placement" ->
          Placement_text
            { session = rstr "session" j; placement = rstr "placement" j }
        | "stats" ->
          Stats_snapshot
            (match Json.member "stats" j with
            | Some s -> s
            | None -> shape "stats response without \"stats\" field")
        | "pong" -> Pong
        | "shutting-down" -> Shutting_down
        | kind -> shape "unknown reply kind %S" kind
      in
      Ok (Ok reply)
    | _ -> Error "response is not an object with an \"ok\" boolean"
  with Shape msg -> Error msg

let response_of_string s =
  match Json.of_string s with
  | Error e -> Error ("response is not JSON: " ^ e)
  | Ok j -> response_of_json j

let response_to_string r = Json.to_string (response_to_json r)
