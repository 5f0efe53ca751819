(** Typed requests and responses of the [tdflow serve] protocol, with
    their JSON encoding.

    One frame ({!Frame}) carries one JSON document.  Requests are objects
    dispatched on a ["req"] field; responses are objects with an ["ok"]
    boolean and either the reply fields or an ["error"] object carrying a
    stable machine-readable [code] plus a human-readable [detail].

    Request grammar (fields marked [?] optional):

    {v
    {"req":"load-design","session":S,
     "design_path":P | "design_text":T,
     "placement_path":P? | "placement_text":T?,"tiles":N?}
    {"req":"legalize","session":S,"budget_ms":N?,"jobs":N?,"tiles":N?,
     "placement":B?}
    {"req":"eco","session":S,"delta":T | "delta_path":P,
     "radius":N?,"max_widenings":N?,"budget_ms":N?,"jobs":N?,"tiles":N?,
     "placement":B?}
    {"req":"get-placement","session":S}
    {"req":"stats"}
    {"req":"ping"}
    {"req":"shutdown"}
    v}

    The ["tiles"] key is accepted and ignored (see the [tiles] fields
    below).

    Placements travel as the exact text of {!Text.placement_to_string}, so
    a server response is byte-comparable with what the one-shot CLI writes
    to disk — the frozen-cell guarantee of the incremental engine survives
    the wire. *)

type source =
  | Path of string  (** server-side file path *)
  | Text of string  (** inline document *)

type request =
  | Load_design of {
      session : string;
      design : source;
      placement : source option;
      tiles : int option;
          (** Accepted and ignored: the flow pass is no longer sharded.
              Kept, and still encoded and decoded, because the
              performance ledger ([bench/ledger]) still sends it. *)
    }
  | Legalize of {
      session : string;
      budget_ms : int option;
      jobs : int option;
      tiles : int option;  (** ignored; kept for [bench/ledger] *)
      want_placement : bool;
    }
  | Eco of {
      session : string;
      delta : source;
      radius : int option;
      max_widenings : int option;
      budget_ms : int option;
      jobs : int option;
      tiles : int option;  (** ignored; kept for [bench/ledger] *)
      want_placement : bool;
    }
  | Get_placement of { session : string }
  | Stats
  | Ping
  | Shutdown

val request_kind : request -> string
(** The ["req"] tag, for logging and telemetry labels. *)

val request_resend_safe : request -> bool
(** Whether a client may blindly re-send this request after its
    connection died with the reply unread.  Reads ([Get_placement],
    [Stats], [Ping]) carry no state, [Shutdown] is idempotent, and
    [Load_design] is a full-state put — applying it twice equals once.
    [Legalize] and [Eco] are [false]: the server journals and applies
    them {e before} replying, so a lost reply means the mutation may
    already be durable and a re-send could apply it a second time. *)

type err = { code : string; detail : string }
(** Stable codes include: ["bad-json"], ["bad-request"],
    ["unknown-request"], ["unknown-session"], ["parse-error"],
    ["invalid-delta"], ["eco-failed"], ["legalize-failed"],
    ["freeze-drift"], ["not-legal"], ["injected"], ["internal"],
    ["overloaded"] (request shed before execution by the server's
    pending-queue bound; safe to retry after a backoff). *)

type reply =
  | Loaded of { session : string; n_cells : int; n_nets : int; legal : bool }
  | Legalized of {
      session : string;
      legal : bool;
      path : string;  (** pipeline path that produced the placement *)
      wall_s : float;
      placement : string option;
    }
  | Eco_applied of {
      session : string;
      legal : bool;
      path : string;  (** [Eco.path_name] of the winning attempt *)
      dirty_bins : int;
      total_bins : int;
      widenings : int;
      fallbacks : int;
      grid_reused : bool;  (** warm grid was reused (cache-hot request) *)
      wall_s : float;
      placement : string option;
    }
  | Placement_text of { session : string; placement : string }
  | Stats_snapshot of Tdf_telemetry.Json.t
  | Pong
  | Shutting_down

type response = (reply, err) result

val error : code:string -> string -> response

val request_to_json : request -> Tdf_telemetry.Json.t

val request_of_json : Tdf_telemetry.Json.t -> (request, err) result

val request_of_string : string -> (request, err) result
(** Parse one frame payload; JSON syntax errors map to ["bad-json"],
    shape errors to ["bad-request"], unknown ["req"] tags to
    ["unknown-request"]. *)

val request_to_string : request -> string

val response_to_json : response -> Tdf_telemetry.Json.t

val response_of_json : Tdf_telemetry.Json.t -> (response, string) result
(** [Error _] when the document is not a response shape at all (client
    side; a malformed server is not recoverable). *)

val response_of_string : string -> (response, string) result

val response_to_string : response -> string
