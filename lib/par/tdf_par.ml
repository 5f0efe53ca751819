(* Library root: deterministic multicore execution for tdflow's
   experiments grid.

   [Pool] is the mechanism; this module owns the process-wide default pool
   whose size comes from the CLI ([set_jobs], wired to `compare --jobs`
   and the bench suites) or the TDFLOW_JOBS environment variable,
   defaulting to 1 — parallelism is strictly opt-in, and the grid's
   output is bit-identical to the sequential one (see pool.mli for the
   determinism contract). *)

module Pool = Pool

let clamp n = max 1 (min n 64)

let env_jobs () =
  match Sys.getenv_opt "TDFLOW_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some (clamp n)
    | _ -> None)
  | None -> None

let requested : int option ref = ref None

let current : Pool.t option ref = ref None

let at_exit_registered = ref false

let jobs () =
  match !requested with
  | Some n -> n
  | None -> Option.value (env_jobs ()) ~default:1

let shutdown () =
  match !current with
  | Some p ->
    current := None;
    Pool.shutdown p
  | None -> ()

let set_jobs n =
  let n = clamp n in
  requested := Some n;
  match !current with
  | Some p when Pool.size p <> n -> shutdown ()
  | _ -> ()

let get () =
  match !current with
  | Some p -> p
  | None ->
    let p = Pool.create (jobs ()) in
    current := Some p;
    (* Join the workers before the runtime tears down; registered once. *)
    if not !at_exit_registered then begin
      at_exit_registered := true;
      at_exit shutdown
    end;
    p

(* The one convenience on the default pool: the experiments grid's
   fan-out. *)

let map_array f arr = Pool.map_array (get ()) f arr
