type task_failure = {
  tf_index : int;
  tf_exn : exn;
  tf_bt : Printexc.raw_backtrace;
}

(* One submission.  [next] hands out task indices; [finished] counts tasks
   that completed (successfully or not), so the submitter can wait for the
   last task rather than the last *claimed* index.  The first failure (in
   claim order) wins; later ones are dropped. *)
type job = {
  jn : int;
  jrun : int -> unit;
  jnext : int Atomic.t;
  jfinished : int Atomic.t;
  mutable jfail : task_failure option;  (* guarded by the pool mutex *)
}

type t = {
  psize : int;
  mutex : Mutex.t;
  work : Condition.t;  (* a new job was posted / shutdown *)
  idle : Condition.t;  (* the current job's last task finished *)
  mutable epoch : int;  (* bumped per posted job, guarded by [mutex] *)
  mutable job : job option;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

(* True while this domain executes a pool task.  Makes nested submissions
   (a grid task that itself submits to the pool) run inline instead of
   re-entering the pool and deadlocking against the outer job. *)
let in_task_key = Domain.DLS.new_key (fun () -> false)

let in_task () = Domain.DLS.get in_task_key

let size p = p.psize

let drain pool job =
  let rec go () =
    let i = Atomic.fetch_and_add job.jnext 1 in
    if i < job.jn then begin
      (try job.jrun i
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock pool.mutex;
         if job.jfail = None then
           job.jfail <- Some { tf_index = i; tf_exn = e; tf_bt = bt };
         Mutex.unlock pool.mutex);
      if 1 + Atomic.fetch_and_add job.jfinished 1 = job.jn then begin
        (* Last task overall: wake the submitter (which may or may not be
           waiting yet — it re-checks the count under the mutex). *)
        Mutex.lock pool.mutex;
        Condition.broadcast pool.idle;
        Mutex.unlock pool.mutex
      end;
      go ()
    end
  in
  go ()

let worker pool =
  Domain.DLS.set in_task_key true;
  let last = ref 0 in
  let rec loop () =
    Mutex.lock pool.mutex;
    while pool.epoch = !last && not pool.stop do
      Condition.wait pool.work pool.mutex
    done;
    if pool.stop then Mutex.unlock pool.mutex
    else begin
      last := pool.epoch;
      let job = pool.job in
      Mutex.unlock pool.mutex;
      (match job with Some j -> drain pool j | None -> ());
      loop ()
    end
  in
  loop ()

let create n =
  let n = max 1 (min n 64) in
  let pool =
    {
      psize = n;
      mutex = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      epoch = 0;
      job = None;
      stop = false;
      workers = [];
    }
  in
  if n > 1 then
    pool.workers <-
      List.init (n - 1) (fun _ -> Domain.spawn (fun () -> worker pool));
  pool

let shutdown pool =
  Mutex.lock pool.mutex;
  let ws = pool.workers in
  pool.stop <- true;
  pool.workers <- [];
  Condition.broadcast pool.work;
  Mutex.unlock pool.mutex;
  List.iter Domain.join ws

let sequential n task =
  for i = 0 to n - 1 do
    task i
  done

let run pool ~n task =
  if n <= 0 then ()
  else if pool.psize = 1 || n = 1 || pool.stop || in_task () then
    sequential n task
  else begin
    (* Capture each task's telemetry privately and replay in submission
       order after the join: sinks see one deterministic, scheduling-
       independent stream, emitted from the submitting domain only. *)
    let capture = Tdf_telemetry.enabled () in
    let buffers = if capture then Array.make n [] else [||] in
    let wrapped =
      if capture then fun i ->
        let (), evs = Tdf_telemetry.capture (fun () -> task i) in
        buffers.(i) <- evs
      else task
    in
    let job =
      {
        jn = n;
        jrun = wrapped;
        jnext = Atomic.make 0;
        jfinished = Atomic.make 0;
        jfail = None;
      }
    in
    Mutex.lock pool.mutex;
    pool.job <- Some job;
    pool.epoch <- pool.epoch + 1;
    Condition.broadcast pool.work;
    Mutex.unlock pool.mutex;
    (* The submitting domain participates as a worker. *)
    Domain.DLS.set in_task_key true;
    Fun.protect
      (fun () -> drain pool job)
      ~finally:(fun () -> Domain.DLS.set in_task_key false);
    Mutex.lock pool.mutex;
    while Atomic.get job.jfinished < job.jn do
      Condition.wait pool.idle pool.mutex
    done;
    pool.job <- None;
    Mutex.unlock pool.mutex;
    if capture then Array.iter Tdf_telemetry.replay buffers;
    match job.jfail with
    | Some f -> Printexc.raise_with_backtrace f.tf_exn f.tf_bt
    | None -> ()
  end

let map_array pool f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    run pool ~n (fun i -> out.(i) <- Some (f arr.(i)));
    Array.map (function Some v -> v | None -> assert false) out
  end
