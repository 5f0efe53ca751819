(* [ops]/[stopped] are Atomics so one budget can be shared by the worker
   domains of a parallel phase: any worker (or the coordinating domain)
   exhausting the budget is promptly visible to every other worker, giving
   cooperative cross-domain cancellation.  The latch stays monotone — once
   stopped, always stopped — so concurrent updates cannot un-exhaust it. *)
type t = {
  deadline_ns : int64 option;  (* absolute monotonic deadline *)
  max_ops : int option;
  ops : int Atomic.t;
  stopped : bool Atomic.t;  (* latched exhaustion *)
  limited : bool;
}

let unlimited =
  {
    deadline_ns = None;
    max_ops = None;
    ops = Atomic.make 0;
    stopped = Atomic.make false;
    limited = false;
  }

let create ?wall_ms ?max_ops () =
  let deadline_ns =
    Option.map
      (fun ms -> Int64.add (Timer.now_ns ()) (Int64.of_int (ms * 1_000_000)))
      wall_ms
  in
  {
    deadline_ns;
    max_ops;
    ops = Atomic.make 0;
    stopped = Atomic.make false;
    limited = wall_ms <> None || max_ops <> None;
  }

let tick b n = if b.limited then ignore (Atomic.fetch_and_add b.ops n)

(* The shared [unlimited] value must never latch: a fault-injected timeout
   reaching a solver that was handed the default budget would otherwise
   poison every later call in the process. *)
let exhaust b = if b != unlimited then Atomic.set b.stopped true

let exhausted b =
  if not b.limited then Atomic.get b.stopped
  else if Atomic.get b.stopped then true
  else begin
    let over_ops =
      match b.max_ops with Some m -> Atomic.get b.ops >= m | None -> false
    in
    let over_clock =
      match b.deadline_ns with
      | Some d -> Int64.compare (Timer.now_ns ()) d >= 0
      | None -> false
    in
    if over_ops || over_clock then Atomic.set b.stopped true;
    Atomic.get b.stopped
  end
