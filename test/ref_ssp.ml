(* Reference solver for the differential tests: a verbatim copy of the
   seed successive-shortest-paths implementation (growable boxed-record
   adjacency, float-keyed polymorphic heap), kept only under test/ so the
   CSR solver in [Tdf_flow.Mcmf] can be checked for exact (flow, cost)
   equality against the pre-refactor engine.  Telemetry, budgets and
   failpoints are stripped; the algorithm is untouched. *)

type edge = { dst : int; mutable cap : int; cost : int; rev : int }

type t = {
  n : int;
  adj : edge array ref array;  (* adjacency as growable arrays *)
  mutable sizes : int array;
}

let create n =
  { n; adj = Array.init n (fun _ -> ref [||]); sizes = Array.make n 0 }

let push_edge t v e =
  let arr = t.adj.(v) in
  let sz = t.sizes.(v) in
  if sz = Array.length !arr then begin
    let narr = Array.make (max 4 (2 * sz)) e in
    Array.blit !arr 0 narr 0 sz;
    arr := narr
  end;
  !arr.(sz) <- e;
  t.sizes.(v) <- sz + 1

let add_edge t ~src ~dst ~cap ~cost =
  assert (cap >= 0);
  let fwd_idx = t.sizes.(src) in
  let rev_idx = t.sizes.(dst) + if src = dst then 1 else 0 in
  push_edge t src { dst; cap; cost; rev = rev_idx };
  push_edge t dst { dst = src; cap = 0; cost = -cost; rev = fwd_idx };
  (src * 0x40000000) + fwd_idx

let edge_at t v i = !(t.adj.(v)).(i)

let bellman_ford t source dist =
  Array.fill dist 0 t.n max_int;
  dist.(source) <- 0;
  let changed = ref true in
  let iters = ref 0 in
  while !changed && !iters <= t.n do
    changed := false;
    incr iters;
    for v = 0 to t.n - 1 do
      if dist.(v) < max_int then
        for i = 0 to t.sizes.(v) - 1 do
          let e = edge_at t v i in
          if e.cap > 0 && dist.(v) + e.cost < dist.(e.dst) then begin
            dist.(e.dst) <- dist.(v) + e.cost;
            changed := true
          end
        done
    done
  done;
  if !iters > t.n then Error () else Ok ()

exception Negative_cycle

(* The seed [solve] minus telemetry/budget/failpoints: returns the exact
   (flow, cost) of the successive-shortest-path optimum, raising
   [Negative_cycle] where the seed returned [Error _]. *)
let min_cost_flow t ~source ~sink ?(max_flow = max_int) () =
  let potential = Array.make t.n 0 in
  let has_negative =
    Array.exists
      (fun (arr : edge array ref) ->
        Array.exists (fun e -> e.cap > 0 && e.cost < 0) !arr)
      t.adj
  in
  if has_negative then begin
    let dist = Array.make t.n max_int in
    match bellman_ford t source dist with
    | Error () -> raise Negative_cycle
    | Ok () ->
      for v = 0 to t.n - 1 do
        potential.(v) <- (if dist.(v) = max_int then 0 else dist.(v))
      done
  end;
  let dist = Array.make t.n max_int in
  let prev_v = Array.make t.n (-1) in
  let prev_e = Array.make t.n (-1) in
  let total_flow = ref 0 and total_cost = ref 0 in
  let continue = ref true in
  while !continue && !total_flow < max_flow do
    Array.fill dist 0 t.n max_int;
    dist.(source) <- 0;
    let heap = Heap.create () in
    Heap.add heap ~key:0. source;
    let rec run () =
      match Heap.pop heap with
      | None -> ()
      | Some (d, v) ->
        let d = int_of_float d in
        if d <= dist.(v) then begin
          for i = 0 to t.sizes.(v) - 1 do
            let e = edge_at t v i in
            if e.cap > 0 then begin
              let nd = dist.(v) + e.cost + potential.(v) - potential.(e.dst) in
              if nd < dist.(e.dst) then begin
                dist.(e.dst) <- nd;
                prev_v.(e.dst) <- v;
                prev_e.(e.dst) <- i;
                Heap.add heap ~key:(float_of_int nd) e.dst
              end
            end
          done
        end;
        run ()
    in
    run ();
    if dist.(sink) = max_int then continue := false
    else begin
      for v = 0 to t.n - 1 do
        if dist.(v) < max_int then potential.(v) <- potential.(v) + dist.(v)
      done;
      let rec bottleneck v acc =
        if v = source then acc
        else begin
          let e = edge_at t prev_v.(v) prev_e.(v) in
          bottleneck prev_v.(v) (min acc e.cap)
        end
      in
      let push = min (bottleneck sink max_int) (max_flow - !total_flow) in
      let rec apply v =
        if v <> source then begin
          let e = edge_at t prev_v.(v) prev_e.(v) in
          e.cap <- e.cap - push;
          let r = edge_at t v e.rev in
          r.cap <- r.cap + push;
          total_cost := !total_cost + (push * e.cost);
          apply prev_v.(v)
        end
      in
      apply sink;
      total_flow := !total_flow + push
    end
  done;
  (!total_flow, !total_cost)
