module Budget = Tdf_util.Budget
module Heap_radix = Tdf_util.Heap_radix

type arc = { a_src : int; a_dst : int; a_cap : int; a_cost : int }

type error = Negative_cycle of arc list

type solution = { flow : int; cost : int; complete : bool }

let error_to_string = function
  | Negative_cycle [] -> "negative cycle detected"
  | Negative_cycle arcs ->
    Printf.sprintf "negative cycle detected (%d arcs still relaxing: %s)"
      (List.length arcs)
      (arcs
      |> List.map (fun a ->
             Printf.sprintf "%d->%d cap %d cost %d" a.a_src a.a_dst a.a_cap
               a.a_cost)
      |> String.concat ", ")

(* ------------------------------------------------------------------ *)
(* Edge staging                                                        *)
(* ------------------------------------------------------------------ *)

module Builder = struct
  type t = {
    n : int;
    mutable m : int;
    mutable e_src : int array;
    mutable e_dst : int array;
    mutable e_cap : int array;
    mutable e_cost : int array;
  }

  let create n =
    {
      n;
      m = 0;
      e_src = Array.make 16 0;
      e_dst = Array.make 16 0;
      e_cap = Array.make 16 0;
      e_cost = Array.make 16 0;
    }

  let grow b =
    let cap = Array.length b.e_src in
    if b.m = cap then begin
      let ncap = 2 * cap in
      let extend a =
        let na = Array.make ncap 0 in
        Array.blit a 0 na 0 b.m;
        na
      in
      b.e_src <- extend b.e_src;
      b.e_dst <- extend b.e_dst;
      b.e_cap <- extend b.e_cap;
      b.e_cost <- extend b.e_cost
    end

  let add_edge b ~src ~dst ~cap ~cost =
    if cap < 0 then invalid_arg "Mcmf.Builder.add_edge: negative capacity";
    if src < 0 || src >= b.n || dst < 0 || dst >= b.n then
      invalid_arg "Mcmf.Builder.add_edge: vertex out of range";
    grow b;
    let k = b.m in
    b.e_src.(k) <- src;
    b.e_dst.(k) <- dst;
    b.e_cap.(k) <- cap;
    b.e_cost.(k) <- cost;
    b.m <- k + 1;
    k
end

(* ------------------------------------------------------------------ *)
(* Frozen CSR residual graph                                           *)
(* ------------------------------------------------------------------ *)

module Csr = struct
  type t = {
    n : int;
    m : int;  (* staged forward edges; the residual graph has 2m arcs *)
    head : int array;  (* n+1 bucket offsets *)
    a_dst : int array;
    a_cap : int array;  (* residual capacities: the only mutable state *)
    a_cost : int array;
    a_rev : int array;  (* csr position of the paired reverse arc *)
    fwd_pos : int array;  (* edge handle -> csr position of its forward arc *)
  }

  (* Arc placement order mirrors the staged add_edge order per bucket
     (forward arc first, then the reverse arc — also for self-loops), so
     relaxation and heap tie-breaking order match the pre-CSR solver
     exactly: frozen graphs produce bit-identical (flow, cost). *)
  let of_builder (b : Builder.t) =
    Tdf_telemetry.span "mcmf.csr_freeze" @@ fun () ->
    let n = b.Builder.n and m = b.Builder.m in
    let na = 2 * m in
    let head = Array.make (n + 1) 0 in
    for k = 0 to m - 1 do
      let s = b.Builder.e_src.(k) and d = b.Builder.e_dst.(k) in
      head.(s + 1) <- head.(s + 1) + 1;
      head.(d + 1) <- head.(d + 1) + 1
    done;
    for v = 0 to n - 1 do
      head.(v + 1) <- head.(v + 1) + head.(v)
    done;
    let next = Array.sub head 0 (max 1 n) in
    let a_dst = Array.make (max 1 na) 0
    and a_cap = Array.make (max 1 na) 0
    and a_cost = Array.make (max 1 na) 0
    and a_rev = Array.make (max 1 na) 0 in
    let fwd_pos = Array.make (max 1 m) 0 in
    for k = 0 to m - 1 do
      let s = b.Builder.e_src.(k) and d = b.Builder.e_dst.(k) in
      let pf = next.(s) in
      next.(s) <- pf + 1;
      let pb = next.(d) in
      next.(d) <- pb + 1;
      a_dst.(pf) <- d;
      a_cap.(pf) <- b.Builder.e_cap.(k);
      a_cost.(pf) <- b.Builder.e_cost.(k);
      a_rev.(pf) <- pb;
      a_dst.(pb) <- s;
      a_cap.(pb) <- 0;
      a_cost.(pb) <- -b.Builder.e_cost.(k);
      a_rev.(pb) <- pf;
      fwd_pos.(k) <- pf
    done;
    { n; m; head; a_dst; a_cap; a_cost; a_rev; fwd_pos }

  let flow_on g handle =
    if handle < 0 || handle >= g.m then
      invalid_arg "Mcmf.Csr.flow_on: bad handle";
    (* flow = capacity currently on the reverse arc *)
    g.a_cap.(g.a_rev.(g.fwd_pos.(handle)))
end

(* ------------------------------------------------------------------ *)
(* Reusable solver scratch                                             *)
(* ------------------------------------------------------------------ *)

module Workspace = struct
  type t = {
    mutable dist : int array;
    mutable prev_v : int array;
    mutable prev_a : int array;
    mutable potential : int array;
    heap : Heap_radix.t;
    (* Blocking-phase scratch: per-vertex arc cursor, DFS path stacks and
       stamp-marked on-path/dead flags.  Stamps grow monotonically across
       the workspace lifetime so reuse needs no O(n) clears. *)
    mutable cur : int array;
    mutable stack_v : int array;
    mutable stack_a : int array;
    mutable onstack : int array;
    mutable dead : int array;
    mutable stamp : int;
    mutable solves : int;
  }

  let create () =
    {
      dist = [||];
      prev_v = [||];
      prev_a = [||];
      potential = [||];
      heap = Heap_radix.create ();
      cur = [||];
      stack_v = [||];
      stack_a = [||];
      onstack = [||];
      dead = [||];
      stamp = 0;
      solves = 0;
    }

  let ensure ws n =
    if Array.length ws.dist < n then begin
      ws.dist <- Array.make n 0;
      ws.prev_v <- Array.make n 0;
      ws.prev_a <- Array.make n 0;
      ws.potential <- Array.make n 0;
      ws.cur <- Array.make n 0;
      ws.stack_v <- Array.make (n + 1) 0;
      ws.stack_a <- Array.make (n + 1) 0;
      ws.onstack <- Array.make n 0;
      ws.dead <- Array.make n 0
    end;
    Heap_radix.clear ws.heap
end

(* ------------------------------------------------------------------ *)
(* Successive shortest paths with blocking phases on the CSR graph     *)
(* ------------------------------------------------------------------ *)

(* Residual arcs that can still relax after Bellman–Ford converged or ran
   out of passes: exactly the arc set witnessing a negative cycle. *)
let relaxable_arcs (g : Csr.t) dist =
  let acc = ref [] in
  for v = 0 to g.Csr.n - 1 do
    if dist.(v) < max_int then
      for p = g.Csr.head.(v) to g.Csr.head.(v + 1) - 1 do
        if g.Csr.a_cap.(p) > 0 && dist.(v) + g.Csr.a_cost.(p) < dist.(g.Csr.a_dst.(p))
        then
          acc :=
            {
              a_src = v;
              a_dst = g.Csr.a_dst.(p);
              a_cap = g.Csr.a_cap.(p);
              a_cost = g.Csr.a_cost.(p);
            }
            :: !acc
      done
  done;
  List.rev !acc

let bellman_ford (g : Csr.t) source dist =
  let n = g.Csr.n in
  Array.fill dist 0 n max_int;
  dist.(source) <- 0;
  let changed = ref true in
  let iters = ref 0 in
  while !changed && !iters <= n do
    changed := false;
    incr iters;
    for v = 0 to n - 1 do
      if dist.(v) < max_int then
        for p = g.Csr.head.(v) to g.Csr.head.(v + 1) - 1 do
          if
            g.Csr.a_cap.(p) > 0
            && dist.(v) + g.Csr.a_cost.(p) < dist.(g.Csr.a_dst.(p))
          then begin
            dist.(g.Csr.a_dst.(p)) <- dist.(v) + g.Csr.a_cost.(p);
            changed := true
          end
        done
    done
  done;
  Tdf_telemetry.count "mcmf.bellman_ford_passes" !iters;
  if !iters > n then Error (relaxable_arcs g dist) else Ok ()

let solve_csr (g : Csr.t) ~(ws : Workspace.t) ~source ~sink
    ?(max_flow = max_int) ?(budget = Budget.unlimited) () =
  Tdf_telemetry.span "mcmf.min_cost_flow" @@ fun () ->
  if Tdf_util.Failpoint.fire "mcmf.solve" then Error (Negative_cycle [])
  else begin
    let n = g.Csr.n in
    Workspace.ensure ws n;
    if ws.Workspace.solves > 0 then Tdf_telemetry.incr "mcmf.ws_reuse";
    ws.Workspace.solves <- ws.Workspace.solves + 1;
    let telemetry = Tdf_telemetry.enabled () in
    let mw0 = if telemetry then Gc.minor_words () else 0. in
    let pops = ref 0
    and relaxations = ref 0
    and augmentations = ref 0
    and arc_scans = ref 0
    and phases = ref 0 in
    let dist = ws.Workspace.dist
    and prev_v = ws.Workspace.prev_v
    and prev_a = ws.Workspace.prev_a
    and potential = ws.Workspace.potential in
    Array.fill potential 0 n 0;
    let has_negative =
      let rec scan p =
        if p >= 2 * g.Csr.m then false
        else if g.Csr.a_cap.(p) > 0 && g.Csr.a_cost.(p) < 0 then true
        else scan (p + 1)
      in
      scan 0
    in
    let bf_error = ref None in
    if has_negative then begin
      match bellman_ford g source dist with
      | Error arcs -> bf_error := Some (Negative_cycle arcs)
      | Ok () ->
        for v = 0 to n - 1 do
          potential.(v) <- (if dist.(v) = max_int then 0 else dist.(v))
        done
    end;
    match !bf_error with
    | Some e -> Error e
    | None ->
      if Tdf_util.Failpoint.fire "mcmf.timeout" then Budget.exhaust budget;
      let total_flow = ref 0 and total_cost = ref 0 in
      let continue = ref true in
      let complete = ref true in
      (* Dijkstra on reduced costs (exact integer keys) with the monotone
         radix heap.  Reduced costs of residual arcs out of reachable
         vertices are non-negative (Johnson potentials), so pushed keys
         never fall below the extracted minimum; Heap_radix.add raises
         loudly if that invariant is ever broken. *)
      let dijkstra () =
        incr phases;
        Array.fill dist 0 n max_int;
        dist.(source) <- 0;
        let heap = ws.Workspace.heap in
        Heap_radix.clear heap;
        Heap_radix.add heap ~key:0 source;
        while not (Heap_radix.is_empty heap) do
          let d = Heap_radix.top_key heap and v = Heap_radix.top_value heap in
          Heap_radix.remove_top heap;
          incr pops;
          if d <= dist.(v) then
            for p = g.Csr.head.(v) to g.Csr.head.(v + 1) - 1 do
              incr arc_scans;
              if g.Csr.a_cap.(p) > 0 then begin
                let w = g.Csr.a_dst.(p) in
                let nd =
                  dist.(v) + g.Csr.a_cost.(p) + potential.(v) - potential.(w)
                in
                if nd < dist.(w) then begin
                  incr relaxations;
                  dist.(w) <- nd;
                  prev_v.(w) <- v;
                  prev_a.(w) <- p;
                  Heap_radix.add heap ~key:nd w
                end
              end
            done
        done
      in
      let lift_potentials () =
        for v = 0 to n - 1 do
          if dist.(v) < max_int then potential.(v) <- potential.(v) + dist.(v)
        done
      in
      (* One augmentation along the Dijkstra parent tree: the progress
         guarantee behind the blocking phase. *)
      let augment_parent_tree () =
        let rec bottleneck v acc =
          if v = source then acc
          else bottleneck prev_v.(v) (min acc g.Csr.a_cap.(prev_a.(v)))
        in
        let push = min (bottleneck sink max_int) (max_flow - !total_flow) in
        let rec apply v =
          if v <> source then begin
            let p = prev_a.(v) in
            g.Csr.a_cap.(p) <- g.Csr.a_cap.(p) - push;
            let r = g.Csr.a_rev.(p) in
            g.Csr.a_cap.(r) <- g.Csr.a_cap.(r) + push;
            total_cost := !total_cost + (push * g.Csr.a_cost.(p));
            apply prev_v.(v)
          end
        in
        apply sink;
        incr augmentations;
        Budget.tick budget 1;
        total_flow := !total_flow + push
      in
      (* Blocking phase: after lift_potentials, arcs on some shortest path
         are exactly those with zero reduced cost.  A DFS with per-vertex
         arc cursors pushes flow along such tight paths until the source
         runs out of admissible arcs, so one Dijkstra feeds many
         augmentations.  Every successful push saturates at least one arc
         (or hits max_flow), and dead/cursor marks never resurrect within
         a phase, so the phase terminates.  Each augmenting path has zero
         reduced cost, i.e. it is a shortest path, so the SSP optimality
         invariant — and with it the exact (flow, cost) — is preserved. *)
      let blocking_phase () =
        let cur = ws.Workspace.cur
        and stack_v = ws.Workspace.stack_v
        and stack_a = ws.Workspace.stack_a
        and onstack = ws.Workspace.onstack
        and dead = ws.Workspace.dead in
        ws.Workspace.stamp <- ws.Workspace.stamp + 1;
        let stamp = ws.Workspace.stamp in
        Array.blit g.Csr.head 0 cur 0 n;
        let depth = ref 0 in
        stack_v.(0) <- source;
        onstack.(source) <- stamp;
        let pushes = ref 0 in
        let phase_done = ref false in
        while not !phase_done do
          let u = stack_v.(!depth) in
          if u = sink then begin
            (* Budget check at augmentation granularity, like the SSP
               loop's per-round check. *)
            if Budget.exhausted budget then begin
              complete := false;
              continue := false;
              phase_done := true
            end
            else begin
              let push = ref (max_flow - !total_flow) in
              for i = 1 to !depth do
                let c = g.Csr.a_cap.(stack_a.(i)) in
                if c < !push then push := c
              done;
              let push = !push in
              for i = 1 to !depth do
                let p = stack_a.(i) in
                g.Csr.a_cap.(p) <- g.Csr.a_cap.(p) - push;
                let r = g.Csr.a_rev.(p) in
                g.Csr.a_cap.(r) <- g.Csr.a_cap.(r) + push;
                total_cost := !total_cost + (push * g.Csr.a_cost.(p))
              done;
              total_flow := !total_flow + push;
              incr augmentations;
              incr pushes;
              Budget.tick budget 1;
              if !total_flow >= max_flow then phase_done := true
              else begin
                (* Retreat to the shallowest saturated arc and resume the
                   DFS just past it. *)
                let i = ref 1 in
                while g.Csr.a_cap.(stack_a.(!i)) > 0 do
                  incr i
                done;
                for d = !i to !depth do
                  onstack.(stack_v.(d)) <- 0
                done;
                depth := !i - 1;
                cur.(stack_v.(!depth)) <- stack_a.(!i) + 1
              end
            end
          end
          else begin
            let hi = g.Csr.head.(u + 1) in
              let p = ref cur.(u) in
              let found = ref (-1) in
              while !found < 0 && !p < hi do
                let q = !p in
                incr arc_scans;
                if g.Csr.a_cap.(q) > 0 then begin
                  let w = g.Csr.a_dst.(q) in
                  if
                    onstack.(w) <> stamp
                    && dead.(w) <> stamp
                    && g.Csr.a_cost.(q) + potential.(u) - potential.(w) = 0
                  then found := q
                end;
                if !found < 0 then incr p
              done;
              cur.(u) <- !p;
              if !found >= 0 then begin
                let w = g.Csr.a_dst.(!found) in
                incr depth;
                stack_v.(!depth) <- w;
                stack_a.(!depth) <- !found;
                onstack.(w) <- stamp
              end
            else begin
              dead.(u) <- stamp;
              onstack.(u) <- 0;
              if !depth = 0 then phase_done := true
              else begin
                decr depth;
                cur.(stack_v.(!depth)) <- stack_a.(!depth + 1) + 1
              end
            end
          end
        done;
        !pushes
      in
      while !continue && !total_flow < max_flow do
        if Tdf_util.Failpoint.fire "mcmf.timeout" then Budget.exhaust budget;
        if Budget.exhausted budget then begin
          (* Out of budget: stop augmenting and hand back the partial flow. *)
          complete := false;
          continue := false
        end
        else begin
          dijkstra ();
          if dist.(sink) = max_int then continue := false
          else begin
            lift_potentials ();
            (* The DFS can in principle dead-mark a vertex whose only tight
               paths to the sink run through the then-current stack; if a
               phase somehow pushes nothing, fall back to one parent-tree
               augmentation so progress (and hence termination) is
               unconditional. *)
            let pushes = blocking_phase () in
            if pushes = 0 && !continue && !total_flow < max_flow then
              augment_parent_tree ()
          end
        end
      done;
      Tdf_telemetry.count "mcmf.augmentations" !augmentations;
      Tdf_telemetry.count "mcmf.dijkstra_pops" !pops;
      Tdf_telemetry.count "mcmf.relaxations" !relaxations;
      Tdf_telemetry.count "mcmf.arc_scans" !arc_scans;
      Tdf_telemetry.count "mcmf.phases" !phases;
      if not !complete then Tdf_telemetry.incr "mcmf.budget_stops";
      if telemetry && !augmentations > 0 then
        Tdf_telemetry.observe "mcmf.minor_words_per_aug"
          ((Gc.minor_words () -. mw0) /. float_of_int !augmentations);
      Ok { flow = !total_flow; cost = !total_cost; complete = !complete }
  end
