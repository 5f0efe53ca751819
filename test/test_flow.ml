module M = Tdf_flow.Mcmf

(* Stages [edges] as (src, dst, cap, cost) on vertices [0 .. n-1] and
   solves them on a fresh graph (and workspace, unless [ws] is given): the
   solution and each edge's flow, in list order. *)
let solve ?max_flow ?(ws = M.Workspace.create ()) edges n ~source ~sink =
  let b = M.Builder.create n in
  let handles =
    List.map
      (fun (src, dst, cap, cost) -> M.Builder.add_edge b ~src ~dst ~cap ~cost)
      edges
  in
  let g = M.Csr.of_builder b in
  M.solve_csr g ~ws ~source ~sink ?max_flow ()
  |> Result.map (fun s -> (s, List.map (M.Csr.flow_on g) handles))

(* [(flow, cost)] and the per-edge flows; a negative cycle fails the test. *)
let solve_exn ?max_flow ?ws edges n ~source ~sink =
  match solve ?max_flow ?ws edges n ~source ~sink with
  | Ok (s, flows) -> ((s.M.flow, s.M.cost), flows)
  | Error e -> Alcotest.fail (M.error_to_string e)

let test_single_edge () =
  let (flow, cost), flows = solve_exn [ (0, 1, 5, 3) ] 2 ~source:0 ~sink:1 in
  Alcotest.(check int) "flow" 5 flow;
  Alcotest.(check int) "cost" 15 cost;
  Alcotest.(check (list int)) "edge flow" [ 5 ] flows

let test_two_paths_prefers_cheap () =
  (* 0->1->3 cost 2, 0->2->3 cost 10; caps 1 each; push 2 units *)
  let (flow, cost), _ =
    solve_exn
      [ (0, 1, 1, 1); (1, 3, 1, 1); (0, 2, 1, 5); (2, 3, 1, 5) ]
      4 ~source:0 ~sink:3
  in
  Alcotest.(check int) "flow" 2 flow;
  Alcotest.(check int) "cost" 12 cost

let test_max_flow_limit () =
  let (flow, cost), _ =
    solve_exn ~max_flow:4 [ (0, 1, 10, 1) ] 2 ~source:0 ~sink:1
  in
  Alcotest.(check int) "limited flow" 4 flow;
  Alcotest.(check int) "cost" 4 cost

let test_rerouting_via_residual () =
  (* Classic case where the second augmentation must push back on the
     first path's residual edge. *)
  let (flow, cost), _ =
    solve_exn
      [ (0, 1, 1, 1); (0, 2, 1, 2); (1, 2, 1, -2); (1, 3, 1, 4); (2, 3, 2, 1) ]
      4 ~source:0 ~sink:3
  in
  Alcotest.(check int) "max flow 2" 2 flow;
  (* best: 0-1-2-3 (1-2+1=0) and 0-2-3 (2+1=3) => 3 *)
  Alcotest.(check int) "optimal cost" 3 cost

let test_negative_edge_costs () =
  let (flow, cost), _ =
    solve_exn [ (0, 1, 2, -5); (1, 2, 2, 3) ] 3 ~source:0 ~sink:2
  in
  Alcotest.(check int) "flow" 2 flow;
  Alcotest.(check int) "cost" (-4) cost

let test_disconnected () =
  let (flow, cost), _ = solve_exn [ (0, 1, 1, 1) ] 3 ~source:0 ~sink:2 in
  Alcotest.(check int) "no flow" 0 flow;
  Alcotest.(check int) "no cost" 0 cost

(* Brute-force reference: enumerate all integral flows on tiny graphs by
   trying all combinations of per-edge flows and checking conservation. *)
let brute_force_min_cost n edges ~source ~sink =
  let ne = List.length edges in
  let best_for_flow = Hashtbl.create 16 in
  let edges = Array.of_list edges in
  let assignment = Array.make ne 0 in
  let rec enumerate i =
    if i = ne then begin
      let net = Array.make n 0 in
      let cost = ref 0 in
      Array.iteri
        (fun j f ->
          let src, dst, _, c = edges.(j) in
          net.(src) <- net.(src) - f;
          net.(dst) <- net.(dst) + f;
          cost := !cost + (f * c))
        assignment;
      let ok = ref true in
      for v = 0 to n - 1 do
        if v <> source && v <> sink && net.(v) <> 0 then ok := false
      done;
      if !ok && net.(sink) >= 0 then begin
        let f = net.(sink) in
        match Hashtbl.find_opt best_for_flow f with
        | Some c when c <= !cost -> ()
        | _ -> Hashtbl.replace best_for_flow f !cost
      end
    end
    else begin
      let _, _, cap, _ = edges.(i) in
      for f = 0 to cap do
        assignment.(i) <- f;
        enumerate (i + 1)
      done;
      assignment.(i) <- 0
    end
  in
  enumerate 0;
  let max_flow = Hashtbl.fold (fun f _ acc -> max f acc) best_for_flow 0 in
  (max_flow, Hashtbl.find best_for_flow max_flow)

let prop_matches_brute_force =
  let gen =
    QCheck.Gen.(
      let n = 4 in
      let edge =
        map3
          (fun s d (cap, cost) -> (s, d, cap, cost))
          (int_range 0 (n - 1))
          (int_range 0 (n - 1))
          (pair (int_range 1 2) (int_range 0 4))
      in
      list_size (int_range 1 5) edge)
  in
  QCheck.Test.make ~name:"mcmf matches brute force on tiny graphs" ~count:100
    (QCheck.make gen)
    (fun edges ->
      let edges = List.filter (fun (s, d, _, _) -> s <> d) edges in
      let n = 4 in
      let (flow, cost), _ = solve_exn edges n ~source:0 ~sink:(n - 1) in
      let bf_flow, bf_cost = brute_force_min_cost n edges ~source:0 ~sink:(n - 1) in
      flow = bf_flow && cost = bf_cost)

(* ------------------------------------------------------------------ *)
(* Arc-id handles: self-loops and parallel edges                       *)
(* ------------------------------------------------------------------ *)

let test_arc_id_handles () =
  (* Handles are explicit arc ids in staging order — no (vertex, index)
     bit-packing that aliased for vertex counts >= 2^30. *)
  let b = M.Builder.create 2 in
  let h0 = M.Builder.add_edge b ~src:0 ~dst:1 ~cap:1 ~cost:1 in
  let h1 = M.Builder.add_edge b ~src:0 ~dst:1 ~cap:1 ~cost:5 in
  Alcotest.(check int) "first arc id" 0 h0;
  Alcotest.(check int) "second arc id" 1 h1;
  let g = M.Csr.of_builder b in
  match M.solve_csr g ~ws:(M.Workspace.create ()) ~source:0 ~sink:1 () with
  | Error e -> Alcotest.fail (M.error_to_string e)
  | Ok s ->
    Alcotest.(check int) "parallel flow" 2 s.M.flow;
    Alcotest.(check int) "parallel cost" 6 s.M.cost;
    Alcotest.(check int) "cheap parallel arc saturated" 1 (M.Csr.flow_on g h0);
    Alcotest.(check int) "dear parallel arc saturated" 1 (M.Csr.flow_on g h1)

let test_self_loop () =
  let (flow, cost), flows =
    solve_exn [ (0, 0, 5, 1); (0, 1, 3, 2) ] 2 ~source:0 ~sink:1
  in
  Alcotest.(check int) "flow ignores self-loop" 3 flow;
  Alcotest.(check int) "cost ignores self-loop" 6 cost;
  Alcotest.(check (list int))
    "no flow on self-loop, forward arc saturated" [ 0; 3 ] flows

let test_negative_self_loop_is_cycle () =
  (* A negative-cost self-loop is the smallest negative cycle; the
     reverse-arc index adjustment for self-loops must not corrupt it. *)
  match solve [ (0, 0, 1, -3); (0, 1, 1, 1) ] 2 ~source:0 ~sink:1 with
  | Ok _ -> Alcotest.fail "negative self-loop must be detected"
  | Error (M.Negative_cycle arcs) ->
    Alcotest.(check bool) "offending arc reported" true
      (List.exists (fun (a : M.arc) -> a.M.a_cost = -3) arcs)

(* ------------------------------------------------------------------ *)
(* Optimality certificate                                              *)
(* ------------------------------------------------------------------ *)

(* Certifies a reported min-cost max-flow from the staged edge list and the
   per-edge flows alone, sharing no code with Mcmf: capacity bounds,
   conservation, the reported totals, maximality (no residual
   source->sink path) and minimum cost (no negative residual cycle,
   found by Bellman–Ford from a virtual root at distance 0 to every
   vertex). *)
let certify edges flows n ~source ~sink ~flow ~cost =
  let arcs = List.combine edges flows in
  let excess = Array.make n 0 and total_cost = ref 0 in
  List.iter
    (fun ((s, d, _, c), f) ->
      excess.(s) <- excess.(s) - f;
      excess.(d) <- excess.(d) + f;
      total_cost := !total_cost + (c * f))
    arcs;
  let residual =
    List.concat_map
      (fun ((s, d, cap, c), f) ->
        (if f < cap then [ (s, d, c) ] else [])
        @ if f > 0 then [ (d, s, -c) ] else [])
      arcs
  in
  let reaches_sink () =
    let seen = Array.make n false and changed = ref true in
    seen.(source) <- true;
    while !changed do
      changed := false;
      List.iter
        (fun (u, v, _) ->
          if seen.(u) && not seen.(v) then begin
            seen.(v) <- true;
            changed := true
          end)
        residual
    done;
    seen.(sink)
  in
  (* Without a negative cycle, n - 1 rounds settle every distance; a
     relaxation in round n proves one exists. *)
  let negative_cycle () =
    let dist = Array.make n 0 and rounds = ref 0 and changed = ref true in
    while !changed && !rounds < n do
      changed := false;
      incr rounds;
      List.iter
        (fun (u, v, c) ->
          if dist.(u) + c < dist.(v) then begin
            dist.(v) <- dist.(u) + c;
            changed := true
          end)
        residual
    done;
    !changed
  in
  let over_cap =
    List.find_opt (fun ((_, _, cap, _), f) -> f < 0 || f > cap) arcs
  and unbalanced =
    List.find_opt
      (fun v -> v <> source && v <> sink && excess.(v) <> 0)
      (List.init n Fun.id)
  in
  match (over_cap, unbalanced) with
  | Some ((s, d, cap, _), f), _ ->
    Error (Printf.sprintf "arc %d->%d carries %d outside [0, %d]" s d f cap)
  | None, Some v ->
    Error (Printf.sprintf "vertex %d has excess %d" v excess.(v))
  | None, None when !total_cost <> cost ->
    Error (Printf.sprintf "sum cost*f = %d, reported %d" !total_cost cost)
  | None, None when -excess.(source) <> flow ->
    Error
      (Printf.sprintf "source outflow %d, reported %d" (-excess.(source)) flow)
  | None, None when reaches_sink () -> Error "residual source->sink path left"
  | None, None when negative_cycle () -> Error "negative residual cycle left"
  | None, None -> Ok ()

(* ------------------------------------------------------------------ *)
(* Differential: CSR solver vs the seed SSP implementation             *)
(* ------------------------------------------------------------------ *)

let ref_min_cost_flow edges n ~source ~sink =
  let r = Ref_ssp.create n in
  List.iter
    (fun (src, dst, cap, cost) ->
      ignore (Ref_ssp.add_edge r ~src ~dst ~cap ~cost))
    edges;
  Ref_ssp.min_cost_flow r ~source ~sink ()

(* Solve on a fresh CSR graph and certify the per-arc flows. *)
let solve_certified edges n ~source ~sink =
  match solve edges n ~source ~sink with
  | Error e -> Error (M.error_to_string e)
  | Ok ({ M.flow; cost; _ }, flows) ->
    certify edges flows n ~source ~sink ~flow ~cost
    |> Result.map (fun () -> (flow, cost))

(* The solver must reproduce the seed SSP's (flow, cost) exactly — max flow
   is unique, and so is the min cost at max flow — and its per-arc flows
   must pass the certificate. *)
let check_against_ref ~what edges n ~source ~sink =
  let rflow, rcost = ref_min_cost_flow edges n ~source ~sink in
  match solve_certified edges n ~source ~sink with
  | Error e -> Alcotest.failf "%s: %s" what e
  | Ok (flow, cost) ->
    Alcotest.(check int) (what ^ ": flow matches seed") rflow flow;
    Alcotest.(check int) (what ^ ": cost matches seed") rcost cost

(* >= 200 seeded random graphs on the in-repo property harness.  Half
   allow cycles (non-negative costs, self-loops and parallel edges
   included); half are DAGs with negative costs (src < dst, so no directed
   cycle and Bellman–Ford potentials are exercised without negative
   cycles).  A discrepancy shrinks to a near-minimal edge list before the
   failure (with its replay seed) is reported. *)
type rand_graph = { rg_n : int; rg_edges : (int * int * int * int) list }

let rand_graph_arb =
  let print g =
    Printf.sprintf "{n=%d; edges=[%s]}" g.rg_n
      (String.concat "; "
         (List.map
            (fun (s, d, cap, c) ->
              Printf.sprintf "(%d->%d cap %d cost %d)" s d cap c)
            g.rg_edges))
  in
  let shrink g =
    let ne = List.length g.rg_edges in
    if ne = 0 then []
    else
      let take k l = List.filteri (fun i _ -> i < k) l in
      let remove_at i l = List.filteri (fun j _ -> j <> i) l in
      (if ne >= 2 then [ { g with rg_edges = take (ne / 2) g.rg_edges } ]
       else [])
      @ List.init (min ne 16) (fun i ->
            { g with rg_edges = remove_at i g.rg_edges })
  in
  Props.make ~shrink ~print (fun rng ->
      let n = 2 + Tdf_util.Prng.int rng 18 in
      let m = 1 + Tdf_util.Prng.int rng 60 in
      let negative = Tdf_util.Prng.bool rng in
      let edges = ref [] in
      for _ = 1 to m do
        let s = Tdf_util.Prng.int rng n and d = Tdf_util.Prng.int rng n in
        let cap = Tdf_util.Prng.int rng 9 in
        if negative then begin
          let s, d = (min s d, max s d) in
          if s <> d then begin
            let cost = Tdf_util.Prng.int rng 21 - 10 in
            edges := (s, d, cap, cost) :: !edges
          end
        end
        else begin
          let cost = Tdf_util.Prng.int rng 11 in
          edges := (s, d, cap, cost) :: !edges
        end
      done;
      { rg_n = n; rg_edges = List.rev !edges })

let prop_differential_random =
  Props.test "differential vs seed SSP (400 random, certified)" ~count:400
    rand_graph_arb (fun { rg_n = n; rg_edges = edges } ->
      let source = 0 and sink = n - 1 in
      solve_certified edges n ~source ~sink
      = Ok (ref_min_cost_flow edges n ~source ~sink))

(* Transportation network shaped like the paper's legalization bin graphs:
   source -> supply bins -> demand bins (windowed adjacency) -> sink. *)
let transportation_edges ~supplies ~demands ~window ~seed =
  let rng = Tdf_util.Prng.create seed in
  let sup = Array.init supplies (fun _ -> 1 + Tdf_util.Prng.int rng 8) in
  let dem = Array.init demands (fun _ -> 1 + Tdf_util.Prng.int rng 8) in
  let source = 0 and sink = supplies + demands + 1 in
  let edges = ref [] in
  for i = 0 to supplies - 1 do
    edges := (source, 1 + i, sup.(i), 0) :: !edges
  done;
  for j = 0 to demands - 1 do
    edges := (1 + supplies + j, sink, dem.(j), 0) :: !edges
  done;
  for i = 0 to supplies - 1 do
    let center = i * demands / supplies in
    for dj = -window to window do
      let j = center + dj in
      if j >= 0 && j < demands then
        edges :=
          ( 1 + i,
            1 + supplies + j,
            min sup.(i) dem.(j),
            abs dj + Tdf_util.Prng.int rng 3 )
          :: !edges
    done
  done;
  (List.rev !edges, sink + 1, source, sink)

let test_differential_benchmark_graphs () =
  List.iter
    (fun (supplies, demands, window, seed) ->
      let edges, n, source, sink =
        transportation_edges ~supplies ~demands ~window ~seed
      in
      check_against_ref
        ~what:(Printf.sprintf "transportation %dx%d" supplies demands)
        edges n ~source ~sink)
    [ (8, 8, 2, 1); (24, 24, 4, 42); (40, 32, 6, 7); (64, 64, 5, 11) ]

(* ------------------------------------------------------------------ *)
(* Adversarial differential families (seed SSP oracle + certificate)    *)
(* ------------------------------------------------------------------ *)

(* Complete bipartite supply/demand coupling: every supply reaches every
   demand, maximizing shortest-path ties and the fan-out of the tight-arc
   DAG the blocking phase walks. *)
let test_differential_dense_bipartite () =
  List.iter
    (fun (supplies, demands, seed) ->
      let edges, n, source, sink =
        transportation_edges ~supplies ~demands ~window:demands ~seed
      in
      check_against_ref
        ~what:(Printf.sprintf "dense bipartite %dx%d" supplies demands)
        edges n ~source ~sink)
    [ (12, 12, 2); (20, 16, 13); (16, 24, 99) ]

(* Ladder / grid chains: long shortest paths (hundreds of hops) stress
   potential accumulation, radix-bucket redistribution and the DFS stack
   depth of the blocking phase. *)
let grid_edges ~rows ~cols ~seed =
  let rng = Tdf_util.Prng.create seed in
  let v r c = 1 + (r * cols) + c in
  let n = (rows * cols) + 2 in
  let source = 0 and sink = n - 1 in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    edges := (source, v r 0, 1 + Tdf_util.Prng.int rng 4, 0) :: !edges;
    edges := (v r (cols - 1), sink, 1 + Tdf_util.Prng.int rng 4, 0) :: !edges
  done;
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then
        edges :=
          ( v r c,
            v r (c + 1),
            1 + Tdf_util.Prng.int rng 5,
            Tdf_util.Prng.int rng 7 )
          :: !edges;
      if r + 1 < rows then begin
        edges :=
          ( v r c,
            v (r + 1) c,
            1 + Tdf_util.Prng.int rng 3,
            Tdf_util.Prng.int rng 7 )
          :: !edges;
        edges :=
          ( v (r + 1) c,
            v r c,
            1 + Tdf_util.Prng.int rng 3,
            Tdf_util.Prng.int rng 7 )
          :: !edges
      end
    done
  done;
  (List.rev !edges, n, source, sink)

let test_differential_long_chain_grids () =
  List.iter
    (fun (rows, cols, seed) ->
      let edges, n, source, sink = grid_edges ~rows ~cols ~seed in
      check_against_ref
        ~what:(Printf.sprintf "grid %dx%d" rows cols)
        edges n ~source ~sink)
    [ (1, 120, 4); (2, 60, 8); (3, 40, 15); (4, 25, 23) ]

(* Bundles of zero-cost parallel arcs: every augmenting path is a tie, so
   the radix heap's tie order must still land on the seed's (flow, cost);
   also exercises zero-length plateaus in the blocking DFS (and its cycle
   avoidance, via the zero-cost back arcs). *)
let test_differential_zero_cost_parallel () =
  List.iter
    (fun seed ->
      let rng = Tdf_util.Prng.create seed in
      let n = 6 in
      let edges = ref [] in
      for s = 0 to n - 2 do
        for d = 1 to n - 1 do
          if s <> d then
            for _ = 1 to 1 + Tdf_util.Prng.int rng 4 do
              let cost = if Tdf_util.Prng.int rng 4 = 0 then 1 else 0 in
              edges := (s, d, 1 + Tdf_util.Prng.int rng 2, cost) :: !edges
            done
        done
      done;
      check_against_ref
        ~what:(Printf.sprintf "zero-cost parallel (seed %d)" seed)
        (List.rev !edges) n ~source:0 ~sink:(n - 1))
    [ 1; 7; 21; 34 ]

(* Micro-unit costs near the legalizer's scaling magnitude (1e6 per unit
   cost, so paths accumulate ~1e8): large exact-integer keys stress radix
   bucket indexing on high bits and would expose any float rounding if a
   heap ever went through floats. *)
let test_differential_near_max_micro_costs () =
  List.iter
    (fun (supplies, demands, window, seed) ->
      let edges, n, source, sink =
        transportation_edges ~supplies ~demands ~window ~seed
      in
      let rng = Tdf_util.Prng.create (seed + 1) in
      let edges =
        List.map
          (fun (s, d, cap, c) ->
            if c = 0 then (s, d, cap, c)
            else (s, d, cap, (1_000_000 * c) - Tdf_util.Prng.int rng 50))
          edges
      in
      check_against_ref
        ~what:(Printf.sprintf "near-max micro costs %dx%d" supplies demands)
        edges n ~source ~sink)
    [ (10, 10, 3, 6); (24, 20, 5, 17); (32, 32, 4, 29) ]

(* Supply that cannot reach the sink: dead-end supply bins (arcs from the
   source but none onward) and starved demand bins.  Max flow is limited
   by reachability, and unreachable vertices keep stale potentials — the
   regime where a broken reduced-cost invariant would trip the radix
   heap's monotone check. *)
let test_differential_disconnected_supply () =
  List.iter
    (fun (supplies, demands, window, seed) ->
      let edges, n, source, sink =
        transportation_edges ~supplies ~demands ~window ~seed
      in
      let edges =
        List.filter
          (fun (s, d, _, _) ->
            (* drop every third supply's outgoing arcs and every fourth
               demand's sink arc *)
            let sup_out = s >= 1 && s <= supplies && (s - 1) mod 3 = 0 in
            let dem_in = d = sink && s >= 1 + supplies && (s - supplies) mod 4 = 0
            in
            (not sup_out) && not dem_in)
          edges
      in
      check_against_ref
        ~what:
          (Printf.sprintf "disconnected supply %dx%d" supplies demands)
        edges n ~source ~sink)
    [ (9, 9, 2, 3); (21, 15, 4, 12); (30, 30, 3, 27) ]

(* ------------------------------------------------------------------ *)
(* Workspace reuse                                                     *)
(* ------------------------------------------------------------------ *)

let test_workspace_reuse_determinism () =
  (* Two consecutive solves on one shared workspace must equal two fresh
     solves with private workspaces. *)
  let e1, n1, s1, t1 = transportation_edges ~supplies:16 ~demands:16 ~window:3 ~seed:5 in
  let e2, n2, s2, t2 = transportation_edges ~supplies:30 ~demands:24 ~window:4 ~seed:9 in
  let shared = M.Workspace.create () in
  let solve_with_shared edges n ~source ~sink =
    fst (solve_exn ~ws:shared edges n ~source ~sink)
  in
  let solve_fresh edges n ~source ~sink =
    fst (solve_exn edges n ~source ~sink)
  in
  let r1 = solve_with_shared e1 n1 ~source:s1 ~sink:t1 in
  let r2 = solve_with_shared e2 n2 ~source:s2 ~sink:t2 in
  Alcotest.(check (pair int int))
    "first solve on shared workspace" (solve_fresh e1 n1 ~source:s1 ~sink:t1) r1;
  Alcotest.(check (pair int int))
    "second solve on shared workspace" (solve_fresh e2 n2 ~source:s2 ~sink:t2) r2

(* The solver's optimum on three transportation networks, pinned as
   literals: (supplies, demands, window, seed), edge count, max flow and
   min cost.  The differential tests compare the engine with the seed
   solver; these catch a change that moves both, and reach the sizes
   (67,344 edges) where the blocking phases do most of the work. *)
let test_pinned_transportation_optimum () =
  List.iter
    (fun ((supplies, demands, window, seed), m, flow, cost) ->
      let edges, n, source, sink =
        transportation_edges ~supplies ~demands ~window ~seed
      in
      let what = Printf.sprintf "transportation %dx%d" supplies demands in
      Alcotest.(check int) (what ^ " edges") m (List.length edges);
      Alcotest.(check (pair int int))
        (what ^ " (flow, cost)") (flow, cost)
        (fst (solve_exn edges n ~source ~sink)))
    [
      ((24, 24, 4, 42), 244, 89, 140);
      ((400, 400, 8, 42), 7_528, 1_714, 2_698);
      ((2500, 2500, 12, 42), 67_344, 11_074, 37_668);
    ]

let suite =
  [
    Alcotest.test_case "single edge" `Quick test_single_edge;
    Alcotest.test_case "prefers cheap path" `Quick test_two_paths_prefers_cheap;
    Alcotest.test_case "max_flow limit" `Quick test_max_flow_limit;
    Alcotest.test_case "rerouting via residual" `Quick test_rerouting_via_residual;
    Alcotest.test_case "negative edge costs" `Quick test_negative_edge_costs;
    Alcotest.test_case "disconnected" `Quick test_disconnected;
    Alcotest.test_case "arc-id handles (parallel edges)" `Quick test_arc_id_handles;
    Alcotest.test_case "self-loop" `Quick test_self_loop;
    Alcotest.test_case "negative self-loop detected" `Quick
      test_negative_self_loop_is_cycle;
    prop_differential_random;
    Alcotest.test_case "differential vs seed SSP (transportation)" `Quick
      test_differential_benchmark_graphs;
    Alcotest.test_case "differential: dense bipartite (all verified)" `Quick
      test_differential_dense_bipartite;
    Alcotest.test_case "differential: long-chain grids (all verified)" `Quick
      test_differential_long_chain_grids;
    Alcotest.test_case "differential: zero-cost parallel arcs (all verified)"
      `Quick test_differential_zero_cost_parallel;
    Alcotest.test_case "differential: near-max micro costs (all verified)"
      `Quick test_differential_near_max_micro_costs;
    Alcotest.test_case "differential: disconnected supply (all verified)"
      `Quick test_differential_disconnected_supply;
    Alcotest.test_case "workspace reuse determinism" `Quick
      test_workspace_reuse_determinism;
    Alcotest.test_case "pinned transportation optimum" `Quick
      test_pinned_transportation_optimum;
    QCheck_alcotest.to_alcotest prop_matches_brute_force;
  ]
