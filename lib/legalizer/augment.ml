module Grid = Tdf_grid.Grid
module Heap = Tdf_util.Heap_int

type node = { pn_bin : int; pn_flow_in : float; pn_need_out : float }

type path = node list

type state = {
  cost : float array;
  flow : float array;
  parent : int array;
  visited : int array;  (* epoch stamp *)
  heap : Heap.t;  (* hoisted search frontier, cleared per search *)
  sel : Select.cache;  (* per-domain, like the rest of the state *)
  mutable epoch : int;
  mutable pops : int;
}

(* Path costs are floats (weighted displacements); the frontier orders
   them as exact micro-units so the heap stays monomorphic on ints. *)
let micro c = int_of_float (Float.round (c *. 1e6))

let create_state grid =
  let n = Grid.n_bins grid in
  {
    cost = Array.make n 0.;
    flow = Array.make n 0.;
    parent = Array.make n (-1);
    visited = Array.make n 0;
    heap = Heap.create ();
    sel = Select.create_cache grid;
    epoch = 0;
    pops = 0;
  }

let expansions st = st.pops

(* Pruning bound of Alg. 1 line 13.  The paper writes (1 + α)·cost(p_best);
   because iterative re-legalization makes costs near zero or negative, we
   use the equivalent additive form best + α·(|best| + h_r) so the slack
   never collapses to nothing.  [h_r] is the source die's row height. *)
let bound cfg ~h_r best =
  if cfg.Config.exhaustive || best = infinity then infinity
  else best +. (cfg.Config.alpha *. (Float.abs best +. h_r))

let search ?mask cfg grid st ~src =
  Tdf_telemetry.span "flow3d.augment" @@ fun () ->
  st.epoch <- st.epoch + 1;
  st.pops <- 0;
  let epoch = st.epoch in
  (* One augmentation pushes at most cap(s): a single path can only relay
     what the bins along it can absorb or already hold, so large supplies
     are shed in successive chunks (Alg. 2 re-queues the bin while
     overflowed). *)
  let sup = Float.min (Grid.supply src) (float_of_int (Grid.cap src)) in
  if sup <= 0. then None
  else begin
    let sels = ref 0 and priced0 = Select.priced st.sel in
    let h_r =
      float_of_int
        (Tdf_netlist.Design.die grid.Grid.design src.Grid.die)
          .Tdf_netlist.Die.row_height
    in
    let q = st.heap in
    Heap.clear q;
    st.cost.(src.Grid.id) <- 0.;
    st.flow.(src.Grid.id) <- sup;
    st.parent.(src.Grid.id) <- -1;
    st.visited.(src.Grid.id) <- epoch;
    Heap.add q ~key:0 src.Grid.id;
    let best_cost = ref infinity and best_leaf = ref (-1) in
    (* [bound] of the best cost so far, updated with it *)
    let limit = ref (bound cfg ~h_r infinity) in
    let sums = Select.sums () in
    while not (Heap.is_empty q) do
      let uid = Heap.top_value q in
      Heap.remove_top q;
      st.pops <- st.pops + 1;
      (* Each bin is pushed at most once per epoch (visited on push), so
         its exact float cost is the stored label. *)
      let cost_u = st.cost.(uid) in
      let u = grid.Grid.bins.(uid) in
      if cost_u <= !limit then begin
        let need = st.flow.(uid) -. Grid.demand u in
        let edges = grid.Grid.edges.(uid) in
        if need > 1e-9 then begin
          (* [u]'s candidate table, once for all its out-edges *)
          let loaded = Select.load st.sel cfg grid ~src:u ~need in
          for i = 0 to Array.length edges - 1 do
            let e = edges.(i) in
            let kind_ok =
              match e.Grid.kind with
              | Grid.D2d -> cfg.Config.d2d_edges
              | Grid.Horizontal | Grid.Vertical -> true
            in
            let mask_ok =
              match mask with None -> true | Some m -> m.(e.Grid.dst)
            in
            let vid = e.Grid.dst in
            if kind_ok && mask_ok && st.visited.(vid) <> epoch then begin
              incr sels;
              if
                loaded
                && Select.select_cost st.sel cfg grid ~src:u ~edge:i
                     ~need sums
              then begin
                let inflow = sums.Select.s_inflow in
                let cost_v = cost_u +. sums.Select.s_cost in
                st.visited.(vid) <- epoch;
                st.flow.(vid) <- inflow;
                st.cost.(vid) <- cost_v;
                st.parent.(vid) <- uid;
                if cost_v < !limit then begin
                  if inflow <= Grid.demand grid.Grid.bins.(vid) +. 1e-9 then begin
                    (* candidate path (line 14) *)
                    if cost_v < !best_cost then begin
                      best_cost := cost_v;
                      best_leaf := vid;
                      limit := bound cfg ~h_r cost_v
                    end
                  end
                  else Heap.add q ~key:(micro cost_v) vid
                end
              end
            end
          done
        end
      end
    done;
    Tdf_telemetry.count "flow3d.augment.pops" st.pops;
    if !sels > 0 then Tdf_telemetry.count "flow3d.select.calls" !sels;
    let priced = Select.priced st.sel - priced0 in
    if priced > 0 then Tdf_telemetry.count "flow3d.select.priced" priced;
    if !best_leaf < 0 then None
    else begin
      (* Walk parents leaf → root, then reverse. *)
      let rec walk vid acc =
        let b = grid.Grid.bins.(vid) in
        let n =
          {
            pn_bin = vid;
            pn_flow_in = st.flow.(vid);
            pn_need_out = Float.max 0. (st.flow.(vid) -. Grid.demand b);
          }
        in
        if st.parent.(vid) < 0 then n :: acc else walk st.parent.(vid) (n :: acc)
      in
      Some (walk !best_leaf [])
    end
  end
