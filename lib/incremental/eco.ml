module Budget = Tdf_util.Budget
module Grid = Tdf_grid.Grid
module Mcmf = Tdf_flow.Mcmf
module Config = Tdf_legalizer.Config
module Flow3d = Tdf_legalizer.Flow3d
module Placement = Tdf_netlist.Placement
module Legality = Tdf_metrics.Legality
module Pipeline = Tdf_robust.Pipeline

type cfg = {
  flow : Config.t;
  initial_radius : int;
  max_widenings : int;
  widen_factor : int;
  fallback : bool;
  budget_ms : int option;
}

let default_cfg =
  {
    flow = Config.default;
    initial_radius = 4;
    max_widenings = 3;
    widen_factor = 2;
    fallback = true;
    budget_ms = None;
  }

type path = Local of { radius : int } | Full of Pipeline.path

let path_name = function
  | Local { radius } -> Printf.sprintf "local(r=%d)" radius
  | Full p -> "full-" ^ Pipeline.path_name p

type stats = {
  dirty_bins : int;
  dirty_segments : int;
  total_bins : int;
  widenings : int;
  fallbacks : int;
  path : path;
}

type result_t = {
  design : Tdf_netlist.Design.t;
  placement : Placement.t;
  perturb : Perturb.t;
  stats : stats;
}

type error =
  | Invalid_delta of string
  | Unplaceable of Grid.place_error
  | Local_failed of string
  | Fallback_failed of string

let error_to_string = function
  | Invalid_delta msg -> "invalid delta: " ^ msg
  | Unplaceable pe -> Grid.place_error_to_string pe
  | Local_failed msg -> "local re-legalization failed: " ^ msg
  | Fallback_failed msg -> "full-rerun fallback failed: " ^ msg

let eps = 1e-6

(* Min-cost max-flow feasibility precheck over the dirty subgraph: every
   unit of supply inside the region must be routable to demand without
   leaving it.  Supplies are rounded up and demands down, so this integer
   problem is harder than the fractional one the masked pass solves: a
   pass is no guarantee, and a fail does not prove the pass would fail
   (a 0.3 overflow beside 0.7 of free width fails here, yet one
   horizontal fractional move resolves it).  It is a filter: a fail
   widens the region without burning a search, and may widen a region
   that was already feasible. *)
let precheck ~ws ~(flow_cfg : Config.t) grid mask =
  let n = Grid.n_bins grid in
  (* Remap dirty bins to contiguous vertices; source = n_dirty,
     sink = n_dirty + 1. *)
  let vertex = Array.make n (-1) in
  let n_dirty = ref 0 in
  for b = 0 to n - 1 do
    if mask.(b) then begin
      vertex.(b) <- !n_dirty;
      incr n_dirty
    end
  done;
  let n_dirty = !n_dirty in
  let b = Mcmf.Builder.create (n_dirty + 2) in
  let source = n_dirty and sink = n_dirty + 1 in
  let required = ref 0 in
  let capacity = ref 0 in
  Array.iter
    (fun (bin : Grid.bin) ->
      if mask.(bin.Grid.id) then begin
        let v = vertex.(bin.Grid.id) in
        let sup = int_of_float (Float.ceil (Grid.supply bin -. eps)) in
        let dem = int_of_float (Float.floor (Grid.demand bin +. eps)) in
        if sup > 0 then begin
          required := !required + sup;
          ignore (Mcmf.Builder.add_edge b ~src:source ~dst:v ~cap:sup ~cost:0)
        end
        else if dem > 0 then begin
          capacity := !capacity + dem;
          ignore (Mcmf.Builder.add_edge b ~src:v ~dst:sink ~cap:dem ~cost:0)
        end
      end)
    grid.Grid.bins;
  if !required = 0 then true
  else if !capacity < !required then false
  else begin
    let big = !required in
    Array.iteri
      (fun src adj ->
        if mask.(src) then
          Array.iter
            (fun (e : Grid.edge) ->
              if
                mask.(e.Grid.dst)
                && (flow_cfg.Config.d2d_edges || e.Grid.kind <> Grid.D2d)
              then
                ignore
                  (Mcmf.Builder.add_edge b ~src:vertex.(src)
                     ~dst:vertex.(e.Grid.dst) ~cap:big ~cost:1))
            adj)
      grid.Grid.edges;
    let csr = Mcmf.Csr.of_builder b in
    match Mcmf.solve_csr csr ~ws ~source ~sink () with
    | Ok sol -> sol.Mcmf.flow >= !required
    | Error _ -> false
  end

let dirty_segment_mask grid mask =
  let only = Array.make (Array.length grid.Grid.segments) false in
  Array.iter
    (fun (bin : Grid.bin) -> if mask.(bin.Grid.id) then only.(bin.Grid.seg) <- true)
    grid.Grid.bins;
  only

(* Warm-session scratch shared across a stream of [run_cached] calls: the
   bin grid (rebound to each perturbed design when structurally
   compatible) and the MCMF workspace.  One-shot [run] uses a throwaway
   cache, so the cached path and the cold path execute identical code. *)
type cache = {
  mutable grid : (Grid.t * int) option;  (** grid + the bin width it was built at *)
  ws : Mcmf.Workspace.t;
  mutable reused_last : bool;  (** the last run reused the cached grid *)
}

let fresh_cache () =
  { grid = None; ws = Mcmf.Workspace.create (); reused_last = false }

(* A cached grid is reusable for a new perturbed design exactly when the
   rebuilt grid would be structurally identical: same dies and macros
   (deltas only ever add macros, which [Perturb] flags as [structural]),
   same cell count (the grid's per-cell state arrays are sized by it) and
   same derived bin width (it feeds segment partitioning).  The grid
   keeps flat copies of every cell's gp anchor, weight and widths, so a
   reused grid is rebound with [Grid.rebind], which recopies them from the
   new design; only the bins, segments and adjacency are reused. *)
let grid_for ~cache ~(p : Perturb.t) design bin_width =
  match cache.grid with
  | Some (g, bw)
    when bw = bin_width
         && (not p.Perturb.structural)
         && Tdf_netlist.Design.n_cells g.Grid.design
            = Tdf_netlist.Design.n_cells design ->
    Tdf_telemetry.incr "eco.grid_reuses";
    cache.reused_last <- true;
    Grid.rebind g design;
    g
  | _ ->
    Tdf_telemetry.incr "eco.grid_builds";
    cache.reused_last <- false;
    let g = Grid.build design ~bin_width in
    cache.grid <- Some (g, bin_width);
    g

let run_cached ?(cfg = default_cfg) ~cache design prev delta =
  Tdf_telemetry.span "eco.run" @@ fun () ->
  match
    Tdf_telemetry.span "eco.perturb" (fun () -> Perturb.apply design prev delta)
  with
  | Error msg -> Error (Invalid_delta msg)
  | Ok p ->
    let design = p.Perturb.design and base = p.Perturb.base in
    let bin_width =
      Flow3d.flow_bin_width design ~factor:cfg.flow.Config.bin_width_factor
    in
    let grid = grid_for ~cache ~p design bin_width in
    let ws = cache.ws in
    let widenings = ref 0 in
    let rec attempt radius tries =
      if tries > cfg.max_widenings then fallback ()
      else begin
        match
          Tdf_telemetry.span "eco.reset_to" (fun () -> Grid.reset_to grid base)
        with
        | Error pe -> Error (Unplaceable pe)
        | Ok () ->
          (* Seed from wherever the grid put the perturbed cells (the
             placement fallback chain may have nudged them off-target)
             plus any overflowed bin — on a legal previous placement the
             latter is a subset of the former, but an imperfect [prev]
             still converges this way. *)
          let seeds =
            List.concat_map (Grid.cell_bins grid) p.Perturb.seeds
            @ List.map
                (fun (b : Grid.bin) -> b.Grid.id)
                (Grid.overflowed_bins grid)
          in
          let mask = Grid.dirty_region grid ~seeds ~radius in
          let dirty = Array.fold_left (fun a m -> if m then a + 1 else a) 0 mask in
          Tdf_telemetry.count "eco.dirty_bins" dirty;
          let widen reason =
            Tdf_telemetry.incr "eco.widenings";
            incr widenings;
            Tdf_telemetry.count "eco.widen_radius" radius;
            ignore reason;
            attempt (radius * cfg.widen_factor) (tries + 1)
          in
          if dirty = Grid.n_bins grid && tries > 0 then
            (* The region already covers the whole grid and still failed:
               more widening cannot help. *)
            fallback ()
          else if
            not
              (Tdf_telemetry.span "eco.precheck" (fun () ->
                   precheck ~ws ~flow_cfg:cfg.flow grid mask))
          then
            widen "infeasible"
          else begin
            let budget =
              match cfg.budget_ms with
              | None -> Budget.unlimited
              | Some ms -> Budget.create ~wall_ms:ms ()
            in
            let ps = Flow3d.local_pass ~mask cfg.flow ~budget grid in
            if
              ps.Flow3d.pass_failed > 0
              || (not ps.Flow3d.pass_complete)
              || Grid.total_overflow grid > eps
            then widen "residual overflow"
            else begin
              let placement = Placement.copy base in
              let only = dirty_segment_mask grid mask in
              Flow3d.place_segments ~only grid placement;
              if
                Tdf_telemetry.span "eco.legality" (fun () ->
                    Legality.is_legal design placement)
              then begin
                let dirty_segments =
                  Array.fold_left (fun a m -> if m then a + 1 else a) 0 only
                in
                Ok
                  {
                    design;
                    placement;
                    perturb = p;
                    stats =
                      {
                        dirty_bins = dirty;
                        dirty_segments;
                        total_bins = Grid.n_bins grid;
                        widenings = !widenings;
                        fallbacks = 0;
                        path = Local { radius };
                      };
                  }
              end
              else widen "illegal after placement"
            end
          end
      end
    and fallback () =
      if not cfg.fallback then
        Error
          (Local_failed
             (Printf.sprintf "no legal local solve within %d widenings"
                cfg.max_widenings))
      else begin
        Tdf_telemetry.incr "eco.fallbacks";
        let opts =
          { Pipeline.default_options with Pipeline.budget_ms = cfg.budget_ms }
        in
        match Pipeline.run ~opts ~cfg:cfg.flow ~start:base design with
        | Error e -> Error (Fallback_failed (Tdf_robust.Error.to_string e))
        | Ok r ->
          if not r.Pipeline.legal then
            Error
              (Fallback_failed
                 (Printf.sprintf "pipeline returned an illegal placement (%s)"
                    (Pipeline.path_name r.Pipeline.path)))
          else
            Ok
              {
                design;
                placement = r.Pipeline.placement;
                perturb = p;
                stats =
                  {
                    dirty_bins = Grid.n_bins grid;
                    dirty_segments = Array.length grid.Grid.segments;
                    total_bins = Grid.n_bins grid;
                    widenings = !widenings;
                    fallbacks = 1;
                    path = Full r.Pipeline.path;
                  };
              }
      end
    in
    attempt (max 1 cfg.initial_radius) 0

let run ?cfg design prev delta =
  run_cached ?cfg ~cache:(fresh_cache ()) design prev delta

module Session = struct
  type t = {
    mutable design : Tdf_netlist.Design.t;
    mutable placement : Placement.t;
    cache : cache;
    cfg : cfg;
    mutable ecos : int;
    mutable grid_reuses : int;
  }

  let create ?(cfg = default_cfg) design placement =
    {
      design;
      placement = Placement.copy placement;
      cache = fresh_cache ();
      cfg;
      ecos = 0;
      grid_reuses = 0;
    }

  let design t = t.design

  let placement t = t.placement

  let ecos t = t.ecos

  let grid_reuses t = t.grid_reuses

  let set_placement t design placement =
    (* A different design invalidates the cached grid (cell arrays may be
       sized differently); re-legalizing the same design keeps it warm. *)
    if not (t.design == design) then begin
      t.design <- design;
      t.cache.grid <- None
    end;
    t.placement <- Placement.copy placement

  let eco ?cfg t delta =
    let cfg =
      match cfg with
      | Some c -> c
      | None -> t.cfg
    in
    match run_cached ~cfg ~cache:t.cache t.design t.placement delta with
    | Error _ as e -> e
    | Ok r ->
      t.design <- r.design;
      t.placement <- Placement.copy r.placement;
      t.ecos <- t.ecos + 1;
      if t.cache.reused_last then t.grid_reuses <- t.grid_reuses + 1;
      Ok r

  let grid_reused_last t = t.cache.reused_last

  let state_digest t =
    let module Crc32 = Tdf_util.Crc32 in
    let p = t.placement in
    let buf = Bytes.create 8 in
    let put st v =
      Bytes.set_int64_le buf 0 (Int64.of_int v);
      Crc32.update_bytes st buf
    in
    let fold = Array.fold_left put in
    let st = put Crc32.empty (Placement.n_cells p) in
    let st = fold st p.Placement.x in
    let st = fold st p.Placement.y in
    let st = fold st p.Placement.die in
    Crc32.to_hex (Crc32.value st)
end
