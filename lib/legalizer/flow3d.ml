module Grid = Tdf_grid.Grid
module Heap = Tdf_util.Heap_int
module Design = Tdf_netlist.Design
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Placement = Tdf_netlist.Placement

type stats = {
  augmentations : int;
  expansions : int;
  d2d_cells : int;
  failed_supplies : int;
  reliefs : int;
  residual_overflow : float;
  post_opt_rounds : int;
  complete : bool;
}

type result = { placement : Placement.t; stats : stats }

type error =
  | No_segment of { cell : int; die : int }
  | Injected of { site : string }

let error_to_string = function
  | No_segment { cell; die } ->
    Printf.sprintf "flow3d: cell %d fits in no segment (requested die %d)" cell
      die
  | Injected { site } -> Printf.sprintf "flow3d: injected failure at %s" site

exception Place_failed of Grid.place_error

let flow_bin_width design ~factor =
  let n = Design.n_cells design in
  if n = 0 then 1
  else begin
    let nd = Design.n_dies design in
    let sum =
      Array.fold_left
        (fun acc c -> acc + Cell.width_on c (Cell.nearest_die c ~n_dies:nd))
        0 design.Design.cells
    in
    let avg = float_of_int sum /. float_of_int n in
    max 1 (int_of_float (Float.round (factor *. avg)))
  end

let eps = 1e-6

(* Supplies are queued as exact micro-units so the priority heap stays
   monomorphic on ints and staleness is plain integer (in)equality —
   no epsilon dance against a negated float key.  One micro-unit mirrors
   the historical [eps = 1e-6] resolution threshold. *)
let supply_micro b = int_of_float (Float.round (Grid.supply b *. 1e6))

type pass_stats = {
  pass_augmentations : int;
  pass_expansions : int;
  pass_failed : int;
  pass_reliefs : int;
  pass_complete : bool;
}

(* Alg. 2 lines 4-10: resolve supply bins in descending supply order.
   With [mask] set, the pass is localized: only masked-in supply bins are
   queued, the path search never expands outside the mask, and relief
   destinations stay inside it — everything else is frozen.  This is the
   re-legalization kernel of the incremental (ECO) engine. *)
let local_pass ?mask cfg ~budget grid =
  Tdf_telemetry.span "flow3d.flow_pass" @@ fun () ->
  let state = Augment.create_state grid in
  let scratch = Mover.create_scratch () in
  let q = Heap.create () in
  let retries = Hashtbl.create 64 in
  let in_mask bid = match mask with None -> true | Some m -> m.(bid) in
  List.iter
    (fun (b : Grid.bin) ->
      if in_mask b.Grid.id then Heap.add q ~key:(-supply_micro b) b.Grid.id)
    (Grid.overflowed_bins grid);
  let augmentations = ref 0 and expansions = ref 0 and failed = ref 0 in
  let reliefs = ref 0 in
  let complete = ref true in
  let relief_budget = 8 * Grid.n_bins grid in
  let rec loop () =
    if Tdf_util.Failpoint.fire "flow3d.timeout" then
      Tdf_util.Budget.exhaust budget;
    if Tdf_util.Budget.exhausted budget then begin
      (* Over budget: leave the remaining supply unresolved; the residual
         overflow in the stats reports how much was left on the table. *)
      if not (Heap.is_empty q) then complete := false
    end
    else
      match Heap.pop q with
      | None -> ()
      | Some (key, bid) ->
      let b = grid.Grid.bins.(bid) in
      let msup = supply_micro b in
      if msup <= 1 then loop ()
      else if key <> -msup then begin
        (* stale priority: reinsert with the current supply *)
        Heap.add q ~key:(-msup) bid;
        loop ()
      end
      else begin
        let requeue_or_fail msup' =
          let r = try Hashtbl.find retries bid with Not_found -> 0 in
          if msup' < msup then begin
            (* progress: keep going *)
            Hashtbl.replace retries bid 0;
            Heap.add q ~key:(-msup') bid
          end
          else if r + 1 <= cfg.Config.max_retries then begin
            (* No progress; other augmentations may free space — retry. *)
            Hashtbl.replace retries bid (r + 1);
            Heap.add q ~key:(-msup') bid
          end
          else incr failed
        in
        let found = Augment.search ?mask cfg grid state ~src:b in
        expansions := !expansions + Augment.expansions state;
        (match found with
        | None -> (
          match
            if !reliefs < relief_budget then Relief.relieve ?mask cfg grid ~src:b
            else None
          with
          | Some _ ->
            incr reliefs;
            let msup' = supply_micro b in
            if msup' > 1 then Heap.add q ~key:(-msup') bid
          | None -> requeue_or_fail (supply_micro b))
        | Some path ->
          incr augmentations;
          Tdf_util.Budget.tick budget 1;
          ignore (Mover.realize cfg grid scratch path);
          let msup' = supply_micro b in
          if msup' > 1 then requeue_or_fail msup');
        loop ()
      end
  in
  loop ();
  Tdf_telemetry.count "flow3d.augmentations" !augmentations;
  Tdf_telemetry.count "flow3d.failed_supplies" !failed;
  Tdf_telemetry.count "flow3d.reliefs" !reliefs;
  if not !complete then Tdf_telemetry.incr "flow3d.budget_stops";
  {
    pass_augmentations = !augmentations;
    pass_expansions = !expansions;
    pass_failed = !failed;
    pass_reliefs = !reliefs;
    pass_complete = !complete;
  }

(* §III-D: Abacus PlaceRow on every segment, in segment order through
   one reused buffer; writes final positions.  Each segment touches only
   the placement slots of its own cells.  A cell's fragments all lie in
   one segment, and the cell is staged once, at the fragment heading its
   own list.  With [only] set, only the selected segments are re-placed;
   the untouched ones keep whatever [p] already records (the incremental
   engine's frozen segments). *)
let place_segments ?only grid (p : Placement.t) =
  Tdf_telemetry.span "flow3d.place_row" @@ fun () ->
  let design = grid.Grid.design in
  let selected sid = match only with None -> true | Some m -> m.(sid) in
  let row = Place_row.create () in
  Array.iter
    (fun s ->
      if selected s.Grid.sid then begin
        Place_row.clear row;
        Array.iter
          (fun bid ->
            let f = ref (Grid.first_in_bin grid bid) in
            while !f >= 0 do
              let c = Grid.frag_cell grid !f in
              if Grid.first_of_cell grid c = !f then
                Place_row.add row ~cell:c ~x:grid.Grid.gp_x.(c)
                  ~w:(Grid.cell_width grid ~cell:c ~die:s.Grid.s_die);
              f := Grid.next_in_bin grid !f
            done)
          s.Grid.s_bins;
        if Place_row.length row > 0 then begin
          let die = Design.die design s.Grid.s_die in
          Place_row.place row ~weight:grid.Grid.weight ~site:die.Die.site_width
            ~anchor:die.Die.outline.Tdf_geometry.Rect.x ~lo:s.Grid.s_lo
            ~hi:s.Grid.s_hi;
          let y = Die.row_y die s.Grid.s_row in
          for i = 0 to Place_row.length row - 1 do
            let c = Place_row.cell row i in
            p.Placement.x.(c) <- Place_row.placed_x row i;
            p.Placement.y.(c) <- y;
            p.Placement.die.(c) <- s.Grid.s_die
          done
        end
      end)
    grid.Grid.segments

(* Normalized displacement metrics (the paper's Tables are row-height
   normalized, so post-opt acceptance must be too: a raw improvement on a
   tall-row die can be a normalized regression). *)
let norm_disp design p c =
  let h_r = (Design.die design p.Placement.die.(c)).Die.row_height in
  float_of_int (Placement.displacement design p c) /. float_of_int h_r

let avg_disp design p =
  let n = Placement.n_cells p in
  if n = 0 then 0.
  else begin
    let sum = ref 0. in
    for c = 0 to n - 1 do
      sum := !sum +. norm_disp design p c
    done;
    !sum /. float_of_int n
  end

let max_disp design p =
  let n = Placement.n_cells p in
  let m = ref 0. in
  for c = 0 to n - 1 do
    let d = norm_disp design p c in
    if d > !m then m := d
  done;
  !m

(* Raises [Place_failed] on an unplaceable cell; [run] catches it.  The
   grid is filled from [targets] (default [start]).  When [reuse] carries
   the grid of a previous pass at the same bin width, the
   bins/segments/adjacency are kept and only the assignment is rebuilt
   ([Grid.reset_to]) instead of reconstructing the whole graph. *)
let one_pass cfg ~budget design ~bin_factor ?reuse (start : Placement.t)
    ?(targets = start) () =
  let grid =
    match reuse with
    | Some grid ->
      Tdf_telemetry.span "flow3d.grid_reset" @@ fun () ->
      (match Grid.reset_to grid targets with
      | Ok () -> grid
      | Error e -> raise (Place_failed e))
    | None ->
      Tdf_telemetry.span "flow3d.grid_build" @@ fun () ->
      let bw = flow_bin_width design ~factor:bin_factor in
      let grid = Grid.build design ~bin_width:bw in
      (match Grid.assign_initial grid targets with
      | Ok () -> grid
      | Error e -> raise (Place_failed e))
  in
  let ps = local_pass cfg ~budget grid in
  let p = Placement.copy start in
  place_segments grid p;
  ( p,
    ps.pass_augmentations,
    ps.pass_expansions,
    ps.pass_failed,
    ps.pass_reliefs,
    Grid.total_overflow grid,
    ps.pass_complete,
    grid )

let count_d2d design (p : Placement.t) =
  let nd = Design.n_dies design in
  let n = Placement.n_cells p in
  let count = ref 0 in
  for c = 0 to n - 1 do
    let initial = Cell.nearest_die (Design.cell design c) ~n_dies:nd in
    if p.Placement.die.(c) <> initial then incr count
  done;
  !count

(* Post-optimization re-legalizes on a finer grid than the flow pass:
   w_v = 5·w̄_c (§III-F). *)
let post_opt_bin_factor = 5.

let run ?(cfg = Config.default) ?(budget = Tdf_util.Budget.unlimited) ?start
    design =
  Tdf_telemetry.span "flow3d.legalize" @@ fun () ->
  if Tdf_util.Failpoint.fire "flow3d.flow_pass" then
    Error (Injected { site = "flow3d.flow_pass" })
  else begin
    let start =
      match start with Some p -> p | None -> Placement.initial design
    in
    try
      let p, aug, exp_, failed, reliefs, residual, complete, _ =
        one_pass cfg ~budget design
          ~bin_factor:cfg.Config.bin_width_factor start ()
      in
      let p = ref p in
      let aug = ref aug and exp_ = ref exp_ and failed = ref failed in
      let reliefs = ref reliefs in
      let residual = ref residual in
      let complete = ref complete in
      let rounds = ref 0 in
      (* All post-opt passes share one bin width, so the first pass's grid
         instance is reset and reused by the following ones. *)
      let post_grid = ref None in
      let continue = ref true and pass = ref 0 in
      while
        !continue
        && !pass < cfg.Config.post_opt_passes
        && not (Tdf_util.Budget.exhausted budget)
      do
        incr pass;
        Tdf_telemetry.span "flow3d.post_opt" @@ fun () ->
        match Post_opt.select_victims design !p with
        | [] -> continue := false
        | victims ->
          let targets = Placement.copy !p in
          List.iter
            (fun c ->
              let x, y = Post_opt.midpoint_target design !p c in
              targets.Placement.x.(c) <- x;
              targets.Placement.y.(c) <- y)
            victims;
          let p', aug', exp', failed', reliefs', residual', complete', grid' =
            one_pass cfg ~budget design
              ~bin_factor:post_opt_bin_factor ?reuse:!post_grid
              !p ~targets ()
          in
          post_grid := Some grid';
          aug := !aug + aug';
          exp_ := !exp_ + exp';
          reliefs := !reliefs + reliefs';
          complete := !complete && complete';
          let old_max = max_disp design !p in
          let new_max = max_disp design p' in
          let improved =
            residual' <= eps
            && (new_max < old_max -. 1e-9
               || (Float.abs (new_max -. old_max) <= 1e-9
                  && avg_disp design p' <= avg_disp design !p))
          in
          if improved then begin
            p := p';
            failed := !failed + failed';
            residual := residual';
            incr rounds
          end
          else continue := false
      done;
      Tdf_telemetry.count "flow3d.post_opt_rounds" !rounds;
      if Tdf_telemetry.enabled () then
        Tdf_telemetry.count "flow3d.d2d_cells" (count_d2d design !p);
      Ok
        {
          placement = !p;
          stats =
            {
              augmentations = !aug;
              expansions = !exp_;
              d2d_cells = count_d2d design !p;
              failed_supplies = !failed;
              reliefs = !reliefs;
              residual_overflow = !residual;
              post_opt_rounds = !rounds;
              complete = !complete;
            };
        }
    with Place_failed e ->
      Error (No_segment { cell = e.Grid.pe_cell; die = e.Grid.pe_die })
  end

let legalize_from ?(cfg = Config.default) design start =
  match run ~cfg ~start design with
  | Ok r -> r
  | Error e -> invalid_arg (error_to_string e)

let legalize ?(cfg = Config.default) design =
  legalize_from ~cfg design (Placement.initial design)
