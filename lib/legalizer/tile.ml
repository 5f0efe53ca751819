(* Tile-sharded speculation layer of the flow legalizer.

   The bin grid is cut into K fixed spatial tiles (a pure function of the
   grid geometry, never of the job count); each tile runs a masked flow
   pass on a private clone of the grid, recording a log of proposals (one
   per augmenting search) together with the versions of every bin and die
   the search consulted.  The authoritative pass then replays the ordinary
   sequential supply loop and, at each search site, consumes the owning
   tile's next proposal if and only if it provably equals what the live
   search would return: the popped bin and its exact supply match, the
   tile mask never pruned an expansion the live mask would allow, and no
   bin or die in the proposal's read set has been written since the clone
   was taken (version vectors, bumped segment-wide on every commit by both
   sides).  Any mismatch conservatively discards the tile's remaining log
   and falls back to a live search, so the committed result is equal to
   the untiled pass by construction — bit-identical at every [--tiles] and
   [--jobs] combination — while validated speculation skips the search
   cost that was paid in parallel. *)

module Grid = Tdf_grid.Grid
module Heap = Tdf_util.Heap_int

(* ------------------------------------------------------------------ *)
(* Process-wide tile count (CLI --tiles > TDFLOW_TILES > 1), mirroring  *)
(* the Tdf_par jobs knob.                                              *)
(* ------------------------------------------------------------------ *)

let clamp n = max 1 (min n 64)

let env_tiles () =
  match Sys.getenv_opt "TDFLOW_TILES" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some (clamp n)
    | _ -> None)
  | None -> None

let requested : int option ref = ref None

let set_tiles n = requested := Some (clamp n)

let tiles () =
  match !requested with
  | Some n -> n
  | None -> Option.value (env_tiles ()) ~default:1

(* ------------------------------------------------------------------ *)
(* Partition and halo masks                                            *)
(* ------------------------------------------------------------------ *)

let default_halo = 4

(* Near-square kx × ky factorization with ky ≤ kx, so K = 2 splits into
   columns and K = 4 / 9 into square grids. *)
let split k =
  let r = int_of_float (Float.sqrt (float_of_int k)) in
  let rec down d = if d <= 1 then 1 else if k mod d = 0 then d else down (d - 1) in
  let ky = down (max 1 r) in
  (k / ky, ky)

(* Bin id → tile id over the (x, y) bounding box of the allowed bins,
   spanning every die, so D2D edges stay inside one tile column.  Reads
   only static geometry: the same grid shape yields the same partition at
   any job count. *)
let partition ?within grid ~tiles =
  let k = clamp tiles in
  let n = Grid.n_bins grid in
  let part = Array.make n (-1) in
  let allowed bid = match within with None -> true | Some m -> m.(bid) in
  if k <= 1 then begin
    for i = 0 to n - 1 do
      if allowed i then part.(i) <- 0
    done;
    part
  end
  else begin
    let kx, ky = split k in
    let x0 = ref max_int and x1 = ref min_int in
    let y0 = ref max_int and y1 = ref min_int in
    Array.iter
      (fun (b : Grid.bin) ->
        if allowed b.Grid.id then begin
          if b.Grid.x < !x0 then x0 := b.Grid.x;
          if b.Grid.x + b.Grid.width > !x1 then x1 := b.Grid.x + b.Grid.width;
          if b.Grid.y < !y0 then y0 := b.Grid.y;
          if b.Grid.y > !y1 then y1 := b.Grid.y
        end)
      grid.Grid.bins;
    if !x0 > !x1 then part
    else begin
      let w = max 1 (!x1 - !x0) and h = max 1 (!y1 - !y0 + 1) in
      Array.iter
        (fun (b : Grid.bin) ->
          if allowed b.Grid.id then begin
            (* 2·center keeps the bucket computation integral *)
            let cx = (2 * (b.Grid.x - !x0)) + b.Grid.width in
            let tx = min (kx - 1) (cx * kx / (2 * w)) in
            let ty = min (ky - 1) ((b.Grid.y - !y0) * ky / h) in
            part.(b.Grid.id) <- (ty * kx) + tx
          end)
        grid.Grid.bins;
      part
    end
  end

type t = {
  t_k : int;  (** tile count after clamping *)
  t_part : int array;  (** bin id → owning tile, -1 outside [within] *)
  t_masks : bool array array;  (** tile → interior ∪ halo ring mask *)
}

let make ?within ?(halo = default_halo) grid ~tiles =
  let k = clamp tiles in
  let part = partition ?within grid ~tiles:k in
  let masks =
    Array.init k (fun t ->
        let seeds = ref [] in
        Array.iteri (fun bid p -> if p = t then seeds := bid :: !seeds) part;
        Grid.region ?within grid ~seeds:!seeds ~radius:halo)
  in
  { t_k = k; t_part = part; t_masks = masks }

(* ------------------------------------------------------------------ *)
(* Version ledger                                                      *)
(* ------------------------------------------------------------------ *)

(* A search that reads bin [b] depends on [b]'s own fragments plus, via
   [Grid.cur_disp], the fragment span of every cell fragmented in [b] — and a
   write that changes such a cell's span necessarily touches a bin the
   cell occupied.  So the exact write footprint of a commit is the path's
   bins plus every moved cell's pre-move span (the {!commit_trace}), and
   bumping exactly those bins makes "recorded read versions unchanged"
   prove the search would read identical state.  Both the clone pass and
   the authoritative pass bump the same trace for the same commit, so the
   ledgers advance 1:1 on reconciled proposals.  Die utilization needs no
   version: the only die state a search reads is the [die_used] float,
   whose cap comparisons are re-evaluated by value at consume time. *)
type ledger = { l_ver : int array }

let ledger grid = { l_ver = Array.make (Grid.n_bins grid) 0 }

let bump_bins led bids =
  List.iter (fun bid -> led.l_ver.(bid) <- led.l_ver.(bid) + 1)
    (List.sort_uniq compare bids)

(* The commit trace: the applied picks (the fingerprint compared between
   clone and authoritative realizations) plus the pre-move span of every
   moved cell (the write footprint beyond the path's own bins). *)
type commit_trace = {
  mutable tr_moves : (int * int * int64) list;  (** (edge, cell, rho bits) *)
  mutable tr_spans : int list;  (** pre-move bins of every moved cell *)
}

let trace () = { tr_moves = []; tr_spans = [] }

let trace_probe grid tr ~edge ~cell ~rho =
  tr.tr_moves <- (edge, cell, Int64.bits_of_float rho) :: tr.tr_moves;
  let f = ref (Grid.first_of_cell grid cell) in
  while !f >= 0 do
    tr.tr_spans <- Grid.frag_bin grid !f :: tr.tr_spans;
    f := Grid.next_of_cell grid !f
  done

let trace_moves tr = Array.of_list (List.rev tr.tr_moves)

let bump_path led tr (path : Augment.path) =
  bump_bins led
    (List.rev_append tr.tr_spans (List.map (fun n -> n.Augment.pn_bin) path))

(* Relief moves are never speculated (always live), so a coarse
   segment-wide footprint only costs false conflicts, never soundness:
   the moved cell's pre-move span lies inside [src]'s segment. *)
let bump_move led grid ~(src : Grid.bin) ~(dst : Grid.bin) =
  let seg_bins sid = Array.to_list grid.Grid.segments.(sid).Grid.s_bins in
  bump_bins led (seg_bins src.Grid.seg @ seg_bins dst.Grid.seg)

(* ------------------------------------------------------------------ *)
(* Proposals and speculation                                           *)
(* ------------------------------------------------------------------ *)

let supply_micro b = int_of_float (Float.round (Grid.supply b *. 1e6))

type proposal = {
  p_bid : int;  (** supply bin the clone pass popped *)
  p_key : int;  (** its exact micro-supply at pop time *)
  p_path : Augment.path option;  (** the search result to substitute *)
  p_expansions : int;  (** queue pops the recorded search performed *)
  p_reads : (int * int) array;  (** (bin, expected version) read set *)
  p_utils : (int * float * bool) array;
      (** utilization-cap evaluations ((die, inflow, outcome)) the search
          performed — replayed against the live [die_used] at consume
          time, so die totals may drift freely as long as every cap
          comparison still resolves the same way *)
  p_moves : (int * int * int64) array;
      (** the clone realization's applied picks ((path edge, cell, rho
          bits)) — the commit fingerprint; [||] for dead-end proposals *)
}

let reads_of led (probe : Augment.probe) =
  let bins = List.sort_uniq compare probe.Augment.pr_bins in
  ( Array.of_list (List.map (fun b -> (b, led.l_ver.(b))) bins),
    Array.of_list (List.rev probe.Augment.pr_utils) )

type scratch = { sp_state : Augment.state; sp_scratch : Mover.scratch }

(* One tile's masked pass on a private clone: the exact supply loop of
   [Flow3d.local_pass] restricted to the tile's interior supply bins and
   halo mask, recording one proposal per search.  The pass stops at the
   first unusable point: a search the tile mask visibly constrained, or a
   dead-end (the live pass relieves there, reading global state a clone
   cannot mirror).  Speculation never ticks the real budget. *)
let speculate_tile ?within cfg tl grid t sc =
  let clone = Grid.clone grid in
  let led = ledger grid in
  let mask = tl.t_masks.(t) in
  let state = sc.sp_state and scratch = sc.sp_scratch in
  let q = Heap.create () in
  let retries = Hashtbl.create 16 in
  List.iter
    (fun (b : Grid.bin) ->
      if tl.t_part.(b.Grid.id) = t then
        Heap.add q ~key:(-supply_micro b) b.Grid.id)
    (Grid.overflowed_bins clone);
  let out = ref [] in
  let rec loop () =
    match Heap.pop q with
    | None -> ()
    | Some (key, bid) ->
      let b = clone.Grid.bins.(bid) in
      let msup = supply_micro b in
      if msup <= 1 then loop ()
      else if key <> -msup then begin
        Heap.add q ~key:(-msup) bid;
        loop ()
      end
      else begin
        let probe = Augment.probe ?ref_mask:within () in
        let res = Augment.search ~mask ~probe cfg clone state ~src:b in
        if probe.Augment.pr_blocked then
          (* The halo visibly constrained this search: its result is
             unusable, but nothing was written, so the rest of the tile
             can keep speculating — the bin is simply left to the
             authoritative pass (skipped, never requeued here). *)
          loop ()
        else begin
          let p_reads, p_utils = reads_of led probe in
          let record p_path p_moves =
            out :=
              {
                p_bid = bid;
                p_key = msup;
                p_path;
                p_expansions = Augment.expansions state;
                p_reads;
                p_utils;
                p_moves;
              }
              :: !out
          in
          match res with
          | None ->
            (* Dead end: the authoritative pass relieves here, a global
               read a clone cannot mirror.  The recorded [None] still
               substitutes the search itself; the clone skips the bin
               (no relief, no requeue) and keeps speculating. *)
            record None [||];
            loop ()
          | Some path ->
            let tr = trace () in
            ignore
              (Mover.realize ~pick_probe:(trace_probe clone tr) cfg clone
                 scratch path);
            record (Some path) (trace_moves tr);
            bump_path led tr path;
            let msup' = supply_micro b in
            if msup' > 1 then begin
              (* verbatim requeue_or_fail of the authoritative loop *)
              let r = try Hashtbl.find retries bid with Not_found -> 0 in
              if msup' < msup then begin
                Hashtbl.replace retries bid 0;
                Heap.add q ~key:(-msup') bid
              end
              else if r + 1 <= cfg.Config.max_retries then begin
                Hashtbl.replace retries bid (r + 1);
                Heap.add q ~key:(-msup') bid
              end
            end;
            loop ()
        end
      end
  in
  loop ();
  Array.of_list (List.rev !out)

let speculate ?within cfg tl grid =
  let logs = Array.make tl.t_k [||] in
  Tdf_par.run_local
    ~local:(fun () -> ref None)
    ~n:tl.t_k
    (fun cell t ->
      let sc =
        match !cell with
        | Some sc -> sc
        | None ->
          let sc =
            {
              sp_state = Augment.create_state grid;
              sp_scratch = Mover.create_scratch ();
            }
          in
          cell := Some sc;
          sc
      in
      Tdf_telemetry.span "flow3d.tile.pass" @@ fun () ->
      logs.(t) <- speculate_tile ?within cfg tl grid t sc);
  logs

(* ------------------------------------------------------------------ *)
(* Consumption by the authoritative pass                               *)
(* ------------------------------------------------------------------ *)

type consumer = {
  c_logs : proposal array array;
  c_pos : int array;  (** next unconsumed proposal; -1 = log discarded *)
  c_led : ledger;
  c_grid : Grid.t;  (** the authoritative grid ([die_used] by value) *)
  c_part : int array;
  mutable c_pending : (int * proposal) option;
      (** last consumed path proposal, awaiting its commit fingerprint *)
  mutable c_reconciled : int;  (** proposals validated and committed *)
  mutable c_conflicts : int;  (** proposals discarded on a mismatch *)
  mutable c_live : int;  (** search sites resolved live (oracle misses) *)
}

let consumer tl logs grid =
  {
    c_logs = logs;
    c_pos = Array.make tl.t_k 0;
    c_led = ledger grid;
    c_grid = grid;
    c_part = tl.t_part;
    c_pending = None;
    c_reconciled = 0;
    c_conflicts = 0;
    c_live = 0;
  }

let reconciled c = c.c_reconciled

let conflicts c = c.c_conflicts

let live_searches c = c.c_live

(* Re-evaluate a recorded utilization-cap comparison against the live die
   totals with the predicate [Select.select] used, so the live search
   resolves the comparison identically iff the outcomes match. *)
let util_still (c : consumer) (d, inflow, passed) =
  Grid.util_ok c.c_grid ~die:d ~inflow = passed

let drop c t pos =
  c.c_conflicts <- c.c_conflicts + (Array.length c.c_logs.(t) - pos);
  c.c_pos.(t) <- -1

let consume c ~(src : Grid.bin) ~msup =
  c.c_pending <- None;
  let miss () =
    c.c_live <- c.c_live + 1;
    None
  in
  let t = c.c_part.(src.Grid.id) in
  if t < 0 then miss ()
  else begin
    let pos = c.c_pos.(t) in
    if pos < 0 || pos >= Array.length c.c_logs.(t) then miss ()
    else begin
      let p = c.c_logs.(t).(pos) in
      if p.p_bid <> src.Grid.id then
        (* The authoritative loop popped a different bin of this tile
           first (interleaving, or a bin the clone skipped as blocked) —
           not a divergence.  Keep the log; the head proposal stays
           consumable at its own bin's next fresh pop. *)
        miss ()
      else begin
        let ok =
          p.p_key = msup
          && Array.for_all (fun (b, v) -> c.c_led.l_ver.(b) = v) p.p_reads
          && Array.for_all (util_still c) p.p_utils
        in
        if ok then begin
          c.c_pos.(t) <- pos + 1;
          c.c_reconciled <- c.c_reconciled + 1;
          if p.p_path <> None then c.c_pending <- Some (t, p);
          Some (p.p_path, p.p_expansions)
        end
        else begin
          drop c t pos;
          miss ()
        end
      end
    end
  end

(* The commit fingerprint: a consumed proposal's clone realization must
   have applied exactly the picks the authoritative realization just did,
   or the clone's state has silently diverged (a drifted die total flipped
   a realize-time cap comparison) and its remaining log is unusable.  The
   commit itself is always correct — the authoritative pass realized the
   proven-equal path on the live grid. *)
let note_path c _grid path ~(tr : commit_trace) =
  (match c.c_pending with
  | Some (t, p) when (match p.p_path with Some pp -> pp == path | None -> false)
    ->
    if p.p_moves <> trace_moves tr then drop c t (max 0 c.c_pos.(t))
  | Some _ | None -> ());
  c.c_pending <- None;
  bump_path c.c_led tr path

let note_move c grid ~src ~dst =
  c.c_pending <- None;
  bump_move c.c_led grid ~src ~dst

(* ------------------------------------------------------------------ *)
(* Process-wide counters (surfaced by the serve daemon's stats reply)   *)
(* ------------------------------------------------------------------ *)

type counters = {
  passes : int;  (** tiled passes run *)
  reconciled : int;
  conflicts : int;
  live : int;
}

let zero = { passes = 0; reconciled = 0; conflicts = 0; live = 0 }

let totals = ref zero

let record c =
  let t = !totals in
  totals :=
    {
      passes = t.passes + 1;
      reconciled = t.reconciled + c.c_reconciled;
      conflicts = t.conflicts + c.c_conflicts;
      live = t.live + c.c_live;
    }

let counters () = !totals

let reset_counters () = totals := zero
