(* Tile-sharded speculation: partition determinism, mask containment and
   the headline equivalence — [Flow3d.run_tiled] is byte-identical to the
   untiled [Flow3d.run] at every tiles × jobs combination. *)

module G = Tdf_grid.Grid
module Flow3d = Tdf_legalizer.Flow3d
module Tile = Tdf_legalizer.Tile
module Spec = Tdf_benchgen.Spec

let tile_counts = [ 1; 2; 4; 9 ]

let job_counts = [ 1; 2; 8 ]

let with_jobs jobs f =
  let before = Tdf_par.jobs () in
  Fun.protect
    ~finally:(fun () -> Tdf_par.set_jobs before)
    (fun () ->
      Tdf_par.set_jobs jobs;
      f ())

let small_grid () =
  let d = Tdf_benchgen.Gen.generate ~scale:0.02 (Spec.find Spec.Iccad2023 "case2") in
  let bw = Flow3d.flow_bin_width d ~factor:10. in
  let g = G.build d ~bin_width:bw in
  G.assign_initial_exn g (Tdf_netlist.Placement.initial d);
  g

(* The partition is a pure function of the grid geometry and the tile
   count: identical at every job count, total over the bins, and within
   range. *)
let test_partition_shape_only () =
  let g = small_grid () in
  List.iter
    (fun tiles ->
      let parts =
        List.map (fun jobs -> with_jobs jobs (fun () -> Tile.partition g ~tiles)) job_counts
      in
      let first = List.hd parts in
      Array.iter
        (fun t ->
          Alcotest.(check bool)
            (Printf.sprintf "tiles=%d: tile id in range" tiles)
            true
            (t >= 0 && t < tiles))
        first;
      List.iteri
        (fun i p ->
          Alcotest.(check bool)
            (Printf.sprintf "tiles=%d: partition at jobs=%d matches jobs=%d" tiles
               (List.nth job_counts (i + 1))
               (List.hd job_counts))
            true (p = first))
        (List.tl parts))
    tile_counts

(* Masks cover their interior, respect [within], and the halo ring stays
   connected to the interior (every mask bin is reachable, by BFS
   construction). *)
let test_masks_cover_interior () =
  let g = small_grid () in
  List.iter
    (fun tiles ->
      let tl = Tile.make g ~tiles in
      Array.iteri
        (fun bid t ->
          if t >= 0 then
            Alcotest.(check bool)
              (Printf.sprintf "tiles=%d: bin %d inside its own mask" tiles bid)
              true
              tl.Tile.t_masks.(t).(bid))
        tl.Tile.t_part)
    tile_counts

let cell_sig g cell =
  G.cell_bins g cell
  |> List.map (fun bid -> Printf.sprintf "%d:%h" bid (G.frag_rho_in g ~cell (g.G.bins.(bid))))
  |> String.concat ","

(* A masked tiled pass must never move a cell all of whose bins are
   masked out — the frozen-region contract the ECO path relies on.
   Randomize the mask seed and the tile count. *)
let test_masked_pass_freezes_outside =
  Props.test ~count:15 "tiled pass never moves a fully masked-out cell"
    (Props.pair (Props.int_range 0 1000) (Props.int_range 1 9))
    (fun (seed, tiles) ->
      let g = small_grid () in
      let n = G.n_bins g in
      let mask = G.dirty_region g ~seeds:[ seed mod n ] ~radius:6 in
      let n_cells = Array.length g.G.cell_seg in
      let frozen =
        List.filter
          (fun c ->
            let bins = G.cell_bins g c in
            bins <> [] && List.for_all (fun b -> not mask.(b)) bins)
          (List.init n_cells Fun.id)
      in
      let before = List.map (fun c -> (c, cell_sig g c)) frozen in
      ignore
        (Flow3d.tiled_local_pass ~mask ~tiles Tdf_legalizer.Config.default
           ~budget:Tdf_util.Budget.unlimited g);
      List.for_all (fun (c, s) -> String.equal s (cell_sig g c)) before)

(* Headline equivalence: the tiled run's placement is byte-identical to
   the untiled run on every tiles × jobs combination. *)
let equivalence_cases =
  [ (Spec.Iccad2022, "case2"); (Spec.Iccad2023, "case2"); (Spec.Iccad2023, "case3") ]

let test_run_tiled_equivalence () =
  List.iter
    (fun (suite, case) ->
      let design = Tdf_benchgen.Gen.generate ~scale:0.02 (Spec.find suite case) in
      let untiled =
        match Flow3d.run design with
        | Ok r -> Tdf_io.Text.placement_to_string design r.Flow3d.placement
        | Error e -> Alcotest.fail (Flow3d.error_to_string e)
      in
      List.iter
        (fun tiles ->
          List.iter
            (fun jobs ->
              let tiled =
                with_jobs jobs (fun () ->
                    match Flow3d.run_tiled ~tiles design with
                    | Ok r -> Tdf_io.Text.placement_to_string design r.Flow3d.placement
                    | Error e -> Alcotest.fail (Flow3d.error_to_string e))
              in
              Alcotest.(check string)
                (Printf.sprintf "%s/%s: tiles=%d jobs=%d matches untiled"
                   (Spec.suite_slug suite) case tiles jobs)
                untiled tiled)
            [ 1; 4 ])
        tile_counts)
    equivalence_cases

(* Knob precedence mirrors --jobs: CLI beats environment beats default;
   out-of-range values clamp. *)
let test_knob () =
  Tile.set_tiles 0;
  Alcotest.(check int) "set_tiles clamps up" 1 (Tile.tiles ());
  Tile.set_tiles 1000;
  Alcotest.(check int) "set_tiles clamps down" 64 (Tile.tiles ());
  Tile.set_tiles 4;
  Alcotest.(check int) "set_tiles wins" 4 (Tile.tiles ());
  Tile.set_tiles 1

let suite =
  [
    Alcotest.test_case "partition is a function of grid shape only" `Quick
      test_partition_shape_only;
    Alcotest.test_case "tile masks cover their interior" `Quick test_masks_cover_interior;
    test_masked_pass_freezes_outside;
    Alcotest.test_case "run_tiled byte-identical to run (tiles x jobs)" `Quick
      test_run_tiled_equivalence;
    Alcotest.test_case "tile knob clamps and precedence" `Quick test_knob;
  ]
