module Flow3d = Tdf_legalizer.Flow3d
module Config = Tdf_legalizer.Config

type point = {
  sc_scale : float;
  sc_cells : int;
  sc_bins : int;
  tetris_s : float;
  abacus_s : float;
  bonn_s : float;
  bonn_pops_per_aug : float;
  ours_s : float;
  ours_pops_per_aug : float;
}

let run ?(scales = [ 0.02; 0.05; 0.1; 0.2 ]) suite case =
  List.map
    (fun scale ->
      Tdf_telemetry.span "scaling.point" @@ fun () ->
      let design = Tdf_benchgen.Gen.generate_by_name ~scale suite case in
      (* The grid Ours legalizes on, at the default bin width. *)
      let bins =
        Tdf_grid.Grid.n_bins
          (Tdf_grid.Grid.build design
             ~bin_width:
               (Flow3d.flow_bin_width design
                  ~factor:Config.default.Config.bin_width_factor))
      in
      let _, tetris_s = Tdf_util.Timer.time (fun () -> Tdf_baselines.Tetris.legalize design) in
      let _, abacus_s = Tdf_util.Timer.time (fun () -> Tdf_baselines.Abacus.legalize design) in
      let bonn, bonn_s =
        Tdf_util.Timer.time (fun () ->
            Flow3d.legalize ~cfg:Config.bonn_emulation design)
      in
      let ours, ours_s = Tdf_util.Timer.time (fun () -> Flow3d.legalize design) in
      (* search effort per augmentation: the fair comparison between the
         whole-graph Dijkstra and the (1+α)-bounded search *)
      let per_aug (r : Flow3d.result) =
        float_of_int r.Flow3d.stats.Flow3d.expansions
        /. float_of_int (max 1 r.Flow3d.stats.Flow3d.augmentations)
      in
      {
        sc_scale = scale;
        sc_cells = Tdf_netlist.Design.n_cells design;
        sc_bins = bins;
        tetris_s;
        abacus_s;
        bonn_s;
        bonn_pops_per_aug = per_aug bonn;
        ours_s;
        ours_pops_per_aug = per_aug ours;
      })
    scales

let render points =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "Scaling study: runtime and search effort vs case size\n";
  out "%7s %8s %7s | %7s %7s | %8s %12s | %8s %12s\n" "scale" "cells" "bins"
    "tetris" "abacus" "bonn(s)" "pops/aug" "ours(s)" "pops/aug";
  List.iter
    (fun p ->
      out "%7.3f %8d %7d | %7.2f %7.2f | %8.2f %12.0f | %8.2f %12.0f\n"
        p.sc_scale p.sc_cells p.sc_bins p.tetris_s p.abacus_s p.bonn_s
        p.bonn_pops_per_aug p.ours_s p.ours_pops_per_aug)
    points;
  out
    "(In this shared-engine reproduction both searches stay local: the relay \
     constraint\n (a bin can only pass on what it holds or absorbs) bounds \
     reachability, so the\n whole-graph Dijkstra blow-up the paper reports \
     for BonnPlaceLegal at full contest\n sizes does not materialize at \
     laptop scale — see EXPERIMENTS.md.)\n";
  Buffer.contents buf
