module Config = Tdf_legalizer.Config
module Flow3d = Tdf_legalizer.Flow3d

type point = {
  label : string;
  avg_disp : float;
  max_disp : float;
  runtime_s : float;
  expansions : int;
  d2d_moves : int;
}

let measure ~label cfg design =
  let r, runtime_s = Tdf_util.Timer.time (fun () -> Flow3d.legalize ~cfg design) in
  let s = Tdf_metrics.Displacement.summary design r.Flow3d.placement in
  {
    label;
    avg_disp = s.Tdf_metrics.Displacement.avg_norm;
    max_disp = s.Tdf_metrics.Displacement.max_norm;
    runtime_s;
    expansions = r.Flow3d.stats.Flow3d.expansions;
    d2d_moves = r.Flow3d.stats.Flow3d.d2d_cells;
  }

let sweep_alpha ?(values = [ 0.0; 0.05; 0.1; 0.3 ]) design =
  let points =
    List.map
      (fun alpha ->
        measure
          ~label:(Printf.sprintf "alpha=%.2f" alpha)
          { Config.default with Config.alpha = alpha }
          design)
      values
  in
  points
  @ [
      measure ~label:"exhaustive"
        { Config.default with Config.exhaustive = true }
        design;
    ]

let sweep_bin_width ?(factors = [ 3.; 5.; 10.; 20.; 40. ]) design =
  List.map
    (fun f ->
      measure
        ~label:(Printf.sprintf "w_v=%.0fw" f)
        { Config.default with Config.bin_width_factor = f }
        design)
    factors

let sweep_d2d_cost ?(values = [ 0.; 0.5; 1.; 2.; 4.; 8. ]) design =
  List.map
    (fun c ->
      measure
        ~label:(Printf.sprintf "d2d_cost=%.1f" c)
        { Config.default with Config.d2d_base_cost = c }
        design)
    values
  @ [ measure ~label:"no_d2d" Config.no_d2d design ]

let sweep_post_opt ?(passes = [ 0; 1; 2; 3; 5 ]) design =
  List.map
    (fun n ->
      measure
        ~label:(Printf.sprintf "post_opt=%d" n)
        { Config.default with Config.post_opt_passes = n }
        design)
    passes

let render ~title points =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "%s\n" title;
  out "%-14s %8s %8s %7s %10s %7s\n" "setting" "Avg.D" "Max.D" "RT(s)" "pq-pops"
    "#Move";
  List.iter
    (fun p ->
      out "%-14s %8.3f %8.2f %7.2f %10d %7d\n" p.label p.avg_disp p.max_disp
        p.runtime_s p.expansions p.d2d_moves)
    points;
  Buffer.contents buf
