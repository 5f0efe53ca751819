(* Macro-heavy floorplan (ICCAD 2023 style): macros split placement rows
   into segments; the flow must route overflow around the blockages and
   the post-optimization pulls back the cells stranded at macro borders.

     dune exec examples/macro_maze.exe *)

module Rect = Tdf_geometry.Rect
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Blockage = Tdf_netlist.Blockage
module Design = Tdf_netlist.Design
module Config = Tdf_legalizer.Config
module Flow3d = Tdf_legalizer.Flow3d

let () =
  (* A 300x120 stack with a wall of macros through the middle of die 0 and
     a plug in the center of die 1. *)
  let die index =
    Die.make ~index ~outline:(Rect.make ~x:0 ~y:0 ~w:300 ~h:120) ~row_height:12 ()
  in
  let macros =
    [|
      Blockage.make ~id:0 ~die:0 ~rect:(Rect.make ~x:60 ~y:36 ~w:80 ~h:48) ();
      Blockage.make ~id:1 ~die:0 ~rect:(Rect.make ~x:170 ~y:36 ~w:80 ~h:48) ();
      Blockage.make ~id:2 ~die:1 ~rect:(Rect.make ~x:110 ~y:48 ~w:80 ~h:24) ();
    |]
  in
  (* A global placer dropped a dense blob right on top of the die-0 wall. *)
  let rng = Tdf_util.Prng.of_string "macro_maze" in
  let cells =
    Array.init 220 (fun id ->
        Cell.make ~id ~widths:[| 5; 5 |]
          ~gp_x:(120 + Tdf_util.Prng.int rng 70)
          ~gp_y:(40 + Tdf_util.Prng.int rng 40)
          ~gp_z:(Tdf_util.Prng.float rng 1.0)
          ())
  in
  let design = Design.make ~name:"macro_maze" ~dies:[| die 0; die 1 |] ~cells ~macros () in

  let show name result =
    let p = result.Flow3d.placement in
    let s = Tdf_metrics.Displacement.summary design p in
    Printf.printf "  %-22s legal=%b avg=%.3f max=%.2f d2d=%d\n" name
      (Tdf_metrics.Legality.is_legal design p)
      s.Tdf_metrics.Displacement.avg_norm s.Tdf_metrics.Displacement.max_norm
      result.Flow3d.stats.Flow3d.d2d_cells
  in
  Printf.printf "macro_maze: %d cells, %d macros, blob on the die-0 wall\n"
    (Array.length cells) (Array.length macros);
  show "3D-Flow" (Flow3d.legalize design);
  show "3D-Flow w/o post-opt"
    (Flow3d.legalize
       ~cfg:{ Config.default with Config.post_opt_passes = 0 }
       design);
  show "w/o D2D" (Flow3d.legalize ~cfg:Config.no_d2d design);

  (* Visualize both dies. *)
  let p = (Flow3d.legalize design).Flow3d.placement in
  Tdf_io.Svg.save_die "macro_maze_die0.svg" design p ~die:0
    ~title:"macro_maze, bottom die" ();
  Tdf_io.Svg.save_die "macro_maze_die1.svg" design p ~die:1
    ~title:"macro_maze, top die (blue: from bottom)" ();
  print_endline "  wrote macro_maze_die0.svg / macro_maze_die1.svg"
