(* Uniform cell widths: §III-A notes that legalization then reduces to a
   polynomial minimum-cost flow problem.  This example builds the exact
   transportation problem (cells × bin slots) with the generic MCMF
   substrate, solves it optimally, and compares 3D-Flow's displacement
   against that lower bound.

     dune exec examples/uniform_optimal.exe *)

module Rect = Tdf_geometry.Rect
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Design = Tdf_netlist.Design
module Placement = Tdf_netlist.Placement
module G = Tdf_grid.Grid
module Mcmf = Tdf_flow.Mcmf
module Flow3d = Tdf_legalizer.Flow3d

let cell_width = 5

let build_design () =
  let dies =
    Array.init 2 (fun index ->
        Die.make ~index ~outline:(Rect.make ~x:0 ~y:0 ~w:150 ~h:60) ~row_height:10 ())
  in
  let rng = Tdf_util.Prng.of_string "uniform_optimal" in
  let cells =
    Array.init 150 (fun id ->
        Cell.make ~id ~widths:[| cell_width; cell_width |]
          ~gp_x:(50 + Tdf_util.Prng.int rng 50)
          ~gp_y:(20 + Tdf_util.Prng.int rng 20)
          ~gp_z:(Tdf_util.Prng.float rng 1.0)
          ())
  in
  Design.make ~name:"uniform" ~dies ~cells ()

(* Exact lower bound: assign every cell to a bin slot at minimum total
   estimated displacement (bin-granular cost, Eq. 4). *)
let optimal_assignment_cost design =
  let grid = G.build design ~bin_width:(Flow3d.flow_bin_width design ~factor:10.) in
  let n_cells = Design.n_cells design in
  let n_bins = G.n_bins grid in
  (* vertices: 0 = source, 1..n_cells = cells, then bins, then sink *)
  let cell_v c = 1 + c in
  let bin_v b = 1 + n_cells + b in
  let sink = 1 + n_cells + n_bins in
  let g = Mcmf.Builder.create (sink + 1) in
  for c = 0 to n_cells - 1 do
    ignore (Mcmf.Builder.add_edge g ~src:0 ~dst:(cell_v c) ~cap:1 ~cost:0);
    Array.iter
      (fun (b : G.bin) ->
        ignore
          (Mcmf.Builder.add_edge g ~src:(cell_v c) ~dst:(bin_v b.G.id) ~cap:1
             ~cost:(G.est_disp grid ~cell:c b)))
      grid.G.bins
  done;
  Array.iter
    (fun (b : G.bin) ->
      let slots = G.cap b / cell_width in
      if slots > 0 then
        ignore
          (Mcmf.Builder.add_edge g ~src:(bin_v b.G.id) ~dst:sink ~cap:slots
             ~cost:0))
    grid.G.bins;
  match
    Mcmf.solve_csr (Mcmf.Csr.of_builder g) ~ws:(Mcmf.Workspace.create ())
      ~source:0 ~sink ()
  with
  | Ok { Mcmf.flow; cost; _ } ->
    assert (flow = n_cells);
    cost
  | Error e -> failwith (Mcmf.error_to_string e)

let () =
  let design = build_design () in
  Printf.printf "uniform_optimal: %d cells of width %d on two dies\n"
    (Design.n_cells design) cell_width;

  let lower_bound = optimal_assignment_cost design in
  let result = Flow3d.legalize design in
  let p = result.Flow3d.placement in
  let total_disp = ref 0 in
  for c = 0 to Design.n_cells design - 1 do
    total_disp := !total_disp + Placement.displacement design p c
  done;
  Printf.printf "  optimal bin-assignment cost (MCMF): %d units\n" lower_bound;
  Printf.printf "  3D-Flow realized displacement:      %d units\n" !total_disp;
  Printf.printf "  ratio vs exact lower bound:         %.3fx\n"
    (float_of_int !total_disp /. float_of_int (max 1 lower_bound));
  Printf.printf "  legal: %b\n" (Tdf_metrics.Legality.is_legal design p)
