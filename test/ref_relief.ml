(* Reference relief for the differential tests: a verbatim copy of the
   original O(fragments × bins) scan of [Tdf_legalizer.Relief.relieve],
   kept only under test/ so the pruned scan can be checked for the
   exact same (cell, bin) pick.  Telemetry is stripped, and the bin's
   fragments are read as a list through the grid's cursors; the scan, its
   utilization check and its tie-break (first strict minimum in fragment
   order, then bin id order) are untouched. *)

module Grid = Tdf_grid.Grid
module Design = Tdf_netlist.Design
module Cell = Tdf_netlist.Cell
module Config = Tdf_legalizer.Config

let util_ok cfg grid (b : Grid.bin) w =
  let design = grid.Grid.design in
  ignore cfg;
  let max_util = (Design.die design b.Grid.die).Tdf_netlist.Die.max_util in
  grid.Grid.die_cap.(b.Grid.die) <= 0.
  || (grid.Grid.die_used.(b.Grid.die) +. w) /. grid.Grid.die_cap.(b.Grid.die)
     <= max_util

let relieve ?mask cfg grid ~src =
  let design = grid.Grid.design in
  let allowed bid = match mask with None -> true | Some m -> m.(bid) in
  let best = ref None in
  List.iter
    (fun (f_cell, _) ->
      let c = Design.cell design f_cell in
      Array.iter
        (fun (b : Grid.bin) ->
          if b.Grid.id <> src.Grid.id && allowed b.Grid.id then begin
            let w = float_of_int (Cell.width_on c b.Grid.die) in
            let die_ok =
              b.Grid.die = src.Grid.die
              || (cfg.Config.d2d_edges && util_ok cfg grid b w)
            in
            if die_ok && Grid.demand b >= w then begin
              let cost = Grid.est_disp grid ~cell:f_cell b in
              match !best with
              | Some (bcost, _, _) when bcost <= cost -> ()
              | _ -> best := Some (cost, f_cell, b)
            end
          end)
        grid.Grid.bins)
    (Ref_grid.bin_frags grid src.Grid.id);
  match !best with
  | Some (_, cell, b) ->
    Grid.move_whole grid ~cell ~dst:b;
    Some (cell, b)
  | None -> None
