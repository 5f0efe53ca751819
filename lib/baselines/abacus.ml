module Design = Tdf_netlist.Design
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Placement = Tdf_netlist.Placement
module Place_row = Tdf_legalizer.Place_row

type seg_state = {
  mutable cells : (int * int * int) list;  (* (cell, desired x, width), reversed *)
  mutable used : int;
}

(* [row] is the caller's PlaceRow buffer, [weight] the cells' weights. *)
let trial_cost design space states row ~weight ~si ~cell =
  let s = space.Rowspace.segs.(si) in
  let st = states.(si) in
  let c = Design.cell design cell in
  let w = Cell.width_on c s.Rowspace.die in
  if st.used + w > s.Rowspace.hi - s.Rowspace.lo then None
  else begin
    let d = Design.die design s.Rowspace.die in
    Place_row.clear row;
    Place_row.add row ~cell ~x:c.Cell.gp_x ~w;
    List.iter (fun (id, x, w) -> Place_row.add row ~cell:id ~x ~w) st.cells;
    Place_row.place row ~weight ~site:d.Die.site_width
      ~anchor:d.Die.outline.Tdf_geometry.Rect.x ~lo:s.Rowspace.lo
      ~hi:s.Rowspace.hi;
    Some (abs (Place_row.placed_x row 0 - c.Cell.gp_x) + abs (s.Rowspace.y - c.Cell.gp_y))
  end

let try_die design space states row ~weight cell ~die ~best =
  let c = Design.cell design cell in
  let stop ydist =
    match !best with Some (cost, _) -> ydist > cost | None -> false
  in
  Rowspace.iter_rows_outward space ~die ~y:c.Cell.gp_y ~stop (fun si ->
      match trial_cost design space states row ~weight ~si ~cell with
      | None -> ()
      | Some cost ->
        (match !best with
        | Some (bcost, _) when bcost <= cost -> ()
        | _ -> best := Some (cost, si)))

let legalize design =
  Tdf_telemetry.span "baseline.abacus" @@ fun () ->
  let p = Placement.initial design in
  let space = Rowspace.build design in
  let states =
    Array.map (fun _ -> { cells = []; used = 0 }) space.Rowspace.segs
  in
  let n = Design.n_cells design in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let ca = Design.cell design a and cb = Design.cell design b in
      if ca.Cell.gp_x <> cb.Cell.gp_x then compare ca.Cell.gp_x cb.Cell.gp_x
      else compare a b)
    order;
  let nd = Design.n_dies design in
  let weight = Array.map (fun (c : Cell.t) -> c.Cell.weight) design.Design.cells in
  let row = Place_row.create () in
  Array.iter
    (fun cell ->
      let home = p.Placement.die.(cell) in
      let best = ref None in
      try_die design space states row ~weight cell ~die:home ~best;
      if !best = None then
        for d = 0 to nd - 1 do
          if d <> home && !best = None then
            try_die design space states row ~weight cell ~die:d ~best
        done;
      match !best with
      | Some (_, si) ->
        let s = space.Rowspace.segs.(si) in
        let c = Design.cell design cell in
        let w = Cell.width_on c s.Rowspace.die in
        states.(si).cells <- (cell, c.Cell.gp_x, w) :: states.(si).cells;
        states.(si).used <- states.(si).used + w
      | None -> ())
    order;
  (* Final PlaceRow per segment, through the same buffer, writes the
     positions.  Segments own disjoint cell sets by construction. *)
  Array.iteri
    (fun si st ->
      if st.cells <> [] then begin
        let s = space.Rowspace.segs.(si) in
        let d = Design.die design s.Rowspace.die in
        Place_row.clear row;
        List.iter (fun (id, x, w) -> Place_row.add row ~cell:id ~x ~w) st.cells;
        Place_row.place row ~weight ~site:d.Die.site_width
          ~anchor:d.Die.outline.Tdf_geometry.Rect.x ~lo:s.Rowspace.lo
          ~hi:s.Rowspace.hi;
        for i = 0 to Place_row.length row - 1 do
          let c = Place_row.cell row i in
          p.Placement.x.(c) <- Place_row.placed_x row i;
          p.Placement.y.(c) <- s.Rowspace.y;
          p.Placement.die.(c) <- s.Rowspace.die
        done
      end)
    states;
  p
