module Grid = Tdf_grid.Grid

type scratch = {
  mutable s_nodes : Augment.node array;
  mutable s_len : int;
}

let dummy_node = { Augment.pn_bin = -1; pn_flow_in = 0.; pn_need_out = 0. }

let create_scratch () = { s_nodes = [||]; s_len = 0 }

(* Copy the path into the reusable node buffer (grown geometrically), so
   realization allocates nothing per augmentation. *)
let load_path scratch path =
  let n = List.length path in
  if Array.length scratch.s_nodes < n then
    scratch.s_nodes <- Array.make (max 16 (2 * n)) dummy_node;
  List.iteri (fun i nd -> scratch.s_nodes.(i) <- nd) path;
  scratch.s_len <- n

let edge_kind _grid ~src ~dst =
  if src.Grid.seg = dst.Grid.seg then Grid.Horizontal
  else if src.Grid.die = dst.Grid.die then Grid.Vertical
  else Grid.D2d

let apply_selection grid ~src ~dst ~kind (sel : Select.selection) =
  if Tdf_telemetry.enabled () then
    Tdf_telemetry.count "flow3d.mover.picks" (List.length sel.Select.picks);
  let d2d_moves = ref 0 in
  List.iter
    (fun (p : Select.pick) ->
      match kind with
      | Grid.Horizontal ->
        Grid.move_fraction grid ~cell:p.Select.p_cell ~src ~dst ~rho:p.Select.p_rho
      | Grid.Vertical -> Grid.move_whole grid ~cell:p.Select.p_cell ~dst
      | Grid.D2d ->
        incr d2d_moves;
        Grid.move_whole grid ~cell:p.Select.p_cell ~dst)
    sel.Select.picks;
  !d2d_moves

let realize cfg grid scratch path =
  Tdf_telemetry.span "flow3d.mover" @@ fun () ->
  load_path scratch path;
  let nodes = scratch.s_nodes in
  let n = scratch.s_len in
  let d2d_moves = ref 0 in
  let sels = ref 0 in
  (* Backtrack: move into the leaf first, the root last, so every selection
     sees the bin contents the search saw (modulo straddling cells). *)
  for i = n - 1 downto 1 do
    let u = grid.Grid.bins.(nodes.(i - 1).Augment.pn_bin) in
    let v = grid.Grid.bins.(nodes.(i).Augment.pn_bin) in
    let kind = edge_kind grid ~src:u ~dst:v in
    let need = Float.min nodes.(i - 1).Augment.pn_need_out u.Grid.used in
    if need > 1e-9 then begin
      incr sels;
      match Select.select cfg grid ~src:u ~dst:v ~kind ~need with
      | Some sel ->
        d2d_moves := !d2d_moves + apply_selection grid ~src:u ~dst:v ~kind sel
      | None ->
        (* Availability shrank below [need]; shed whatever is left. *)
        incr sels;
        (match Select.select cfg grid ~src:u ~dst:v ~kind ~need:u.Grid.used with
        | Some sel ->
          d2d_moves := !d2d_moves + apply_selection grid ~src:u ~dst:v ~kind sel
        | None -> ())
    end
  done;
  Tdf_telemetry.count "flow3d.mover.d2d_moves" !d2d_moves;
  if !sels > 0 then Tdf_telemetry.count "flow3d.select.calls" !sels;
  !d2d_moves
