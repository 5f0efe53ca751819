module Failpoint = Tdf_util.Failpoint
module Prng = Tdf_util.Prng
module Cell = Tdf_netlist.Cell
module Net = Tdf_netlist.Net
module Design = Tdf_netlist.Design

let reset () = Failpoint.reset ()

let force_failure ?(times = 1) site = Failpoint.arm ~times site

let force_timeout ?(times = 1) site = Failpoint.arm ~times (site ^ ".timeout")

let fired = Failpoint.fired

type corruption =
  | Nan_gp_z of int
  | Out_of_window of int
  | Degenerate_net of int

let corrupt ~seed ?(n_faults = 3) (d : Design.t) =
  if Design.n_cells d = 0 then invalid_arg "Fault.corrupt: design has no cells";
  let rng = Prng.create seed in
  let cells = Array.copy d.Design.cells in
  let nets = Array.copy d.Design.nets in
  let applied = ref [] in
  let remake (c : Cell.t) ?(gp_x = c.Cell.gp_x) ?(gp_y = c.Cell.gp_y)
      ?(gp_z = c.Cell.gp_z) () =
    Cell.make ~id:c.Cell.id ~name:c.Cell.name ~weight:c.Cell.weight
      ~widths:c.Cell.widths ~gp_x ~gp_y ~gp_z ()
  in
  for _ = 1 to n_faults do
    let kind = if Array.length nets = 0 then Prng.int rng 2 else Prng.int rng 3 in
    match kind with
    | 0 ->
      let i = Prng.int rng (Array.length cells) in
      cells.(i) <- remake cells.(i) ~gp_z:Float.nan ();
      applied := Nan_gp_z i :: !applied
    | 1 ->
      let i = Prng.int rng (Array.length cells) in
      let far = 1_000_000_000 in
      cells.(i) <-
        remake cells.(i) ~gp_x:(-far) ~gp_y:(far * 2) ();
      applied := Out_of_window i :: !applied
    | _ ->
      let i = Prng.int rng (Array.length nets) in
      let n = nets.(i) in
      nets.(i) <-
        Net.make ~id:n.Net.id ~name:n.Net.name
          ~pins:[| n.Net.pins.(0) |] ();
      applied := Degenerate_net i :: !applied
  done;
  let d' =
    Design.make ~name:(d.Design.name ^ "+faults") ~dies:d.Design.dies ~cells
      ~macros:d.Design.macros ~nets ()
  in
  (d', List.rev !applied)
