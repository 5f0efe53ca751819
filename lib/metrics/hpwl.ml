module Design = Tdf_netlist.Design
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Net = Tdf_netlist.Net
module Placement = Tdf_netlist.Placement

let net_hpwl centers (net : Net.t) =
  let min_x = ref infinity and max_x = ref neg_infinity in
  let min_y = ref infinity and max_y = ref neg_infinity in
  Array.iter
    (fun pin ->
      let cx, cy = centers pin in
      if cx < !min_x then min_x := cx;
      if cx > !max_x then max_x := cx;
      if cy < !min_y then min_y := cy;
      if cy > !max_y then max_y := cy)
    net.Net.pins;
  !max_x -. !min_x +. (!max_y -. !min_y)

(* Per-net HPWLs are summed per 4096-net chunk, and the chunk partials
   left to right in chunk order.  That is the summation order behind every
   pinned and reported HPWL; a plain left fold would change the low bits
   on designs with more than one chunk of nets. *)
let chunk = 4096

let total design centers =
  let nets = design.Design.nets in
  let n = Array.length nets in
  let sum = ref 0. in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + chunk) in
    let part = ref 0. in
    for i = !lo to hi - 1 do
      part := !part +. net_hpwl centers nets.(i)
    done;
    sum := !sum +. !part;
    lo := hi
  done;
  !sum

let of_placement design p =
  let centers c =
    let cell = Design.cell design c in
    let d = p.Placement.die.(c) in
    let w = Cell.width_on cell d in
    let h = (Design.die design d).Die.row_height in
    ( float_of_int p.Placement.x.(c) +. (float_of_int w /. 2.),
      float_of_int p.Placement.y.(c) +. (float_of_int h /. 2.) )
  in
  total design centers

let of_global design =
  let nd = Design.n_dies design in
  let centers c =
    let cell = Design.cell design c in
    let d = Cell.nearest_die cell ~n_dies:nd in
    let w = Cell.width_on cell d in
    let h = (Design.die design d).Die.row_height in
    ( float_of_int cell.Cell.gp_x +. (float_of_int w /. 2.),
      float_of_int cell.Cell.gp_y +. (float_of_int h /. 2.) )
  in
  total design centers

let increase_pct design p =
  let g = of_global design in
  if g <= 0. then 0. else 100. *. (of_placement design p -. g) /. g
