module Design = Tdf_netlist.Design
module Die = Tdf_netlist.Die
module Placement = Tdf_netlist.Placement

type summary = {
  avg_norm : float;
  max_norm : float;
  avg_raw : float;
  max_raw : int;
  avg_weighted : float;
}

let per_cell design p c =
  let raw = Placement.displacement design p c in
  let h_r = (Design.die design p.Placement.die.(c)).Die.row_height in
  float_of_int raw /. float_of_int h_r

(* The float sums are taken per 4096-cell chunk, and the chunk partials
   left to right in chunk order.  That is the summation order behind every
   pinned and reported displacement; a plain left fold would change the
   low bits on designs with more than one chunk of cells. *)
let chunk = 4096

let summary design p =
  let n = Placement.n_cells p in
  if n = 0 then
    { avg_norm = 0.; max_norm = 0.; avg_raw = 0.; max_raw = 0; avg_weighted = 0. }
  else begin
    let sum_norm = ref 0. and sum_weighted = ref 0. and sum_weight = ref 0. in
    let max_norm = ref 0. and sum_raw = ref 0 and max_raw = ref 0 in
    let lo = ref 0 in
    while !lo < n do
      let hi = min n (!lo + chunk) in
      let s_norm = ref 0. and s_weighted = ref 0. and s_weight = ref 0. in
      for c = !lo to hi - 1 do
        let raw = Placement.displacement design p c in
        let norm = per_cell design p c in
        let weight = (Design.cell design c).Tdf_netlist.Cell.weight in
        s_norm := !s_norm +. norm;
        if norm > !max_norm then max_norm := norm;
        sum_raw := !sum_raw + raw;
        if raw > !max_raw then max_raw := raw;
        s_weighted := !s_weighted +. (weight *. norm);
        s_weight := !s_weight +. weight
      done;
      sum_norm := !sum_norm +. !s_norm;
      sum_weighted := !sum_weighted +. !s_weighted;
      sum_weight := !sum_weight +. !s_weight;
      lo := hi
    done;
    {
      avg_norm = !sum_norm /. float_of_int n;
      max_norm = !max_norm;
      avg_raw = float_of_int !sum_raw /. float_of_int n;
      max_raw = !max_raw;
      avg_weighted = !sum_weighted /. !sum_weight;
    }
  end
