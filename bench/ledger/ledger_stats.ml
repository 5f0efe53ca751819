let sorted xs =
  if Array.length xs = 0 then invalid_arg "Ledger_stats: no samples";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let quantile xs q =
  let s = sorted xs in
  let n = Array.length s in
  if n = 1 then s.(0)
  else begin
    (* Like Python, the fraction is not clamped with the rank: below the
       first or beyond the last interior rank the line extrapolates. *)
    let h = q *. float_of_int (n + 1) in
    let j = max 1 (min (n - 1) (int_of_float (Float.floor h))) in
    s.(j - 1) +. ((s.(j) -. s.(j - 1)) *. (h -. float_of_int j))
  end

let median xs =
  let s = sorted xs in
  let n = Array.length s in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let tail_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (1. -. (p /. 100.)) >= 10. -. 1e-9)
    [ 99.9; 99.; 95.; 90.; 75.; 50. ]

type span = { name : string; depth : int; start_ns : int64; dur_ns : int64 }

(* In post-order a span's direct children are exactly the spans one level
   deeper that closed since the previous span at its own depth closed, so
   one running sum per depth is enough. *)
let self_times spans =
  let covered = Hashtbl.create 16 in
  let get d = Option.value (Hashtbl.find_opt covered d) ~default:0L in
  List.map
    (fun s ->
      let self = Int64.sub s.dur_ns (get s.depth) in
      Hashtbl.replace covered s.depth 0L;
      if s.depth > 0 then
        Hashtbl.replace covered (s.depth - 1) (Int64.add (get (s.depth - 1)) s.dur_ns);
      (s, self))
    spans
