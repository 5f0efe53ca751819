let[@inline] before (key : int array) (tie : int array) i j =
  let ki = key.(i) and kj = key.(j) in
  ki < kj || (ki = kj && tie.(i) < tie.(j))

(* Runs this short are insertion-sorted before the merge passes. *)
let run = 8

let sort_range ~key ~tie (a : int array) ~tmp ~lo ~hi =
  let s = ref lo in
  while !s < hi do
    let e = Int.min hi (!s + run) in
    for i = !s + 1 to e - 1 do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= !s && before key tie v a.(!j) do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done;
    s := e
  done;
  let src = ref a and dst = ref tmp in
  let width = ref run in
  while !width < hi - lo do
    let s = !src and d = !dst in
    let start = ref lo in
    while !start < hi do
      let mid = Int.min hi (!start + !width) in
      let stop = Int.min hi (mid + !width) in
      let i = ref !start and j = ref mid in
      for k = !start to stop - 1 do
        if !i < mid && (!j >= stop || not (before key tie s.(!j) s.(!i))) then begin
          d.(k) <- s.(!i);
          incr i
        end
        else begin
          d.(k) <- s.(!j);
          incr j
        end
      done;
      start := stop
    done;
    src := d;
    dst := s;
    width := 2 * !width
  done;
  if !src != a then Array.blit !src lo a lo (hi - lo)
