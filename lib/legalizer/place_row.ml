(* One segment's cells in flat arrays indexed by input position, and the
   buffers of a placement, all grown to fit and reused across calls.  A
   cluster is a run of consecutive positions of [order]: cluster [k]
   starts at [c_first.(k)] and ends where cluster [k + 1] starts (the last
   at [n]), so merging two clusters only moves the boundary. *)
type row = {
  mutable n : int;
  mutable cell : int array;
  mutable gx : int array;  (* desired x *)
  mutable w : int array;
  mutable px : int array;  (* placed x *)
  mutable order : int array;  (* input positions by (desired x, cell) *)
  mutable tmp : int array;  (* merge buffer for [order] *)
  mutable c_e : float array;  (* total weight *)
  mutable c_q : float array;  (* Σ e_i (x'_i − offset_i) *)
  mutable c_w : int array;  (* total width *)
  mutable c_x : int array;  (* current position *)
  mutable c_first : int array;
}

let create () =
  {
    n = 0;
    cell = [||];
    gx = [||];
    w = [||];
    px = [||];
    order = [||];
    tmp = [||];
    c_e = [||];
    c_q = [||];
    c_w = [||];
    c_x = [||];
    c_first = [||];
  }

let clear r = r.n <- 0

let length r = r.n

let cell r i = r.cell.(i)

let placed_x r i = r.px.(i)

let grow r =
  let cap = Int.max 16 (2 * r.n) in
  let ext a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 r.n;
    a'
  in
  r.cell <- ext r.cell 0;
  r.gx <- ext r.gx 0;
  r.w <- ext r.w 0;
  r.px <- Array.make cap 0;
  r.order <- Array.make cap 0;
  r.tmp <- Array.make cap 0;
  r.c_e <- Array.make cap 0.;
  r.c_q <- Array.make cap 0.;
  r.c_w <- Array.make cap 0;
  r.c_x <- Array.make cap 0;
  r.c_first <- Array.make cap 0

let add r ~cell ~x ~w =
  if r.n = Array.length r.cell then grow r;
  r.cell.(r.n) <- cell;
  r.gx.(r.n) <- x;
  r.w.(r.n) <- w;
  r.n <- r.n + 1

let align ~site ~anchor ~lo ~hi x =
  (* Snap x to the site grid (positions ≡ anchor mod site) within [lo, hi]. *)
  if site <= 1 then Int.max lo (Int.min hi x)
  else begin
    let snap v =
      let d = v - anchor in
      let d = if d >= 0 then d / site * site else -((-d + site - 1) / site * site) in
      anchor + d
    in
    let lo' = if snap lo < lo then snap lo + site else snap lo in
    let hi' = snap hi in
    if hi' < lo' then Int.max lo (Int.min hi x)
    else begin
      let x = Int.max lo' (Int.min hi' x) in
      let down = Int.max lo' (snap x) in
      let up = if down + site <= hi' then down + site else down in
      if x - down <= up - x then down else up
    end
  end

let optimal_x r k ~site ~anchor ~lo ~hi =
  let raw = int_of_float (Float.round (r.c_q.(k) /. r.c_e.(k))) in
  align ~site ~anchor ~lo ~hi:(Int.max lo (hi - r.c_w.(k))) raw

(* Input positions by desired x, then cell id. *)
let sort r =
  for i = 0 to r.n - 1 do
    r.order.(i) <- i
  done;
  Tdf_util.Int_sort.sort_range ~key:r.gx ~tie:r.cell r.order ~tmp:r.tmp ~lo:0 ~hi:r.n

let place r ~weight ~site ~anchor ~lo ~hi =
  sort r;
  let order = r.order in
  (* A new cell starts its own cluster on top of the stack (leftmost at
     the bottom), then clusters are merged while overlapping their
     predecessor (Abacus "Collapse"). *)
  let top = ref (-1) in
  for k = 0 to r.n - 1 do
    let i = order.(k) in
    let w = r.w.(i) in
    let e_c = float_of_int (Int.max 1 w) *. weight.(r.cell.(i)) in
    incr top;
    let c = !top in
    r.c_e.(c) <- e_c;
    r.c_q.(c) <- e_c *. float_of_int r.gx.(i);
    r.c_w.(c) <- w;
    r.c_first.(c) <- k;
    r.c_x.(c) <- optimal_x r c ~site ~anchor ~lo ~hi;
    while !top > 0 && r.c_x.(!top - 1) + r.c_w.(!top - 1) > r.c_x.(!top) do
      (* merge the top cluster c2 into c1: offsets of c2's members shift
         by c1.w *)
      let c2 = !top in
      let c1 = c2 - 1 in
      r.c_q.(c1) <- r.c_q.(c1) +. r.c_q.(c2) -. (r.c_e.(c2) *. float_of_int r.c_w.(c1));
      r.c_e.(c1) <- r.c_e.(c1) +. r.c_e.(c2);
      r.c_w.(c1) <- r.c_w.(c1) + r.c_w.(c2);
      r.c_x.(c1) <- optimal_x r c1 ~site ~anchor ~lo ~hi;
      top := c1
    done
  done;
  (* Member positions, left to right; the sweep repairs ±1 overlaps that
     site snapping may introduce. *)
  let cursor = ref min_int in
  for c = 0 to !top do
    let pos = ref (if r.c_x.(c) < !cursor then !cursor else r.c_x.(c)) in
    let last = if c = !top then r.n else r.c_first.(c + 1) in
    for k = r.c_first.(c) to last - 1 do
      let i = order.(k) in
      r.px.(i) <- !pos;
      pos := !pos + r.w.(i)
    done;
    cursor := !pos
  done
