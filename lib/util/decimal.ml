(* Digits most significant first; the recursion is at most 19 deep. *)
let rec add_digits b v =
  if v >= 10 then add_digits b (v / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (v mod 10)))

let add_int b v =
  if v >= 0 then add_digits b v
  else if v > min_int then begin
    Buffer.add_char b '-';
    add_digits b (-v)
  end
  else Buffer.add_string b (string_of_int v)

(* 2^53 / 10^6: below it, |x| * 10^6 < 2^53, so the rounded product [p]
   has a spacing of at most 1 and [floor p] is exact. *)
let fast_limit = 9007199254.740992

(* With p = fl(a * 10^6), the residual r = a * 10^6 - p is exactly
   representable and [Float.fma] computes it exactly, so the true product
   is p + r.  Write n = floor p (exact) and t = (p - n) + r, where p - n
   is exact and the one rounding of the sum is below 1e-15 for
   |t| <= 1.5.  Since |r| <= 1/2, t lies in [-1/2, 3/2); outside 1e-9
   of the ties at -1/2 and 1/2 the nearest integer to the product is n
   (t < 1/2) or n + 1 (t > 1/2). *)
let round6 x =
  let a = Float.abs x in
  if not (a < fast_limit) then -1
  else
    let p = a *. 1e6 in
    let r = Float.fma a 1e6 (-.p) in
    let n = Float.floor p in
    let t = p -. n +. r in
    if Float.abs (t -. 0.5) < 1e-9 || Float.abs (t +. 0.5) < 1e-9 then -1
    else int_of_float n + if t > 0.5 then 1 else 0

let add_fixed6 b x =
  let k = round6 x in
  if k < 0 then Printf.bprintf b "%.6f" x
  else begin
    (* "%.6f" signs every value with the sign bit set, -0.0 included *)
    if Float.sign_bit x then Buffer.add_char b '-';
    add_digits b (k / 1_000_000);
    Buffer.add_char b '.';
    let f = k mod 1_000_000 in
    let rec frac d =
      if d > 0 then begin
        Buffer.add_char b (Char.unsafe_chr (48 + (f / d mod 10)));
        frac (d / 10)
      end
    in
    frac 100_000
  end
