(* Monotone radix (bucket) heap over int keys.

   Entries are spread over 64 buckets indexed by the position of the
   highest bit in which a key differs from [last], the most recently
   extracted minimum (bucket 0 holds keys equal to [last]).  Pushes are
   O(1); a pop that finds bucket 0 empty locates the smallest nonempty
   bucket, adopts its minimum as the new [last] and redistributes the
   bucket's entries — each entry can only move to a strictly smaller
   bucket, so total redistribution work is O(64) per entry over the heap's
   lifetime.

   Two's-complement note: bucket indices are computed from [key lxor last],
   whose highest set bit is identical whether the operands are read as
   signed or as sign-bit-biased unsigned integers (the bias cancels under
   XOR).  The radix invariant ("entries of one bucket agree with [last] on
   all higher bits") therefore holds for negative keys too, and within any
   single bucket all keys share a sign, so the signed min-scan during
   redistribution is exact.  [last] starts at [min_int], accepting any
   initial key. *)

type bucket = {
  mutable keys : int array;
  mutable vals : int array;
  mutable size : int;
}

type t = { buckets : bucket array; mutable last : int; mutable size : int }

let n_buckets = 64

let create ?(capacity = 0) () =
  let mk _ =
    let cap = max 0 capacity in
    { keys = Array.make cap 0; vals = Array.make cap 0; size = 0 }
  in
  { buckets = Array.init n_buckets mk; last = min_int; size = 0 }

let length h = h.size
let is_empty h = h.size = 0
let last_extracted h = h.last

(* Index of the highest set bit of [x], which must be nonzero; [lsr] keeps
   the scan correct when bit 62 (the sign bit) is set. *)
let msb x =
  let x = ref x and r = ref 0 in
  if !x lsr 32 <> 0 then begin
    r := !r + 32;
    x := !x lsr 32
  end;
  if !x lsr 16 <> 0 then begin
    r := !r + 16;
    x := !x lsr 16
  end;
  if !x lsr 8 <> 0 then begin
    r := !r + 8;
    x := !x lsr 8
  end;
  if !x lsr 4 <> 0 then begin
    r := !r + 4;
    x := !x lsr 4
  end;
  if !x lsr 2 <> 0 then begin
    r := !r + 2;
    x := !x lsr 2
  end;
  if !x lsr 1 <> 0 then r := !r + 1;
  !r

let bucket_index h key =
  let d = key lxor h.last in
  if d = 0 then 0 else 1 + msb d

let push_bucket b ~key value =
  let cap = Array.length b.keys in
  if b.size = cap then begin
    let ncap = max 16 (2 * cap) in
    let nk = Array.make ncap 0 and nv = Array.make ncap 0 in
    Array.blit b.keys 0 nk 0 b.size;
    Array.blit b.vals 0 nv 0 b.size;
    b.keys <- nk;
    b.vals <- nv
  end;
  b.keys.(b.size) <- key;
  b.vals.(b.size) <- value;
  b.size <- b.size + 1

let add h ~key value =
  if key < h.last then
    invalid_arg "Heap_radix.add: monotone violation (key below extracted min)";
  push_bucket h.buckets.(bucket_index h key) ~key value;
  h.size <- h.size + 1

(* Make bucket 0 (keys equal to [last]) nonempty; the heap must not be
   empty.  Adopting the smallest pending key as the new [last] sends every
   minimum entry of the redistributed bucket to bucket 0 and every other
   entry to a strictly smaller bucket than it came from. *)
let pull h =
  if h.buckets.(0).size = 0 then begin
    let i = ref 1 in
    while h.buckets.(!i).size = 0 do
      incr i
    done;
    let b = h.buckets.(!i) in
    let m = ref b.keys.(0) in
    for j = 1 to b.size - 1 do
      if b.keys.(j) < !m then m := b.keys.(j)
    done;
    h.last <- !m;
    let n = b.size in
    b.size <- 0;
    for j = 0 to n - 1 do
      push_bucket h.buckets.(bucket_index h b.keys.(j)) ~key:b.keys.(j)
        b.vals.(j)
    done
  end

let top_key h =
  if h.size = 0 then invalid_arg "Heap_radix.top_key: empty heap";
  pull h;
  let b = h.buckets.(0) in
  b.keys.(b.size - 1)

let top_value h =
  if h.size = 0 then invalid_arg "Heap_radix.top_value: empty heap";
  pull h;
  let b = h.buckets.(0) in
  b.vals.(b.size - 1)

let remove_top h =
  if h.size = 0 then invalid_arg "Heap_radix.remove_top: empty heap";
  pull h;
  let b = h.buckets.(0) in
  b.size <- b.size - 1;
  h.size <- h.size - 1

let pop h =
  if h.size = 0 then None
  else begin
    pull h;
    let b = h.buckets.(0) in
    let k = b.keys.(b.size - 1) and v = b.vals.(b.size - 1) in
    b.size <- b.size - 1;
    h.size <- h.size - 1;
    Some (k, v)
  end

let clear h =
  Array.iter (fun (b : bucket) -> b.size <- 0) h.buckets;
  h.last <- min_int;
  h.size <- 0
