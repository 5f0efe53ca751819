(* Reference PlaceRow for the differential tests: a verbatim copy of the
   original list-based [Tdf_legalizer.Place_row.place_segment] (a stack
   of cluster records with member lists), kept only under test/ so the
   array core can be checked for the same positions. *)

type placed = { pl_cell : int; pl_x : int }

type cluster = {
  mutable e : float;  (* total weight *)
  mutable q : float;  (* Σ e_i (x'_i − offset_i) *)
  mutable w : int;  (* total width *)
  mutable members : (int * int * int) list;  (* reversed *)
}

let align ~site ~anchor ~lo ~hi x =
  (* Snap x to the site grid (positions ≡ anchor mod site) within [lo, hi]. *)
  if site <= 1 then max lo (min hi x)
  else begin
    let snap v =
      let d = v - anchor in
      let d = if d >= 0 then d / site * site else -((-d + site - 1) / site * site) in
      anchor + d
    in
    let lo' = if snap lo < lo then snap lo + site else snap lo in
    let hi' = snap hi in
    if hi' < lo' then max lo (min hi x)
    else begin
      let x = max lo' (min hi' x) in
      let down = max lo' (snap x) in
      let up = if down + site <= hi' then down + site else down in
      if x - down <= up - x then down else up
    end
  end

let optimal_x cluster ~site ~anchor ~lo ~hi =
  let raw = int_of_float (Float.round (cluster.q /. cluster.e)) in
  align ~site ~anchor ~lo ~hi:(max lo (hi - cluster.w)) raw

let place_segment ?(weight = fun _ -> 1.0) ~site ~anchor ~lo ~hi cells =
  let sorted = Array.copy cells in
  Array.sort
    (fun (id1, x1, _) (id2, x2, _) ->
      if x1 <> x2 then compare x1 x2 else compare id1 id2)
    sorted;
  (* Stack of placed clusters (leftmost at the bottom); each entry carries
     its current position.  A new cell starts its own cluster, then clusters
     are merged while overlapping their predecessor (Abacus "Collapse"). *)
  let stack = ref [] in
  let rec merge_down () =
    match !stack with
    | (c2, x2) :: (c1, x1) :: rest when x1 + c1.w > x2 ->
      (* merge c2 into c1: offsets of c2's members shift by c1.w *)
      c1.q <- c1.q +. c2.q -. (c2.e *. float_of_int c1.w);
      c1.e <- c1.e +. c2.e;
      c1.w <- c1.w + c2.w;
      c1.members <- c2.members @ c1.members;
      let x1' = optimal_x c1 ~site ~anchor ~lo ~hi in
      stack := (c1, x1') :: rest;
      merge_down ()
    | _ -> ()
  in
  Array.iter
    (fun ((id, x', w) as cell) ->
      let e_c = float_of_int (max 1 w) *. weight id in
      let c = { e = e_c; q = e_c *. float_of_int x'; w; members = [ cell ] } in
      let x = optimal_x c ~site ~anchor ~lo ~hi in
      stack := (c, x) :: !stack;
      merge_down ())
    sorted;
  (* Emit member positions; a final left-to-right sweep repairs ±1 overlaps
     that site snapping may introduce. *)
  let clusters = List.rev !stack in
  let result = ref [] in
  let cursor = ref min_int in
  List.iter
    (fun (c, x) ->
      let x = if x < !cursor then !cursor else x in
      let pos = ref x in
      List.iter
        (fun (cell, _, w) ->
          result := { pl_cell = cell; pl_x = !pos } :: !result;
          pos := !pos + w)
        (List.rev c.members);
      cursor := !pos)
    clusters;
  List.rev !result
