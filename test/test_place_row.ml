(* The array core behind the list interface the tests were written
   against: [place_segment] places [(cell id, desired x, width)] triples
   (ids non-negative) and gives the positions in placement order; [cost]
   is the width-weighted quadratic movement of a result. *)
module P = struct
  include Tdf_legalizer.Place_row

  type placed = Ref_place_row.placed = { pl_cell : int; pl_x : int }

  let place_segment ?(weight = fun _ -> 1.0) ~site ~anchor ~lo ~hi cells =
    let r = create () in
    let weights =
      Array.make (Array.fold_left (fun m (id, _, _) -> max m id) (-1) cells + 1) 1.0
    in
    Array.iter
      (fun (id, x, w) ->
        weights.(id) <- weight id;
        add r ~cell:id ~x ~w)
      cells;
    place r ~weight:weights ~site ~anchor ~lo ~hi;
    List.init (length r) (fun i -> { pl_cell = cell r i; pl_x = placed_x r i })
    |> List.stable_sort (fun a b -> compare a.pl_x b.pl_x)

  let cost cells placed =
    let desired = Hashtbl.create (max 1 (Array.length cells)) in
    Array.iter (fun (id, x', w) -> Hashtbl.replace desired id (x', w)) cells;
    List.fold_left
      (fun acc p ->
        match Hashtbl.find_opt desired p.pl_cell with
        | Some (x', w) ->
          let d = float_of_int (p.pl_x - x') in
          acc +. (float_of_int (max 1 w) *. d *. d)
        | None -> acc)
      0. placed
end

let place ?(site = 1) ?(anchor = 0) ?(lo = 0) ?(hi = 100) cells =
  P.place_segment ~site ~anchor ~lo ~hi (Array.of_list cells)

let positions placed = List.map (fun p -> (p.P.pl_cell, p.P.pl_x)) placed

let check_no_overlap cells placed =
  let widths = Hashtbl.create 8 in
  List.iter (fun (id, _, w) -> Hashtbl.replace widths id w) cells;
  let sorted =
    List.sort (fun a b -> compare a.P.pl_x b.P.pl_x) placed
  in
  let rec go = function
    | a :: (b :: _ as rest) ->
      let wa = Hashtbl.find widths a.P.pl_cell in
      Alcotest.(check bool)
        (Printf.sprintf "no overlap between %d and %d" a.P.pl_cell b.P.pl_cell)
        true
        (a.P.pl_x + wa <= b.P.pl_x);
      go rest
    | [ _ ] | [] -> ()
  in
  go sorted

let test_single_cell_at_desired () =
  match place [ (0, 30, 5) ] with
  | [ p ] -> Alcotest.(check int) "at desired x" 30 p.P.pl_x
  | _ -> Alcotest.fail "one cell expected"

let test_single_cell_clamped () =
  (match place [ (0, -10, 5) ] with
  | [ p ] -> Alcotest.(check int) "clamped to lo" 0 p.P.pl_x
  | _ -> Alcotest.fail "one cell");
  match place [ (0, 200, 5) ] with
  | [ p ] -> Alcotest.(check int) "clamped to hi-w" 95 p.P.pl_x
  | _ -> Alcotest.fail "one cell"

let test_two_overlapping_cells_split () =
  let cells = [ (0, 50, 10); (1, 50, 10) ] in
  let placed = place cells in
  check_no_overlap cells placed;
  (* optimal quadratic split around 50: cluster at 45 *)
  match positions placed with
  | [ (0, x0); (1, x1) ] ->
    Alcotest.(check int) "first" 45 x0;
    Alcotest.(check int) "second" 55 x1
  | _ -> Alcotest.fail "bad result"

let test_order_preserved () =
  let cells = [ (0, 10, 8); (1, 12, 8); (2, 11, 8) ] in
  let placed = place cells in
  check_no_overlap cells placed;
  let x_of id = List.assoc id (positions placed) in
  Alcotest.(check bool) "0 before 2" true (x_of 0 < x_of 2);
  Alcotest.(check bool) "2 before 1" true (x_of 2 < x_of 1)

let test_full_segment_packs () =
  let cells = List.init 10 (fun i -> (i, 50, 10)) in
  let placed = place cells in
  check_no_overlap cells placed;
  let xs = List.map snd (positions placed) |> List.sort compare in
  Alcotest.(check (list int)) "packed 0..90"
    [ 0; 10; 20; 30; 40; 50; 60; 70; 80; 90 ]
    xs

let test_site_alignment () =
  (* widths must be multiples of the site for all members to stay aligned *)
  let cells = [ (0, 33, 8); (1, 34, 8) ] in
  let placed = place ~site:4 cells in
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "cell %d on site grid" p.P.pl_cell)
        0
        (p.P.pl_x mod 4))
    placed;
  check_no_overlap cells placed

let test_weighted_by_width () =
  (* A wide cell should move less than a narrow one fighting for the same
     spot: cluster optimum x minimizes w*(x-x')^2 sums. *)
  let cells = [ (0, 50, 30); (1, 50, 2) ] in
  let placed = place cells in
  let x_of id = List.assoc id (positions placed) in
  (* optimum: e0(x-50)^2 + e1(x+30-50)^2 -> x = (30*50 + 2*20)/32 = 48.1 *)
  Alcotest.(check int) "wide cell near desired" 48 (x_of 0);
  Alcotest.(check int) "narrow pushed right" 78 (x_of 1)

let test_cost_function () =
  let cells = [| (0, 10, 4) |] in
  let placed = [ { P.pl_cell = 0; P.pl_x = 13 } ] in
  Alcotest.(check (float 1e-9)) "w*(dx)^2" (4. *. 9.) (P.cost cells placed)

let prop_no_overlap_and_bounds =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 15)
        (map2 (fun x w -> (x, w)) (int_range (-20) 120) (int_range 1 8)))
  in
  QCheck.Test.make ~name:"place_segment: in bounds, no overlap, all placed"
    ~count:300 (QCheck.make gen)
    (fun cells ->
      let cells = List.mapi (fun i (x, w) -> (i, x, w)) cells in
      let total_w = List.fold_left (fun a (_, _, w) -> a + w) 0 cells in
      QCheck.assume (total_w <= 100);
      let placed = place cells in
      let widths = Hashtbl.create 8 in
      List.iter (fun (id, _, w) -> Hashtbl.replace widths id w) cells;
      List.length placed = List.length cells
      && List.for_all
           (fun p ->
             p.P.pl_x >= 0 && p.P.pl_x + Hashtbl.find widths p.P.pl_cell <= 100)
           placed
      &&
      let sorted = List.sort (fun a b -> compare a.P.pl_x b.P.pl_x) placed in
      let rec ok = function
        | a :: (b :: _ as rest) ->
          a.P.pl_x + Hashtbl.find widths a.P.pl_cell <= b.P.pl_x && ok rest
        | [ _ ] | [] -> true
      in
      ok sorted)

let prop_matches_brute_force_two_cells =
  let gen = QCheck.Gen.(quad (int_range 0 50) (int_range 0 50) (int_range 1 6) (int_range 1 6)) in
  QCheck.Test.make ~name:"place_segment optimal for two cells" ~count:200
    (QCheck.make gen)
    (fun (x0, x1, w0, w1) ->
      let cells = [ (0, x0, w0); (1, x1, w1) ] in
      let placed = place ~hi:60 cells in
      let cost = P.cost (Array.of_list cells) placed in
      (* brute force over order-preserving integer layouts (Abacus
         guarantees optimality only within the desired-x order) *)
      let keep_order a b = if x0 <= x1 then a + w0 <= b else b + w1 <= a in
      let best = ref infinity in
      for a = 0 to 60 - w0 do
        for b = 0 to 60 - w1 do
          if keep_order a b then begin
            let c =
              (float_of_int w0 *. ((float_of_int (a - x0)) ** 2.))
              +. (float_of_int w1 *. ((float_of_int (b - x1)) ** 2.))
            in
            if c < !best then best := c
          end
        done
      done;
      (* cluster placement is optimal among order-preserving layouts; allow
         equality-with-rounding slack of one site in each coordinate *)
      cost <= !best +. (2. *. float_of_int (w0 + w1)) +. 2.)

(* ---- the array core against the list original --------------------- *)

module Prng = Tdf_util.Prng

(* A segment anywhere on a site grid of pitch 1 to 4, and up to 40 cells
   in shuffled id order, desired x drawn mostly from a few values (ties
   by x, broken by id), weights from a few values; their widths may
   exceed the segment. *)
let random_segment rng =
  let lo = Prng.int_in rng (-30) 30 in
  let hi = lo + Prng.int_in rng 5 150 in
  let site = Prng.int_in rng 1 4 and anchor = Prng.int_in rng (-10) 10 in
  let n = Prng.int_in rng 1 40 in
  let ids = Array.init 200 Fun.id in
  for i = 199 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = ids.(i) in
    ids.(i) <- ids.(j);
    ids.(j) <- t
  done;
  let spots = Array.init 5 (fun _ -> Prng.int_in rng (lo - 20) (hi + 20)) in
  let weights = Array.init 200 (fun _ -> Prng.choose rng [| 1.0; 0.5; 2.0; 3.7 |]) in
  let cells =
    Array.init n (fun i ->
        let x =
          if Prng.int rng 3 = 0 then Prng.int_in rng (lo - 20) (hi + 20)
          else Prng.choose rng spots
        in
        (ids.(i), x, Prng.int_in rng 1 (if Prng.int rng 8 = 0 then 60 else 9)))
  in
  (lo, hi, site, anchor, cells, weights)

(* One row buffer for every case, so the core also runs warm. *)
let shared_row = P.create ()

let prop_core_matches_reference =
  Props.test "PlaceRow core equals the list original" ~count:500
    Props.(int_range 0 1_000_000)
    (fun seed ->
      let lo, hi, site, anchor, cells, weights = random_segment (Prng.create seed) in
      let weight id = weights.(id) in
      let want = Ref_place_row.place_segment ~weight ~site ~anchor ~lo ~hi cells in
      let r = shared_row in
      P.clear r;
      Array.iter (fun (cell, x, w) -> P.add r ~cell ~x ~w) cells;
      P.place r ~weight:weights ~site ~anchor ~lo ~hi;
      P.place_segment ~weight ~site ~anchor ~lo ~hi cells = want
      && List.for_all
           (fun (pl : P.placed) ->
             let i = ref 0 in
             while P.cell r !i <> pl.P.pl_cell do
               incr i
             done;
             P.placed_x r !i = pl.P.pl_x)
           want)

let suite =
  [
    Alcotest.test_case "single cell at desired" `Quick test_single_cell_at_desired;
    Alcotest.test_case "single cell clamped" `Quick test_single_cell_clamped;
    Alcotest.test_case "two overlapping split" `Quick test_two_overlapping_cells_split;
    Alcotest.test_case "order preserved" `Quick test_order_preserved;
    Alcotest.test_case "full segment packs" `Quick test_full_segment_packs;
    Alcotest.test_case "site alignment" `Quick test_site_alignment;
    Alcotest.test_case "width-weighted optimum" `Quick test_weighted_by_width;
    Alcotest.test_case "cost function" `Quick test_cost_function;
    QCheck_alcotest.to_alcotest prop_no_overlap_and_bounds;
    QCheck_alcotest.to_alcotest prop_matches_brute_force_two_cells;
    prop_core_matches_reference;
  ]
