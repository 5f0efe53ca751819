module Design = Tdf_netlist.Design
module Placement = Tdf_netlist.Placement
module Net = Tdf_netlist.Net
module D = Tdf_metrics.Displacement
module H = Tdf_metrics.Hpwl
module Legality = Tdf_metrics.Legality

let design_with_nets () =
  let cells =
    [|
      Fixtures.cell ~id:0 ~w0:4 ~w1:4 ~x:0 ~y:0 ~z:0. ();
      Fixtures.cell ~id:1 ~w0:4 ~w1:4 ~x:20 ~y:10 ~z:0. ();
      Fixtures.cell ~id:2 ~w0:4 ~w1:4 ~x:40 ~y:20 ~z:0.9 ();
    |]
  in
  let nets = [| Net.make ~id:0 ~pins:[| 0; 1; 2 |] () |] in
  Design.make ~name:"nets" ~dies:(Fixtures.two_dies ()) ~cells ~nets ()

let test_displacement_summary () =
  let d = design_with_nets () in
  let p = Placement.initial d in
  p.Placement.x.(0) <- 5;
  (* dx=5 *)
  p.Placement.y.(1) <- 30;
  (* dy=20 *)
  let s = D.summary d p in
  (* normalized by row height 10: 0.5, 2.0, 0 *)
  Alcotest.(check (float 1e-9)) "avg" ((0.5 +. 2.0) /. 3.) s.D.avg_norm;
  Alcotest.(check (float 1e-9)) "max" 2.0 s.D.max_norm;
  Alcotest.(check int) "max raw" 20 s.D.max_raw;
  Alcotest.(check (float 1e-9)) "per-cell" 0.5 (D.per_cell d p 0)

let test_displacement_norm_per_die () =
  (* cell on die 1 with row height 20: same raw disp, half the norm *)
  let dies = Fixtures.two_dies ~row_height_top:20 () in
  let cells = [| Fixtures.cell ~id:0 ~x:0 ~y:0 ~z:0.9 () |] in
  let d = Design.make ~name:"h" ~dies ~cells () in
  let p = Placement.initial d in
  p.Placement.x.(0) <- 20;
  Alcotest.(check (float 1e-9)) "normalized by die-1 height" 1.0 (D.per_cell d p 0)

let test_hpwl_global () =
  let d = design_with_nets () in
  (* centers: (2,5), (22,15), (42,25) -> bbox 40 + 20 = 60 *)
  Alcotest.(check (float 1e-9)) "global hpwl" 60. (H.of_global d)

let test_hpwl_increase () =
  let d = design_with_nets () in
  let p = Placement.initial d in
  Alcotest.(check (float 1e-9)) "no move, no increase" 0. (H.increase_pct d p);
  p.Placement.x.(2) <- 60;
  (* bbox 60 + 20 = 80 -> +33.3% *)
  Alcotest.(check (float 1e-6)) "increase pct" (100. *. 20. /. 60.)
    (H.increase_pct d p)

let test_hpwl_no_nets () =
  let d = Fixtures.clustered () in
  let d = Design.make ~name:"nonets" ~dies:d.Design.dies ~cells:d.Design.cells () in
  Alcotest.(check (float 0.)) "0 when no nets" 0.
    (H.increase_pct d (Placement.initial d))

let legal_placement d =
  (Tdf_legalizer.Flow3d.legalize d).Tdf_legalizer.Flow3d.placement

let test_legality_accepts_legal () =
  let d = Fixtures.with_macro () in
  let p = legal_placement d in
  Alcotest.(check int) "no violations" 0 (Legality.check d p).Legality.n_violations;
  Alcotest.(check bool) "is_legal" true (Legality.is_legal d p)

let test_legality_detects_overlap () =
  let d = Fixtures.clustered () in
  let p = legal_placement d in
  p.Placement.x.(1) <- p.Placement.x.(0);
  p.Placement.y.(1) <- p.Placement.y.(0);
  p.Placement.die.(1) <- p.Placement.die.(0);
  let rep = Legality.check d p in
  Alcotest.(check bool) "overlap found" true (rep.Legality.n_violations > 0);
  Alcotest.(check bool) "overlap area > 0" true (rep.Legality.overlap_area > 0)

let test_legality_detects_row_misalignment () =
  let d = Fixtures.clustered () in
  let p = legal_placement d in
  p.Placement.y.(0) <- p.Placement.y.(0) + 3;
  Alcotest.(check bool) "misalignment found" true
    ((Legality.check d p).Legality.n_violations > 0)

let test_legality_detects_outside () =
  let d = Fixtures.clustered () in
  let p = legal_placement d in
  p.Placement.x.(0) <- 99;
  (* width 6 escapes the 100-wide die *)
  Alcotest.(check bool) "outside found" true
    ((Legality.check d p).Legality.n_violations > 0)

let test_legality_detects_macro_overlap () =
  let d = Fixtures.with_macro () in
  let p = legal_placement d in
  (* macro on die 0 spans x 40-60, y 10-30 *)
  p.Placement.x.(0) <- 45;
  p.Placement.y.(0) <- 10;
  p.Placement.die.(0) <- 0;
  Alcotest.(check bool) "macro overlap found" true
    ((Legality.check d p).Legality.n_violations > 0)

let test_legality_detects_bad_die () =
  let d = Fixtures.clustered () in
  let p = legal_placement d in
  p.Placement.die.(0) <- 7;
  Alcotest.(check bool) "bad die found" true
    ((Legality.check d p).Legality.n_violations > 0)

let test_legality_site_misalignment () =
  let dies =
    [|
      Tdf_netlist.Die.make ~index:0
        ~outline:(Tdf_geometry.Rect.make ~x:0 ~y:0 ~w:100 ~h:40)
        ~row_height:10 ~site_width:4 ();
      Tdf_netlist.Die.make ~index:1
        ~outline:(Tdf_geometry.Rect.make ~x:0 ~y:0 ~w:100 ~h:40)
        ~row_height:10 ~site_width:4 ();
    |]
  in
  let cells = [| Fixtures.cell ~id:0 ~x:0 ~y:0 ~z:0. () |] in
  let d = Design.make ~name:"site" ~dies ~cells () in
  let p = Placement.initial d in
  p.Placement.x.(0) <- 6;
  (* not a multiple of 4 *)
  Alcotest.(check bool) "site misalignment found" true
    ((Legality.check d p).Legality.n_violations > 0);
  p.Placement.x.(0) <- 8;
  Alcotest.(check int) "aligned ok" 0 (Legality.check d p).Legality.n_violations

(* ---- the audit against its original ------------------------------ *)

module Prng = Tdf_util.Prng
module Rect = Tdf_geometry.Rect
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Blockage = Tdf_netlist.Blockage

(* One to three dies with their own origin, row height, row count and
   site width; up to five macros per die anywhere around it, overlapping
   each other or sticking out of the die; cells of up to the die's width
   and more. *)
let audit_design rng =
  let nd = Prng.int_in rng 1 3 in
  let dies =
    Array.init nd (fun index ->
        let row_height = Prng.int_in rng 5 10 in
        let h = row_height * Prng.int_in rng 1 6 in
        let outline =
          Rect.make ~x:(Prng.int_in rng (-20) 20) ~y:(Prng.int_in rng (-20) 20)
            ~w:(Prng.int_in rng 20 120) ~h
        in
        Die.make ~index ~outline ~row_height ~site_width:(Prng.int_in rng 1 3) ())
  in
  let macros = ref [] in
  Array.iteri
    (fun d (die : Die.t) ->
      let o = die.Die.outline in
      for _ = 1 to Prng.int rng 6 do
        let w = Prng.int_in rng 1 (o.Rect.w / 2) and h = Prng.int_in rng 1 o.Rect.h in
        let x = o.Rect.x + Prng.int_in rng (-10) (o.Rect.w + 10 - w) in
        let y = o.Rect.y + Prng.int_in rng (-5) (o.Rect.h + 5 - h) in
        macros :=
          Blockage.make ~id:(List.length !macros) ~die:d ~rect:(Rect.make ~x ~y ~w ~h) ()
          :: !macros
      done)
    dies;
  let cells =
    Array.init (Prng.int_in rng 1 60) (fun id ->
        let widths =
          Array.init nd (fun d ->
              if Prng.int rng 15 = 0 then Prng.int_in rng 1 150
              else Prng.int_in rng 1 (4 * dies.(d).Die.site_width))
        in
        Cell.make ~id ~widths ~gp_x:0 ~gp_y:0 ~gp_z:0. ())
  in
  Design.make ~name:"audit" ~dies ~cells ~macros:(Array.of_list (List.rev !macros)) ()

(* Mostly cells on rows and sites, their x drawn from a few values per
   die so that cells pile up and tie; some anywhere, on no row or on no
   die. *)
let audit_placement rng (d : Design.t) =
  let n = Design.n_cells d and nd = Design.n_dies d in
  let p = Placement.initial d in
  let spots = Array.init nd (fun _ -> Array.init 4 (fun _ -> Prng.int rng 120)) in
  for c = 0 to n - 1 do
    let die = Prng.int rng nd in
    let dd = Design.die d die in
    let o = dd.Die.outline in
    let row = Prng.int_in rng (-1) (Die.num_rows dd) in
    let on_site x = o.Rect.x + ((x - o.Rect.x) / dd.Die.site_width * dd.Die.site_width) in
    let x, y, die =
      match Prng.int rng 10 with
      | 0 -> (Prng.int rng 150, Prng.int rng 60, if Prng.bool rng then -1 else nd)
      | 1 | 2 -> (o.Rect.x + Prng.int_in rng (-10) 130, o.Rect.y + Prng.int rng 60, die)
      | _ ->
        ( on_site (o.Rect.x + Prng.choose rng spots.(die)),
          o.Rect.y + (row * dd.Die.row_height),
          die )
    in
    p.Placement.x.(c) <- x;
    p.Placement.y.(c) <- y;
    p.Placement.die.(c) <- die
  done;
  p

let prop_row_segments_match_grid =
  Props.test "audit row segments equal Grid.segments_of_row" ~count:300
    Props.(int_range 0 1_000_000)
    (fun seed ->
      let d = audit_design (Prng.create seed) in
      List.for_all
        (fun die ->
          List.for_all
            (fun row ->
              Legality.row_segments d die row
              = Tdf_grid.Grid.segments_of_row d die row)
            (List.init (Die.num_rows (Design.die d die)) Fun.id))
        (List.init (Design.n_dies d) Fun.id))

(* The same count and overlap area on every input, and the same messages
   whenever all of them are kept (at most 20; the overlap ones now come
   row by row rather than in hash order, so a cut list may keep
   others). *)
let prop_audit_matches_reference =
  Props.test "legality audit equals the original" ~count:300
    Props.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let d = audit_design rng in
      let p = audit_placement rng d in
      let a = Legality.check d p and r = Ref_legality.check d p in
      a.Legality.n_violations = r.Legality.n_violations
      && a.Legality.overlap_area = r.Legality.overlap_area
      && (r.Legality.n_violations > 20
         || List.sort compare a.Legality.messages
            = List.sort compare r.Legality.messages))

let suite =
  [
    Alcotest.test_case "displacement summary" `Quick test_displacement_summary;
    Alcotest.test_case "per-die normalization" `Quick test_displacement_norm_per_die;
    Alcotest.test_case "hpwl global" `Quick test_hpwl_global;
    Alcotest.test_case "hpwl increase" `Quick test_hpwl_increase;
    Alcotest.test_case "hpwl no nets" `Quick test_hpwl_no_nets;
    Alcotest.test_case "legality accepts legal" `Quick test_legality_accepts_legal;
    Alcotest.test_case "legality overlap" `Quick test_legality_detects_overlap;
    Alcotest.test_case "legality row misalignment" `Quick
      test_legality_detects_row_misalignment;
    Alcotest.test_case "legality outside" `Quick test_legality_detects_outside;
    Alcotest.test_case "legality macro overlap" `Quick
      test_legality_detects_macro_overlap;
    Alcotest.test_case "legality bad die" `Quick test_legality_detects_bad_die;
    Alcotest.test_case "legality site misalignment" `Quick
      test_legality_site_misalignment;
    prop_row_segments_match_grid;
    prop_audit_matches_reference;
  ]
