module Rect = Tdf_geometry.Rect
module Die = Tdf_netlist.Die
module Cell = Tdf_netlist.Cell
module Blockage = Tdf_netlist.Blockage
module Net = Tdf_netlist.Net
module Design = Tdf_netlist.Design
module Placement = Tdf_netlist.Placement

let die0 () =
  Die.make ~index:0 ~outline:(Rect.make ~x:0 ~y:5 ~w:100 ~h:43) ~row_height:10 ()

let test_die_rows () =
  let d = die0 () in
  Alcotest.(check int) "4 complete rows" 4 (Die.num_rows d);
  Alcotest.(check int) "row 0 y" 5 (Die.row_y d 0);
  Alcotest.(check int) "row 3 y" 35 (Die.row_y d 3)

let test_die_nearest_row () =
  let d = die0 () in
  Alcotest.(check int) "9 rounds to row 0" 0 (Die.nearest_row d 9);
  Alcotest.(check int) "10 rounds to row 1 (y=15)" 1 (Die.nearest_row d 10);
  Alcotest.(check int) "clamps" 3 (Die.nearest_row d 500)

let test_cell_nearest_die () =
  let c = Fixtures.cell ~id:0 ~x:0 ~y:0 ~z:0.49 () in
  Alcotest.(check int) "0.49 -> die 0" 0 (Cell.nearest_die c ~n_dies:2);
  let c = Fixtures.cell ~id:0 ~x:0 ~y:0 ~z:0.51 () in
  Alcotest.(check int) "0.51 -> die 1" 1 (Cell.nearest_die c ~n_dies:2);
  let c = Fixtures.cell ~id:0 ~x:0 ~y:0 ~z:3.7 () in
  Alcotest.(check int) "clamped to last die" 1 (Cell.nearest_die c ~n_dies:2)

let test_cell_width_on () =
  let c = Fixtures.cell ~id:0 ~w0:3 ~w1:7 ~x:0 ~y:0 ~z:0. () in
  Alcotest.(check int) "bottom width" 3 (Cell.width_on c 0);
  Alcotest.(check int) "top width" 7 (Cell.width_on c 1)

let test_design_validate_ok () =
  match Design.validate (Fixtures.clustered ()) with
  | Ok () -> ()
  | Error es -> Alcotest.failf "unexpected errors: %s" (String.concat "; " es)

let test_design_validate_macro_escape () =
  let dies = Fixtures.two_dies () in
  let macros =
    [| Blockage.make ~id:0 ~die:0 ~rect:(Rect.make ~x:90 ~y:0 ~w:20 ~h:10) () |]
  in
  let d = Design.make ~name:"bad" ~dies ~cells:[||] ~macros () in
  match Design.validate d with
  | Error (e :: _) ->
    Alcotest.(check bool) "mentions escape" true
      (String.length e > 0 && String.exists (fun _ -> true) e)
  | _ -> Alcotest.fail "expected validation error"

let test_design_validate_macro_overlap () =
  let dies = Fixtures.two_dies () in
  let macros =
    [|
      Blockage.make ~id:0 ~die:0 ~rect:(Rect.make ~x:10 ~y:0 ~w:20 ~h:20) ();
      Blockage.make ~id:1 ~die:0 ~rect:(Rect.make ~x:20 ~y:10 ~w:20 ~h:20) ();
    |]
  in
  let d = Design.make ~name:"bad" ~dies ~cells:[||] ~macros () in
  Alcotest.(check bool) "overlap detected" true (Design.validate d <> Ok ())

let test_design_validate_bad_net () =
  let d =
    Design.make ~name:"bad" ~dies:(Fixtures.two_dies ())
      ~cells:[| Fixtures.cell ~id:0 ~x:0 ~y:0 ~z:0. () |]
      ~nets:[| Net.make ~id:0 ~pins:[| 0; 5 |] () |]
      ()
  in
  Alcotest.(check bool) "bad pin detected" true (Design.validate d <> Ok ())

let test_design_validate_width_count () =
  let c = Cell.make ~id:0 ~widths:[| 4 |] ~gp_x:0 ~gp_y:0 ~gp_z:0. () in
  let d = Design.make ~name:"bad" ~dies:(Fixtures.two_dies ()) ~cells:[| c |] () in
  Alcotest.(check bool) "width arity detected" true (Design.validate d <> Ok ())

let test_avg_cell_width () =
  let cells =
    [|
      Fixtures.cell ~id:0 ~w0:2 ~w1:8 ~x:0 ~y:0 ~z:0. ();
      Fixtures.cell ~id:1 ~w0:4 ~w1:8 ~x:0 ~y:0 ~z:0. ();
    |]
  in
  let d = Design.make ~name:"t" ~dies:(Fixtures.two_dies ()) ~cells () in
  Alcotest.(check (float 1e-9)) "avg on die0" 3. (Design.avg_cell_width d 0);
  Alcotest.(check (float 1e-9)) "avg on die1" 8. (Design.avg_cell_width d 1)

let test_placement_initial () =
  let d = Fixtures.clustered () in
  let p = Placement.initial d in
  Alcotest.(check int) "x from gp" 50 p.Placement.x.(0);
  Alcotest.(check int) "y from gp" 11 p.Placement.y.(0);
  Alcotest.(check int) "die from z" 0 p.Placement.die.(0)

let test_placement_displacement () =
  let d = Fixtures.clustered () in
  let p = Placement.initial d in
  Alcotest.(check int) "zero at start" 0 (Placement.displacement d p 0);
  p.Placement.x.(0) <- 53;
  p.Placement.y.(0) <- 20;
  Alcotest.(check int) "manhattan" (3 + 9) (Placement.displacement d p 0)

let test_placement_copy_independent () =
  let d = Fixtures.clustered () in
  let p = Placement.initial d in
  let q = Placement.copy p in
  q.Placement.x.(0) <- 99;
  Alcotest.(check int) "original unchanged" 50 p.Placement.x.(0)

let test_placement_cell_rect () =
  let d = Fixtures.clustered () in
  let p = Placement.initial d in
  p.Placement.die.(0) <- 1;
  let r = Placement.cell_rect d p 0 in
  Alcotest.(check int) "width on die 1" 6 r.Rect.w;
  Alcotest.(check int) "height = row height" 10 r.Rect.h

let suite =
  [
    Alcotest.test_case "die rows" `Quick test_die_rows;
    Alcotest.test_case "die nearest_row" `Quick test_die_nearest_row;
    Alcotest.test_case "cell nearest_die" `Quick test_cell_nearest_die;
    Alcotest.test_case "cell width_on" `Quick test_cell_width_on;
    Alcotest.test_case "validate ok" `Quick test_design_validate_ok;
    Alcotest.test_case "validate macro escape" `Quick test_design_validate_macro_escape;
    Alcotest.test_case "validate macro overlap" `Quick test_design_validate_macro_overlap;
    Alcotest.test_case "validate bad net" `Quick test_design_validate_bad_net;
    Alcotest.test_case "validate width arity" `Quick test_design_validate_width_count;
    Alcotest.test_case "avg cell width" `Quick test_avg_cell_width;
    Alcotest.test_case "placement initial" `Quick test_placement_initial;
    Alcotest.test_case "placement displacement" `Quick test_placement_displacement;
    Alcotest.test_case "placement copy" `Quick test_placement_copy_independent;
    Alcotest.test_case "placement cell_rect" `Quick test_placement_cell_rect;
  ]
