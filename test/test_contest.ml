module C = Tdf_io.Contest
module Design = Tdf_netlist.Design
module Cell = Tdf_netlist.Cell

let sample =
  {|# ICCAD-2022-style case
NumTechnologies 2
Tech TechA 2
LibCell AND2 6 10
LibCell INV 3 10
Tech TechB 2
LibCell AND2 8 12
LibCell INV 4 12
DieSize 0 0 120 60
TopDieMaxUtil 80
BottomDieMaxUtil 75
BottomDieRows 0 0 120 10 6
TopDieRows 0 0 120 12 5
BottomDieTech TechA
TopDieTech TechB
TerminalSize 4 4
TerminalSpacing 2
NumInstances 3
Inst u1 AND2
Inst u2 INV
Inst u3 INV
NumNets 2
Net n1 2
Pin u1/A
Pin u2/Z
Net n2 3
Pin u1/B
Pin u2/A
Pin u3/Z
Place u1 10 5 0.2
Place u2 50 20 0.8
FixedInst blk1 AND2 Bottom 60 10
|}

let parse_ok text =
  match C.read text with
  | Ok r -> r
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_parse_structure () =
  let d, term = parse_ok sample in
  Alcotest.(check int) "2 dies" 2 (Design.n_dies d);
  Alcotest.(check int) "3 cells" 3 (Design.n_cells d);
  Alcotest.(check int) "1 macro" 1 (Array.length d.Design.macros);
  Alcotest.(check int) "2 nets" 2 (Array.length d.Design.nets);
  (match term with
  | Some t ->
    Alcotest.(check int) "terminal size" 4 t.C.t_size;
    Alcotest.(check int) "terminal spacing" 2 t.C.t_spacing
  | None -> Alcotest.fail "expected terminal spec");
  let bottom = Design.die d 0 and top = Design.die d 1 in
  Alcotest.(check int) "bottom row height" 10 bottom.Tdf_netlist.Die.row_height;
  Alcotest.(check int) "top row height" 12 top.Tdf_netlist.Die.row_height;
  Alcotest.(check (float 1e-9)) "bottom util" 0.75 bottom.Tdf_netlist.Die.max_util

let test_parse_widths_per_tech () =
  let d, _ = parse_ok sample in
  let u1 = Design.cell d 0 in
  Alcotest.(check string) "name" "u1" u1.Cell.name;
  Alcotest.(check int) "bottom width (TechA AND2)" 6 (Cell.width_on u1 0);
  Alcotest.(check int) "top width (TechB AND2)" 8 (Cell.width_on u1 1)

let test_parse_places () =
  let d, _ = parse_ok sample in
  let u1 = Design.cell d 0 and u3 = Design.cell d 2 in
  Alcotest.(check int) "u1 x" 10 u1.Cell.gp_x;
  Alcotest.(check (float 1e-9)) "u1 z" 0.2 u1.Cell.gp_z;
  (* u3 has no Place: defaults to the die center *)
  Alcotest.(check int) "u3 defaults to center x" 60 u3.Cell.gp_x;
  Alcotest.(check (float 1e-9)) "u3 z" 0.5 u3.Cell.gp_z

let test_parse_macro () =
  let d, _ = parse_ok sample in
  let m = d.Design.macros.(0) in
  Alcotest.(check int) "die bottom" 0 m.Tdf_netlist.Blockage.die;
  let r = m.Tdf_netlist.Blockage.rect in
  Alcotest.(check (pair int int)) "position" (60, 10) (r.Tdf_geometry.Rect.x, r.Tdf_geometry.Rect.y);
  Alcotest.(check (pair int int)) "size from TechA" (6, 10) (r.Tdf_geometry.Rect.w, r.Tdf_geometry.Rect.h)

let test_parse_nets () =
  let d, _ = parse_ok sample in
  Alcotest.(check (array int)) "n2 pins" [| 0; 1; 2 |] d.Design.nets.(1).Tdf_netlist.Net.pins

let sample_missing_die = "NumTechnologies 1\nTech T 1\nLibCell A 2 10\n"

let test_errors () =
  let expect_err text =
    match C.read text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse error for %s" text
  in
  expect_err "LibCell X 1 1";  (* outside Tech *)
  expect_err "Frobnicate 1 2";
  expect_err sample_missing_die

let test_pin_count_mismatch () =
  let bad =
    String.concat "\n"
      [
        "NumTechnologies 1"; "Tech T 1"; "LibCell A 2 10";
        "DieSize 0 0 50 40"; "BottomDieRows 0 0 50 10 4"; "TopDieRows 0 0 50 10 4";
        "BottomDieTech T"; "TopDieTech T";
        "NumInstances 1"; "Inst u1 A";
        "NumNets 1"; "Net n1 2"; "Pin u1/A";
      ]
  in
  match C.read bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected pin-count error"

let test_legalize_parsed_design () =
  let d, _ = parse_ok sample in
  let p = (Tdf_legalizer.Flow3d.legalize d).Tdf_legalizer.Flow3d.placement in
  Alcotest.(check bool) "parsed design legalizes" true
    (Tdf_metrics.Legality.is_legal d p)

let test_roundtrip_generated () =
  let d =
    Tdf_benchgen.Gen.generate_by_name ~scale:0.05 Tdf_benchgen.Spec.Iccad2023
      "case2"
  in
  let text = C.to_string ~terminal:{ C.t_size = 4; C.t_spacing = 2 } d in
  match C.read text with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok (d', term) ->
    Alcotest.(check int) "cells" (Design.n_cells d) (Design.n_cells d');
    Alcotest.(check int) "macros" (Array.length d.Design.macros)
      (Array.length d'.Design.macros);
    Alcotest.(check int) "nets" (Array.length d.Design.nets)
      (Array.length d'.Design.nets);
    Alcotest.(check bool) "terminal kept" true (term <> None);
    (* per-cell data survives *)
    for c = 0 to Design.n_cells d - 1 do
      let a = Design.cell d c and b = Design.cell d' c in
      if a.Cell.widths <> b.Cell.widths || a.Cell.gp_x <> b.Cell.gp_x
         || a.Cell.gp_y <> b.Cell.gp_y
      then Alcotest.failf "cell %d changed in roundtrip" c
    done;
    (* same legalization result *)
    let p = (Tdf_legalizer.Flow3d.legalize d').Tdf_legalizer.Flow3d.placement in
    Alcotest.(check bool) "roundtripped design legalizes" true
      (Tdf_metrics.Legality.is_legal d' p)

let test_write_rejects_other_stacks () =
  let dies =
    [|
      Tdf_netlist.Die.make ~index:0
        ~outline:(Tdf_geometry.Rect.make ~x:0 ~y:0 ~w:10 ~h:10)
        ~row_height:10 ();
    |]
  in
  let d = Design.make ~name:"one" ~dies ~cells:[||] () in
  match C.to_string d with
  | exception Invalid_argument msg ->
    Alcotest.(check string) "message names the function"
      "Contest.to_string: the contest dialect describes two-die designs" msg
  | _ -> Alcotest.fail "expected Invalid_argument for non-2-die design"

let suite =
  [
    Alcotest.test_case "parse structure" `Quick test_parse_structure;
    Alcotest.test_case "widths per tech" `Quick test_parse_widths_per_tech;
    Alcotest.test_case "places" `Quick test_parse_places;
    Alcotest.test_case "macro" `Quick test_parse_macro;
    Alcotest.test_case "nets" `Quick test_parse_nets;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "pin count mismatch" `Quick test_pin_count_mismatch;
    Alcotest.test_case "legalize parsed design" `Quick test_legalize_parsed_design;
    Alcotest.test_case "roundtrip generated" `Quick test_roundtrip_generated;
    Alcotest.test_case "write rejects non-2-die" `Quick test_write_rejects_other_stacks;
  ]
