module Text = Tdf_io.Text
module Svg = Tdf_io.Svg
module Loader = Tdf_io.Loader
module Design = Tdf_netlist.Design
module Placement = Tdf_netlist.Placement

let test_design_roundtrip () =
  let d = Fixtures.with_macro () in
  let s = Text.design_to_string d in
  match Text.read_design s with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok d' ->
    Alcotest.(check string) "roundtrip stable" s (Text.design_to_string d')

let test_generated_roundtrip () =
  let d =
    Tdf_benchgen.Gen.generate_by_name ~scale:0.05 Tdf_benchgen.Spec.Iccad2023
      "case2"
  in
  let s = Text.design_to_string d in
  match Text.read_design s with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok d' ->
    Alcotest.(check int) "cells" (Design.n_cells d) (Design.n_cells d');
    Alcotest.(check string) "identical" s (Text.design_to_string d')

let test_placement_roundtrip () =
  let d = Fixtures.clustered () in
  let p = (Tdf_legalizer.Flow3d.legalize d).Tdf_legalizer.Flow3d.placement in
  let s = Text.placement_to_string d p in
  match Text.read_placement d s with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok p' ->
    Alcotest.(check (array int)) "x" p.Placement.x p'.Placement.x;
    Alcotest.(check (array int)) "y" p.Placement.y p'.Placement.y;
    Alcotest.(check (array int)) "die" p.Placement.die p'.Placement.die

let test_parse_errors () =
  (match Text.read_design "die zero one" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error on garbage");
  (match Text.read_design "frobnicate 1 2 3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error on unknown record");
  match Text.read_placement (Fixtures.clustered ()) "place 999 0 0 0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error on bad cell id"

let test_comments_and_blank_lines () =
  let d = Fixtures.clustered () in
  let s = "# a comment\n\n" ^ Text.design_to_string d ^ "\n# trailing\n" in
  match Text.read_design s with
  | Ok d' -> Alcotest.(check int) "cells" (Design.n_cells d) (Design.n_cells d')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_file_io () =
  let d = Fixtures.with_macro () in
  let path = Filename.temp_file "tdflow" ".design" in
  Text.save_design path d;
  (match Text.load_design path with
  | Ok d' ->
    Alcotest.(check string) "file roundtrip" (Text.design_to_string d)
      (Text.design_to_string d')
  | Error e -> Alcotest.failf "load failed: %s" e);
  Sys.remove path

let test_svg_renders () =
  let d = Fixtures.with_macro () in
  let p = (Tdf_legalizer.Flow3d.legalize d).Tdf_legalizer.Flow3d.placement in
  let svg = Svg.render_die d p ~die:0 ~title:"test" () in
  Alcotest.(check bool) "is svg" true
    (String.length svg > 64
    && String.sub svg 0 4 = "<svg"
    && String.length svg - 7 >= 0);
  (* macro rectangle must be drawn *)
  Alcotest.(check bool) "macro drawn" true
    (String.length svg > 0
    &&
    let re = "#bbbbbb" in
    let found = ref false in
    for i = 0 to String.length svg - String.length re do
      if String.sub svg i (String.length re) = re then found := true
    done;
    !found)

let test_svg_counts_cells () =
  let d = Fixtures.clustered () in
  let p = (Tdf_legalizer.Flow3d.legalize d).Tdf_legalizer.Flow3d.placement in
  let die0 = ref 0 in
  for c = 0 to Placement.n_cells p - 1 do
    if p.Placement.die.(c) = 0 then incr die0
  done;
  let svg = Svg.render_die d p ~die:0 () in
  let count_sub sub =
    let n = ref 0 in
    for i = 0 to String.length svg - String.length sub do
      if String.sub svg i (String.length sub) = sub then incr n
    done;
    !n
  in
  (* one displacement line per cell on the die *)
  Alcotest.(check int) "one line per cell" !die0 (count_sub "<line ")

(* One loader serves both dialects: the first keyword off blank and
   comment lines picks the parser, and either parser's "line N:" error
   comes back in path:N: form. *)
let test_loader_dialects () =
  let d = Fixtures.with_macro () in
  (match Loader.design (Text.design_to_string d) with
  | Ok d' ->
    Alcotest.(check string) "native design" (Text.design_to_string d)
      (Text.design_to_string d')
  | Error e -> Alcotest.failf "native design rejected: %s" e);
  (match
     Loader.design ("# contest case\n\n   \n" ^ Tdf_io.Contest.to_string d)
   with
  | Ok d' -> Alcotest.(check int) "contest cells" (Design.n_cells d) (Design.n_cells d')
  | Error e -> Alcotest.failf "contest text behind comments rejected: %s" e);
  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  let error_of = function
    | Ok _ -> Alcotest.fail "corrupt design accepted"
    | Error e -> e
  in
  let contest = "# c\nNumTechnologies 2\nTech BadTech\n" in
  let native = "# c\n\nbogus 3\n" in
  List.iter
    (fun (name, text, line) ->
      let raw = error_of (Loader.design text) in
      Alcotest.(check bool)
        (name ^ ": parser reports the line")
        true
        (starts_with (Printf.sprintf "line %d:" line) raw);
      Alcotest.(check bool)
        (name ^ ": rewritten to path:N:")
        true
        (starts_with (Printf.sprintf "case.txt:%d:" line)
           (error_of (Loader.design ~path:"case.txt" text))))
    [ ("contest", contest, 3); ("native", native, 3) ];
  Alcotest.(check string) "other messages get a path: prefix"
    "case.txt: no such thing"
    (Loader.diagnostic ~path:"case.txt" "no such thing");
  Alcotest.(check string) "no path, no rewrite" "line 2: x"
    (Loader.diagnostic "line 2: x")

let suite =
  [
    Alcotest.test_case "design roundtrip" `Quick test_design_roundtrip;
    Alcotest.test_case "generated roundtrip" `Quick test_generated_roundtrip;
    Alcotest.test_case "placement roundtrip" `Quick test_placement_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "comments and blanks" `Quick test_comments_and_blank_lines;
    Alcotest.test_case "file io" `Quick test_file_io;
    Alcotest.test_case "design loader: dialects and diagnostics" `Quick
      test_loader_dialects;
    Alcotest.test_case "svg renders" `Quick test_svg_renders;
    Alcotest.test_case "svg cell lines" `Quick test_svg_counts_cells;
  ]
