(* DEF/LEF-lite interchange: parsers, converters, the byte-stable
   export∘import∘export invariant, the import→run→eco→export pipeline on
   the checked-in open-design example, and tokenizer fuzzing (truncation,
   comment injection, whitespace mangling — typed errors, never escaped
   exceptions). *)

module Lef = Tdf_def_lef.Lef
module Def = Tdf_def_lef.Def
module Design = Tdf_netlist.Design
module Placement = Tdf_netlist.Placement
module Cell = Tdf_netlist.Cell
module Blockage = Tdf_netlist.Blockage
module Validate = Tdf_robust.Validate
module Prng = Tdf_util.Prng

(* The tests run from _build/default/test; the example files are dune
   deps of the test stanza. *)
let example dir = Printf.sprintf "../examples/open_design/%s" dir

let read_file path = In_channel.with_open_text path In_channel.input_all

(* Equal down to the bits of every float and blind to sharing. *)
let identical a b =
  Marshal.to_string a [ Marshal.No_sharing ] = Marshal.to_string b [ Marshal.No_sharing ]

(* [Def.to_design], checked against the reference converter
   (test/ref_def.ml): the same [Ok] value or the same [Error] string. *)
let to_design ~lef defs =
  let got = Def.to_design ~lef defs in
  if not (identical got (Ref_def.Def.to_design ~lef (List.map Ref_def.Def.of_flat defs))) then
    Alcotest.failf "to_design differs from the reference (got %s)"
      (match got with Ok _ -> "Ok" | Error e -> "Error " ^ e);
  got

let example_pair () =
  let lef =
    match Lef.load (example "small.lef") with
    | Ok l -> l
    | Error e -> Alcotest.failf "example LEF: %s" e
  in
  let defs =
    List.map
      (fun f ->
        match Def.load (example f) with
        | Ok d -> d
        | Error e -> Alcotest.failf "example %s: %s" f e)
      [ "small.d0.def"; "small.d1.def" ]
  in
  (lef, defs)

let import_example () =
  let lef, defs = example_pair () in
  match to_design ~lef defs with
  | Ok (d, p) -> (d, p)
  | Error e -> Alcotest.failf "example import: %s" e

(* ---- LEF ----------------------------------------------------------- *)

let test_lef_example () =
  let l = Lef.load_exn (example "small.lef") in
  Alcotest.(check int) "sites" 1 (List.length l.Lef.sites);
  Alcotest.(check int) "macros" 4 (List.length l.Lef.macros);
  let s = List.hd l.Lef.sites in
  Alcotest.(check string) "site name" "unit" s.Lef.s_name;
  Alcotest.(check int) "site h" 8 s.Lef.s_h;
  (match Lef.find_macro l "BUF_X2" with
  | Some m ->
    Alcotest.(check (option (array int))) "per-die widths" (Some [| 5; 4 |])
      m.Lef.m_widths
  | None -> Alcotest.fail "BUF_X2 missing");
  (match Lef.find_macro l "RAM16" with
  | Some m -> Alcotest.(check string) "block class" "BLOCK" m.Lef.m_class
  | None -> Alcotest.fail "RAM16 missing");
  (* canonical writer is a fixpoint: write(read(write(read x))) stable *)
  let once = Lef.to_string l in
  Alcotest.(check string) "writer fixpoint" once
    (Lef.to_string (Lef.read_exn once))

let test_lef_errors_typed () =
  let cases =
    [
      "MACRO m\nCLASS CORE ;\nEND m\nEND LIBRARY";  (* missing SIZE *)
      "SITE s\nSIZE 0 BY 8 ;\nEND s\nEND LIBRARY";  (* zero size *)
      "FROBNICATE 1 ;\nEND LIBRARY";  (* unknown statement *)
      "MACRO m\nSIZE 2 BY 8 ;\nEND x\nEND LIBRARY";  (* wrong END *)
      "# tdflow.widths ghost 1 2\nEND LIBRARY";  (* unknown macro *)
      "# tdflow.bogus 1\nEND LIBRARY";  (* unknown extension *)
      "END LIBRARY\nMACRO late";  (* trailing tokens *)
      "MACRO m\nSIZE 2 BY";  (* truncated *)
    ]
  in
  List.iter
    (fun text ->
      match Lef.read text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected a parse error for %S" text)
    cases

(* ---- DEF ----------------------------------------------------------- *)

let test_def_example_fields () =
  let d = Def.load_exn (example "small.d0.def") in
  Alcotest.(check string) "design" "smoke" d.Def.design;
  Alcotest.(check int) "units" 1000 d.Def.units;
  Alcotest.(check (option int)) "die tag" (Some 0) d.Def.die;
  Alcotest.(check (option int)) "n_dies tag" (Some 2) d.Def.n_dies;
  Alcotest.(check int) "rows" 5 (List.length d.Def.rows);
  Alcotest.(check int) "components" 6 (Array.length d.Def.comp_name);
  Alcotest.(check int) "pins" 2 (List.length d.Def.pins);
  Alcotest.(check int) "nets" 3 (Array.length d.Def.net_name);
  Alcotest.(check int) "blockages" 1 (List.length d.Def.blockages);
  (match d.Def.max_util with
  | Some u -> Alcotest.(check (float 1e-9)) "max_util" 0.9 u
  | None -> Alcotest.fail "max_util tag missing");
  let index_of name a =
    let rec go i =
      if i = Array.length a then None
      else if d.Def.names.(a.(i)) = name then Some i
      else go (i + 1)
    in
    go 0
  in
  (match index_of "u2" d.Def.gp_comp with
  | Some g ->
    Alcotest.(check int) "gp x" 11 d.Def.gp_x.(g);
    Alcotest.(check (float 1e-9)) "gp weight" 2.0 d.Def.gp_w.(g)
  | None -> Alcotest.fail "gp u2 missing");
  match index_of "ram0" d.Def.comp_name with
  | Some j -> Alcotest.(check bool) "ram fixed" true (d.Def.comp_status.(j) = Def.Fixed)
  | None -> Alcotest.fail "ram0 missing"

let test_def_errors_typed () =
  let cases =
    [
      "DESIGN d ;\nEND DESIGN";  (* missing DIEAREA *)
      "DIEAREA ( 0 0 ) ( 10 10 ) ;\nEND DESIGN";  (* missing DESIGN *)
      "DESIGN d ;\nDIEAREA ( 10 10 ) ( 0 0 ) ;\nEND DESIGN";  (* inverted *)
      "DESIGN d ;\nDIEAREA ( 0 0 ) ( 9 9 ) ;\nCOMPONENTS 2 ;\n\
       - a m ;\nEND COMPONENTS\nEND DESIGN";  (* count mismatch *)
      "DESIGN d ;\nDIEAREA ( 0 0 ) ( 9 9 ) ;\n\
       ROW r s 0 0 N DO 4 BY 2 ;\nEND DESIGN";  (* BY 2 rows *)
      "DESIGN d ;\nDIEAREA ( 0 0 ) ( 9 9 ) ;\nEND DESIGN\nleftover";
      "DESIGN d ;\nDIEAREA ( 0 0 ) ( 9 9 ) ;\n# tdflow.die 0\nEND DESIGN";
      "DESIGN d ;\nDIEAREA ( 0 0 ) ( 9 9 ) ;\n# tdflow.nope 1\nEND DESIGN";
      "DESIGN d ;\nCOMPONENTS 1 ;\n- a";  (* truncated *)
      "TRACKS X 0 DO 5 STEP 2 LAYER m1 ;\nEND DESIGN";  (* out of subset *)
    ]
  in
  List.iter
    (fun text ->
      match Def.read text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected a parse error for %S" text)
    cases

(* Numbers are DEF decimals.  OCaml's literal syntax, which the stdlib
   conversions accept, is a typed error naming the token, in statements
   and in extension comments alike; with several bad numbers in one
   statement, the first is named. *)
let test_def_number_syntax () =
  let base = "DESIGN d ;\nUNITS DISTANCE MICRONS 1 ;\n" in
  List.iter
    (fun (body, want) ->
      match Def.read (base ^ body ^ "\nEND DESIGN") with
      | Error e -> Alcotest.(check string) body want e
      | Ok _ -> Alcotest.failf "expected a parse error for %S" body)
    [
      ("DIEAREA ( 0x10 0 ) ( 1_000 +8 ) ;", {|line 3: expected integer, got "0x10"|});
      ("DIEAREA ( 16 0 ) ( 1_000 8 ) ;", {|line 3: expected integer, got "1_000"|});
      ("DIEAREA ( 16 0 ) ( 1000 +8 ) ;", {|line 3: expected integer, got "+8"|});
      ("DIEAREA ( 16 0 ) ( 1_000 +8 ) ;", {|line 3: expected integer, got "1_000"|});
      ( "DIEAREA ( 0 0 ) ( 9 9 ) ;\nROW r s 1_0 +8 N DO 0x4 BY 2 ;",
        {|line 4: expected integer, got "1_0"|} );
      ( "DIEAREA ( 0 0 ) ( 9 9 ) ;\n# tdflow.gp c1 1_0 +8 nan",
        {|line 4: expected integer, got "1_0"|} );
      ( "DIEAREA ( 0 0 ) ( 9 9 ) ;\n# tdflow.gp c1 1 2 nan",
        {|line 4: expected number, got "nan"|} );
      ( "DIEAREA ( 0 0 ) ( 9 9 ) ;\n# tdflow.max_util 1.",
        {|line 4: expected number, got "1."|} );
    ];
  (* long but valid decimals still read through the stdlib *)
  match
    Def.read
      (base ^ "DIEAREA ( 0000000000000000000000 -0 ) ( 10 10 ) ;\n"
     ^ "# tdflow.max_util 0.12345678901234567890e1\nEND DESIGN")
  with
  | Ok d -> Alcotest.(check (option (float 0.))) "max_util" (Some 1.2345678901234567) d.Def.max_util
  | Error e -> Alcotest.failf "long decimals rejected: %s" e

(* SIZE's two numbers are read in source order, so the error names the
   first bad one. *)
let test_lef_number_order () =
  match Lef.read "MACRO m\nSIZE 1_0 BY +8 ;\nEND m\nEND LIBRARY" with
  | Error e -> Alcotest.(check string) "first bad number" {|line 2: expected integer, got "1_0"|} e
  | Ok _ -> Alcotest.fail "expected a parse error"

(* ---- converters ---------------------------------------------------- *)

let test_example_to_design () =
  let d, p = import_example () in
  Alcotest.(check int) "dies" 2 (Design.n_dies d);
  (* 10 components, 1 FIXED -> 9 cells; ram0 + the PLACEMENT rect -> 2
     blockages; 4 nets (the external-only pins drop no whole net here) *)
  Alcotest.(check int) "cells" 9 (Design.n_cells d);
  Alcotest.(check int) "macros" 2 (Array.length d.Design.macros);
  Alcotest.(check int) "nets" 4 (Array.length d.Design.nets);
  (* heterogeneous widths came from tdflow.widths *)
  let u3 =
    Array.to_list d.Design.cells |> List.find (fun c -> c.Cell.name = "u3")
  in
  Alcotest.(check (array int)) "u3 widths" [| 5; 4 |] u3.Cell.widths;
  (* cross-die net n_clk: u1/u2 on die 0, v1 on die 1 (external pin
     dropped) *)
  let n_clk =
    Array.to_list d.Design.nets |> List.find (fun n -> n.Tdf_netlist.Net.name = "n_clk")
  in
  Alcotest.(check int) "n_clk arity" 3 (Array.length n_clk.Tdf_netlist.Net.pins);
  (* the unplaced, gp-less u5 seeds at its die center *)
  let u5 =
    Array.to_list d.Design.cells |> List.find (fun c -> c.Cell.name = "u5")
  in
  Alcotest.(check int) "u5 center x" 30 p.Placement.x.(u5.Cell.id);
  Alcotest.(check int) "u5 die" 0 p.Placement.die.(u5.Cell.id);
  Alcotest.(check (float 1e-9)) "die1 max_util" 0.85
    (Design.die d 1).Tdf_netlist.Die.max_util;
  (* weight came through the gp comment *)
  let v4 =
    Array.to_list d.Design.cells |> List.find (fun c -> c.Cell.name = "v4")
  in
  Alcotest.(check (float 1e-9)) "v4 weight" 0.5 v4.Cell.weight

let test_to_design_errors () =
  let lef =
    Lef.read_exn
      "SITE s\nSIZE 1 BY 8 ;\nEND s\nMACRO m\nSIZE 3 BY 8 ;\nEND m\nEND LIBRARY"
  in
  let base rows comps =
    Printf.sprintf
      "DESIGN d ;\nDIEAREA ( 0 0 ) ( 20 16 ) ;\n%s\nCOMPONENTS %d ;\n%sEND \
       COMPONENTS\nEND DESIGN"
      rows (List.length comps)
      (String.concat "" (List.map (fun c -> "- " ^ c ^ " ;\n") comps))
  in
  let row = "ROW r s 0 0 N DO 20 BY 1 ;" in
  let expect_error what defs =
    match to_design ~lef defs with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected %s to fail" what
  in
  expect_error "empty import" [];
  expect_error "unknown site"
    [ Def.read_exn (base "ROW r ghost 0 0 N DO 20 BY 1 ;" []) ];
  expect_error "no rows" [ Def.read_exn (base "" []) ];
  expect_error "unknown macro"
    [ Def.read_exn (base row [ "a ghost + PLACED ( 0 0 ) N" ]) ];
  expect_error "duplicate component"
    [
      Def.read_exn
        (base row [ "a m + PLACED ( 0 0 ) N"; "a m + PLACED ( 4 0 ) N" ]);
    ];
  expect_error "gp names unknown component"
    [
      Def.read_exn
        (base row [ "a m + PLACED ( 0 0 ) N" ] ^ "\n# tdflow.gp ghost 1 1 0.0");
    ];
  (* mixed tagging: one file tagged, one not *)
  let tagged =
    Def.read_exn ("# tdflow.die 0 of 2\n" ^ base row [])
  in
  expect_error "mixed die tags" [ tagged; Def.read_exn (base row []) ];
  (* same die claimed twice *)
  let tagged1 = Def.read_exn ("# tdflow.die 0 of 2\n" ^ base row []) in
  expect_error "die claimed twice" [ tagged; tagged1 ];
  (* macro height vs row height *)
  let lef_tall =
    Lef.read_exn
      "SITE s\nSIZE 1 BY 8 ;\nEND s\nMACRO m\nSIZE 3 BY 16 ;\nEND m\nEND \
       LIBRARY"
  in
  (match
     to_design ~lef:lef_tall
       [ Def.read_exn (base row [ "a m + PLACED ( 0 0 ) N" ]) ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected row-height mismatch to fail")

let canonical_strings design placement =
  let lef, defs = Def.of_design ?placement design in
  (Lef.to_string lef, List.map Def.to_string defs)

let reimport (ltxt, dtxts) =
  let lef = Lef.read_exn ltxt in
  let defs = List.map Def.read_exn dtxts in
  match to_design ~lef defs with
  | Ok (d, p) -> (d, p)
  | Error e -> Alcotest.failf "reimport failed: %s" e

let test_export_import_export_bytes () =
  let check_design name design placement =
    let ltxt, dtxts = canonical_strings design placement in
    let d, p = reimport (ltxt, dtxts) in
    let ltxt2, dtxts2 = canonical_strings d (Some p) in
    Alcotest.(check string) (name ^ " lef bytes") ltxt ltxt2;
    List.iteri
      (fun i (a, b) ->
        Alcotest.(check string) (Printf.sprintf "%s def %d bytes" name i) a b)
      (List.combine dtxts dtxts2)
  in
  check_design "fixture" (Fixtures.with_macro ()) None;
  let gen =
    Tdf_benchgen.Gen.generate_by_name ~scale:0.02 Tdf_benchgen.Spec.Iccad2023
      "case2"
  in
  check_design "generated" gen None;
  (* and through a real legalized placement *)
  let r = Tdf_legalizer.Flow3d.legalize gen in
  check_design "legalized" gen (Some r.Tdf_legalizer.Flow3d.placement)

let test_import_preserves_semantics () =
  (* Import re-numbers cell ids die-major, so compare name-keyed
     semantics: every cell's widths/gp/weight, every macro, every net's
     member names.  Floats first take one %.6f-quantizing trip through
     the native text format so both sides render identically. *)
  let d0 =
    Tdf_io.Text.read_design_exn
      (Tdf_io.Text.design_to_string (Fixtures.random ~with_macros:true 11))
  in
  let d1, _ = reimport (canonical_strings d0 None) in
  let cell_sig (d : Design.t) =
    Array.to_list d.Design.cells
    |> List.map (fun (c : Cell.t) ->
           ( c.Cell.name,
             Array.to_list c.Cell.widths,
             c.Cell.gp_x,
             c.Cell.gp_y,
             c.Cell.gp_z,
             c.Cell.weight ))
    |> List.sort compare
  in
  let macro_sig (d : Design.t) =
    Array.to_list d.Design.macros
    |> List.map (fun (m : Blockage.t) -> (m.Blockage.name, m.Blockage.die, m.Blockage.rect))
    |> List.sort compare
  in
  let net_sig (d : Design.t) =
    Array.to_list d.Design.nets
    |> List.map (fun (n : Tdf_netlist.Net.t) ->
           ( n.Tdf_netlist.Net.name,
             Array.to_list n.Tdf_netlist.Net.pins
             |> List.map (fun p -> (Design.cell d p).Cell.name)
             |> List.sort compare ))
    |> List.sort compare
  in
  Alcotest.(check bool) "cells survive the DEF trip" true
    (cell_sig d0 = cell_sig d1);
  Alcotest.(check bool) "macros survive the DEF trip" true
    (macro_sig d0 = macro_sig d1);
  Alcotest.(check bool) "nets survive the DEF trip" true
    (net_sig d0 = net_sig d1)

(* ---- duplicate cell names ------------------------------------------ *)

let test_duplicate_cell_names () =
  let mk name id = Tdf_netlist.Cell.make ~id ~name ~widths:[| 3; 3 |] ~gp_x:5 ~gp_y:5 ~gp_z:0. () in
  let d =
    Design.make ~name:"dup" ~dies:(Fixtures.two_dies ())
      ~cells:[| mk "a" 0; mk "a" 1; mk "b" 2 |]
      ()
  in
  let dups =
    List.filter (fun i -> i.Validate.code = "duplicate-cell-name") (Validate.design d)
  in
  Alcotest.(check int) "one duplicate flagged" 1 (List.length dups);
  List.iter
    (fun i -> Alcotest.(check bool) "warning severity" true (i.Validate.severity = Validate.Warning))
    dups;
  (match Def.of_design d with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "of_design must refuse duplicate names");
  let repaired, notes = Validate.repair d in
  Alcotest.(check bool) "repair renamed something" true
    (List.exists (fun n -> String.length n > 0) notes);
  Alcotest.(check int) "no duplicates after repair" 0
    (List.length
       (List.filter
          (fun i -> i.Validate.code = "duplicate-cell-name")
          (Validate.design repaired)));
  (* repaired design exports fine and round-trips *)
  let ltxt, dtxts = canonical_strings repaired None in
  let d2, p2 = reimport (ltxt, dtxts) in
  let ltxt2, dtxts2 = canonical_strings d2 (Some p2) in
  Alcotest.(check string) "lef bytes" ltxt ltxt2;
  List.iteri
    (fun i (a, b) -> Alcotest.(check string) (Printf.sprintf "def %d" i) a b)
    (List.combine dtxts dtxts2)

(* ---- end-to-end: import -> run -> eco -> export -> re-import ------- *)

let test_open_design_pipeline () =
  let design, _seed = import_example () in
  let report =
    match Tdf_robust.Pipeline.run design with
    | Ok r -> r
    | Error e -> Alcotest.failf "pipeline: %s" (Tdf_robust.Error.to_string e)
  in
  Alcotest.(check bool) "legal" true report.Tdf_robust.Pipeline.legal;
  Alcotest.(check bool) "zero fallbacks (primary path)" true
    (report.Tdf_robust.Pipeline.path = Tdf_robust.Pipeline.Primary);
  let delta =
    Tdf_io.Delta.read_exn "move 0 40 8 0\nadd w1 20 8 1 4 4\n"
  in
  let eco =
    match
      Tdf_incremental.Eco.run design report.Tdf_robust.Pipeline.placement delta
    with
    | Ok r -> r
    | Error e ->
      Alcotest.failf "eco: %s" (Tdf_incremental.Eco.error_to_string e)
  in
  Alcotest.(check int) "eco zero fallbacks" 0
    eco.Tdf_incremental.Eco.stats.Tdf_incremental.Eco.fallbacks;
  let final = eco.Tdf_incremental.Eco.design in
  let final_p = eco.Tdf_incremental.Eco.placement in
  Alcotest.(check bool) "eco legal" true
    (Tdf_metrics.Legality.is_legal final final_p);
  Alcotest.(check int) "no fatal preflight issues" 0
    (List.length (Validate.fatal (Validate.design final)));
  (* export the final state, re-import, re-export: byte-stable and still
     legal *)
  let ltxt, dtxts = canonical_strings final (Some final_p) in
  let d2, p2 = reimport (ltxt, dtxts) in
  Alcotest.(check bool) "reimported placement legal" true
    (Tdf_metrics.Legality.is_legal d2 p2);
  let ltxt2, dtxts2 = canonical_strings d2 (Some p2) in
  Alcotest.(check string) "lef byte-stable" ltxt ltxt2;
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string) (Printf.sprintf "def %d byte-stable" i) a b)
    (List.combine dtxts dtxts2)

(* ---- fuzz ---------------------------------------------------------- *)

(* Corpus: the two example DEFs, the example LEF, a canonical export of a
   random fixture, and the DEFs of a few cross-file and name-table cases
   ([Def_cases]) — parsed by the matching reader. *)
let corpus =
  lazy
    (let d = Fixtures.random 7 in
     let lef, defs = Def.of_design d in
     [
       (`Lef, read_file (example "small.lef"));
       (`Def, read_file (example "small.d0.def"));
       (`Def, read_file (example "small.d1.def"));
       (`Lef, Lef.to_string lef);
       (`Def, Def.to_string (List.hd defs));
     ]
     @ List.concat_map
         (fun seed ->
           List.map (fun t -> (`Def, t)) (List.tl (Def_cases.import_set (Prng.create seed))))
         [ 1; 2; 3; 4 ])

let parse_never_raises (kind, text) =
  match kind with
  | `Lef -> ( match Lef.read text with Ok _ | Error _ -> true)
  | `Def -> ( match Def.read text with Ok _ | Error _ -> true)

let pick rng l = List.nth l (Prng.int_in rng 0 (List.length l - 1))

let fuzz_truncation =
  Props.test "fuzz: truncation never escapes as an exception" ~count:300
    (Props.int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let kind, text = pick rng (Lazy.force corpus) in
      let cut = Prng.int_in rng 0 (String.length text) in
      parse_never_raises (kind, String.sub text 0 cut))

let fuzz_comment_injection =
  Props.test "fuzz: comment injection leaves the parse identical" ~count:200
    (Props.int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let kind, text = pick rng (Lazy.force corpus) in
      let noise =
        [
          "# a comment with ( tokens ; and ) keywords MACRO END";
          "   # indented comment DESIGN 4 BY 2";
          "#tdflowish but not an extension: tdflow_x 1";
          "";
        ]
      in
      let lines = String.split_on_char '\n' text in
      let injected =
        List.concat_map
          (fun l ->
            if Prng.int_in rng 0 3 = 0 then [ pick rng noise; l ] else [ l ])
          lines
        |> String.concat "\n"
      in
      match kind with
      | `Lef -> Lef.read injected = Lef.read text
      | `Def -> Def.read injected = Def.read text)

let fuzz_whitespace =
  Props.test "fuzz: whitespace mangling leaves the parse identical"
    ~count:200
    (Props.int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let kind, text = pick rng (Lazy.force corpus) in
      let b = Buffer.create (String.length text * 2) in
      String.iter
        (fun c ->
          match c with
          | ' ' ->
            (match Prng.int_in rng 0 3 with
            | 0 -> Buffer.add_string b "  "
            | 1 -> Buffer.add_string b " \t "
            | 2 -> Buffer.add_string b "\t"
            | _ -> Buffer.add_char b ' ')
          | c -> Buffer.add_char b c)
        text;
      let mangled = Buffer.contents b in
      match kind with
      | `Lef -> Lef.read mangled = Lef.read text
      | `Def -> Def.read mangled = Def.read text)

let fuzz_line_noise =
  Props.test "fuzz: random line edits yield Ok or a typed error" ~count:300
    (Props.int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let kind, text = pick rng (Lazy.force corpus) in
      let lines = Array.of_list (String.split_on_char '\n' text) in
      let n = Array.length lines in
      (* drop, duplicate or garble a few random lines *)
      for _ = 1 to Prng.int_in rng 1 4 do
        let i = Prng.int_in rng 0 (n - 1) in
        lines.(i) <-
          (match Prng.int_in rng 0 2 with
          | 0 -> ""
          | 1 -> lines.(i) ^ " " ^ lines.(i)
          | _ -> "ZZZ " ^ lines.(i))
      done;
      parse_never_raises
        (kind, String.concat "\n" (Array.to_list lines)))

let suite =
  [
    Alcotest.test_case "lef: example library" `Quick test_lef_example;
    Alcotest.test_case "lef: typed parse errors" `Quick test_lef_errors_typed;
    Alcotest.test_case "def: example fields" `Quick test_def_example_fields;
    Alcotest.test_case "def: typed parse errors" `Quick test_def_errors_typed;
    Alcotest.test_case "def: numbers are DEF decimals" `Quick test_def_number_syntax;
    Alcotest.test_case "lef: SIZE names its first bad number" `Quick
      test_lef_number_order;
    Alcotest.test_case "to_design: example pair" `Quick test_example_to_design;
    Alcotest.test_case "to_design: typed converter errors" `Quick
      test_to_design_errors;
    Alcotest.test_case "export∘import∘export is byte-identical" `Quick
      test_export_import_export_bytes;
    Alcotest.test_case "import preserves design semantics" `Quick
      test_import_preserves_semantics;
    Alcotest.test_case "duplicate cell names: check, repair, export" `Quick
      test_duplicate_cell_names;
    Alcotest.test_case "open design: import→run→eco→export→re-import" `Quick
      test_open_design_pipeline;
    fuzz_truncation;
    fuzz_comment_injection;
    fuzz_whitespace;
    fuzz_line_noise;
  ]
