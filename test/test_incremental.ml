(* Incremental (ECO) engine: delta parsing, perturbation semantics, and
   differential properties of the localized re-legalization — legal
   results, frozen regions, bounded disturbance, job-count determinism. *)

module Design = Tdf_netlist.Design
module Cell = Tdf_netlist.Cell
module Placement = Tdf_netlist.Placement
module Flow3d = Tdf_legalizer.Flow3d
module Legality = Tdf_metrics.Legality
module Delta = Tdf_io.Delta
module Perturb = Tdf_incremental.Perturb
module Eco = Tdf_incremental.Eco
module Prng = Tdf_util.Prng

let check = Alcotest.(check bool)

(* ---- delta text format -------------------------------------------- *)

let test_delta_roundtrip () =
  let ops =
    [
      Delta.Move { cell = 3; x = 10; y = 20; die = 1 };
      Delta.Resize { cell = 4; widths = [| 5; 7 |] };
      Delta.Add { name = "u9"; x = 1; y = 2; die = 0; widths = [| 4; 4 |] };
      Delta.Remove { cell = 0 };
      Delta.Add_macro { name = "m1"; die = 1; x = 8; y = 10; w = 12; h = 10 };
    ]
  in
  match Delta.read (Delta.to_string ops) with
  | Ok ops' -> check "round-trips" true (ops = ops')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_delta_comments_and_blanks () =
  let text = "# eco\n\n  move 1 2 3 0   # trailing\n\tremove 7\n" in
  match Delta.read text with
  | Ok [ Delta.Move { cell = 1; x = 2; y = 3; die = 0 }; Delta.Remove { cell = 7 } ]
    ->
    ()
  | Ok _ -> Alcotest.fail "wrong ops"
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_delta_diagnostics () =
  (match Delta.read "move 1 2 3\n" with
  | Error e -> check "line 1 op arity" true (String.length e > 6 && String.sub e 0 6 = "line 1")
  | Ok _ -> Alcotest.fail "accepted bad arity");
  (match Delta.read "move 1 2 3 0\nfrobnicate 1\n" with
  | Error e -> check "line 2 keyword" true (String.sub e 0 6 = "line 2")
  | Ok _ -> Alcotest.fail "accepted bad keyword");
  match Delta.read "resize 1 0\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted non-positive width"

(* ---- perturbation layer -------------------------------------------- *)

let legal_fixture seed =
  let d = Fixtures.random ~n:40 seed in
  let prev = (Flow3d.legalize d).Flow3d.placement in
  Alcotest.(check bool) "fixture signoff legal" true (Legality.is_legal d prev);
  (d, prev)

let test_perturb_move_resize () =
  let d, prev = legal_fixture 11 in
  let delta =
    [
      Delta.Move { cell = 5; x = 60; y = 21; die = 1 };
      Delta.Resize { cell = 9; widths = [| 7; 7 |] };
    ]
  in
  match Perturb.apply d prev delta with
  | Error e -> Alcotest.fail e
  | Ok p ->
    check "no renumbering" true
      (Array.for_all2 ( = ) p.Perturb.old_of_new
         (Array.init (Design.n_cells d) Fun.id));
    check "seeds are the two perturbed cells" true
      (List.sort compare p.Perturb.seeds = [ 5; 9 ]);
    check "not structural" true (not p.Perturb.structural);
    check "moved cell at target" true
      (p.Perturb.base.Placement.x.(5) = 60
      && p.Perturb.base.Placement.y.(5) = 21
      && p.Perturb.base.Placement.die.(5) = 1);
    check "moved cell gp anchor updated" true
      ((Design.cell p.Perturb.design 5).Cell.gp_x = 60);
    check "resized cell widths updated" true
      ((Design.cell p.Perturb.design 9).Cell.widths = [| 7; 7 |]);
    check "unperturbed cell keeps prev coords" true
      (p.Perturb.base.Placement.x.(0) = prev.Placement.x.(0)
      && p.Perturb.base.Placement.y.(0) = prev.Placement.y.(0))

let test_perturb_remove_renumbers () =
  let d, prev = legal_fixture 12 in
  let n = Design.n_cells d in
  match Perturb.apply d prev [ Delta.Remove { cell = 3 } ] with
  | Error e -> Alcotest.fail e
  | Ok p ->
    check "one fewer cell" true (Design.n_cells p.Perturb.design = n - 1);
    check "removed cell unmapped" true (p.Perturb.new_of_old.(3) = -1);
    check "later ids shift down" true
      (p.Perturb.new_of_old.(4) = 3 && p.Perturb.old_of_new.(3) = 4);
    check "earlier ids stable" true (p.Perturb.new_of_old.(2) = 2);
    check "no pin references the removed cell" true
      (Array.for_all
         (fun (net : Tdf_netlist.Net.t) ->
           Array.for_all
             (fun pin -> pin >= 0 && pin < n - 1)
             net.Tdf_netlist.Net.pins)
         p.Perturb.design.Design.nets);
    check "survivors keep prev coords" true
      (p.Perturb.base.Placement.x.(3) = prev.Placement.x.(4))

let test_perturb_add () =
  let d, prev = legal_fixture 13 in
  let n = Design.n_cells d in
  let delta =
    [ Delta.Add { name = "eco0"; x = 30; y = 11; die = 0; widths = [| 4; 4 |] } ]
  in
  match Perturb.apply d prev delta with
  | Error e -> Alcotest.fail e
  | Ok p ->
    check "one more cell" true (Design.n_cells p.Perturb.design = n + 1);
    check "added cell has no old id" true (p.Perturb.old_of_new.(n) = -1);
    check "added cell is a seed" true (List.mem n p.Perturb.seeds);
    check "added cell at target" true
      (p.Perturb.base.Placement.x.(n) = 30 && p.Perturb.base.Placement.die.(n) = 0)

let test_perturb_rejects () =
  let d, prev = legal_fixture 14 in
  let bad delta = match Perturb.apply d prev delta with Error _ -> true | Ok _ -> false in
  check "out-of-range cell" true
    (bad [ Delta.Move { cell = 999; x = 0; y = 0; die = 0 } ]);
  check "out-of-range die" true
    (bad [ Delta.Move { cell = 1; x = 0; y = 0; die = 5 } ]);
  check "two ops on one cell" true
    (bad
       [
         Delta.Move { cell = 1; x = 0; y = 0; die = 0 };
         Delta.Remove { cell = 1 };
       ]);
  check "widths arity" true (bad [ Delta.Resize { cell = 1; widths = [| 4 |] } ])

(* ---- sharing apply against the rebuilding reference ---------------- *)

module Net = Tdf_netlist.Net

type op_kind = Move | Resize | Remove | Add | Macro

(* A random design, with its nets as generated or with one net the
   sharing shortcut must not take: an id other than its index, a pin out
   of range, or no pin at all (a record literal, which [Net.make]
   refuses).  A function of the seed, so it can be made again to check
   that [apply] left its input alone. *)
let perturb_design seed =
  let d = Fixtures.random ~n:(5 + (seed mod 36)) ~with_macros:(seed mod 2 = 0) seed in
  let nets = Array.copy d.Design.nets in
  let n = Design.n_cells d in
  (match (seed / 2) mod 6 with
  | 3 -> nets.(0) <- { (nets.(0)) with Net.id = 7 }
  | 4 -> nets.(0) <- { (nets.(0)) with Net.pins = [| 0; n + 2 |] }
  | 5 -> nets.(0) <- { (nets.(0)) with Net.pins = [||] }
  | _ -> ());
  Design.make ~name:d.Design.name ~dies:d.Design.dies ~cells:d.Design.cells
    ~macros:d.Design.macros ~nets ()

(* Up to 8 ops of the given kinds on distinct cells, except that one op
   in 20 names a random id (out of range, or a cell already named). *)
let perturb_ops rng d kinds =
  let n = Design.n_cells d in
  let order = Array.init n Fun.id in
  Prng.shuffle rng order;
  List.init (Prng.int_in rng 1 (Int.min 8 n)) (fun i ->
      let cell = if Prng.int rng 20 = 0 then Prng.int_in rng (-1) n else order.(i) in
      let widths () = [| Prng.int_in rng 1 8; Prng.int_in rng 1 8 |] in
      let x = Prng.int rng 120 and y = Prng.int rng 50 and die = Prng.int rng 2 in
      match Prng.choose rng kinds with
      | Move -> Delta.Move { cell; x; y; die }
      | Resize -> Delta.Resize { cell; widths = widths () }
      | Remove -> Delta.Remove { cell }
      | Add ->
        Delta.Add { name = Printf.sprintf "eco%d" i; x; y; die; widths = widths () }
      | Macro ->
        Delta.Add_macro
          { name = Printf.sprintf "m%d" i; die; x; y; w = Prng.int_in rng 1 15;
            h = Prng.int_in rng 1 15 })

(* [Perturb.apply] must give a result structurally equal to
   [Ref_perturb.apply] (or the same error), leave its input design
   structurally unchanged, and, when no cell is removed, share the nets
   of a design whose nets are all well formed and every cell no op
   names. *)
let prop_perturb_matches_reference =
  let kinds =
    [|
      [| Move; Resize; Remove; Add; Macro |];
      [| Move |];
      [| Move; Resize |];
      [| Add |];
    |]
  in
  Props.test "sharing apply equals the rebuilding apply" ~count:300
    (Props.int_range 0 1_000_000) (fun seed ->
      let d = perturb_design seed in
      let rng = Prng.create (seed + 3) in
      let n = Design.n_cells d in
      let prev =
        {
          Placement.x = Array.init n (fun _ -> Prng.int rng 120);
          y = Array.init n (fun _ -> Prng.int rng 50);
          die = Array.init n (fun _ -> Prng.int rng 2);
        }
      in
      let delta = perturb_ops rng d kinds.(seed mod Array.length kinds) in
      let got = Perturb.apply d prev delta and want = Ref_perturb.apply d prev delta in
      let named = Array.make n false and removes = ref false in
      List.iter
        (function
          | Delta.Move { cell; _ } | Delta.Resize { cell; _ } ->
            if cell >= 0 && cell < n then named.(cell) <- true
          | Delta.Remove _ -> removes := true
          | Delta.Add _ | Delta.Add_macro _ -> ())
        delta;
      got = want
      && d = perturb_design seed
      &&
      match got with
      | Error _ -> true
      | Ok p ->
        let well_formed = (seed / 2) mod 6 < 3 in
        !removes
        || (((not well_formed) || p.Perturb.design.Design.nets == d.Design.nets)
           && Array.for_all Fun.id
                (Array.init n (fun c ->
                     named.(c) || Design.cell p.Perturb.design c == Design.cell d c))))

(* ---- eco engine ----------------------------------------------------- *)

let test_eco_moves_legal () =
  let d, prev = legal_fixture 21 in
  let delta =
    [
      Delta.Move { cell = 2; x = 55; y = 25; die = 0 };
      Delta.Move { cell = 17; x = 60; y = 25; die = 0 };
      Delta.Move { cell = 30; x = 58; y = 25; die = 1 };
    ]
  in
  match Eco.run d prev delta with
  | Error e -> Alcotest.fail (Eco.error_to_string e)
  | Ok r ->
    check "legal" true (Legality.is_legal r.Eco.design r.Eco.placement);
    check "dirty region is a subset" true
      (r.Eco.stats.Eco.dirty_bins <= r.Eco.stats.Eco.total_bins)

let test_eco_structural_delta_legal () =
  let d, prev = legal_fixture 22 in
  let delta =
    [
      Delta.Remove { cell = 6 };
      Delta.Add { name = "eco0"; x = 20; y = 15; die = 1; widths = [| 5; 5 |] };
      Delta.Add_macro { name = "mb"; die = 0; x = 70; y = 20; w = 20; h = 10 };
    ]
  in
  match Eco.run d prev delta with
  | Error e -> Alcotest.fail (Eco.error_to_string e)
  | Ok r ->
    check "legal after remove/add/macro" true
      (Legality.is_legal r.Eco.design r.Eco.placement)

let test_eco_invalid_delta () =
  let d, prev = legal_fixture 23 in
  match Eco.run d prev [ Delta.Remove { cell = -1 } ] with
  | Error (Eco.Invalid_delta _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Eco.error_to_string e)
  | Ok _ -> Alcotest.fail "accepted invalid delta"

(* A big enough grid that the dirty region genuinely excludes most of it:
   cells outside must keep their previous coordinates byte-for-byte. *)
let test_eco_freezes_outside_region () =
  let d =
    Tdf_benchgen.Gen.generate_by_name ~scale:0.05 Tdf_benchgen.Spec.Iccad2023
      "case2"
  in
  let prev = (Flow3d.legalize d).Flow3d.placement in
  let n = Design.n_cells d in
  let delta =
    [
      Delta.Move { cell = 10; x = 500; y = 300; die = 0 };
      Delta.Move { cell = 42; x = 510; y = 305; die = 0 };
    ]
  in
  match Eco.run d prev delta with
  | Error e -> Alcotest.fail (Eco.error_to_string e)
  | Ok r ->
    check "legal" true (Legality.is_legal r.Eco.design r.Eco.placement);
    check "solved locally" true
      (match r.Eco.stats.Eco.path with Eco.Local _ -> true | Eco.Full _ -> false);
    let unmoved = ref 0 in
    for c = 0 to n - 1 do
      if
        c <> 10 && c <> 42
        && r.Eco.placement.Placement.x.(c) = prev.Placement.x.(c)
        && r.Eco.placement.Placement.y.(c) = prev.Placement.y.(c)
        && r.Eco.placement.Placement.die.(c) = prev.Placement.die.(c)
      then incr unmoved
    done;
    let frac = float_of_int !unmoved /. float_of_int n in
    if frac < 0.5 then
      Alcotest.failf "only %.0f%% of cells kept their position (dirty %d/%d bins)"
        (100. *. frac) r.Eco.stats.Eco.dirty_bins r.Eco.stats.Eco.total_bins

(* ---- differential properties ---------------------------------------- *)

(* Move-only ECO deltas in the style of the performance ledger's: [k]
   distinct cells, each moved up to 40 dbu from its current position
   along x and y (clamped to the die outline) and kept on its die. *)
let jitter_delta rng design (prev : Placement.t) k =
  let n = Design.n_cells design in
  let outline = (Design.die design 0).Tdf_netlist.Die.outline in
  let jitter extent v = max 0 (min (extent - 1) (v - 40 + Prng.int rng 81)) in
  let seen = Array.make n false in
  let ops = ref [] in
  while List.length !ops < k do
    let c = Prng.int rng n in
    if not seen.(c) then begin
      seen.(c) <- true;
      ops :=
        Delta.Move
          {
            cell = c;
            x = jitter outline.Tdf_geometry.Rect.w prev.Placement.x.(c);
            y = jitter outline.Tdf_geometry.Rect.h prev.Placement.y.(c);
            die = prev.Placement.die.(c);
          }
        :: !ops
    end
  done;
  List.rev !ops

(* A warm session is a wall-clock optimization only.  Twenty 1% move-only
   deltas stream through one [Eco.Session], and after each one the
   session's result must have the bytes a one-shot [Eco.run] gives on the
   same (design, placement, delta).  Moves give the cells fresh gp
   anchors while keeping the design's structure, so the session reuses
   its grid for every delta after the first and must rebind it to the new
   anchors. *)
let test_warm_eco_equals_one_shot () =
  let d =
    Tdf_benchgen.Gen.generate_by_name ~scale:0.1 Tdf_benchgen.Spec.Iccad2023
      "case2"
  in
  let prev = (Flow3d.legalize d).Flow3d.placement in
  let k = max 1 (Design.n_cells d / 100) in
  let sess = Eco.Session.create d prev in
  let rng = Prng.create 41 in
  let text (r : Eco.result_t) =
    Tdf_io.Text.placement_to_string r.Eco.design r.Eco.placement
  in
  for i = 1 to 20 do
    let design = Eco.Session.design sess in
    let placement = Placement.copy (Eco.Session.placement sess) in
    let delta = jitter_delta rng design placement k in
    match (Eco.run design placement delta, Eco.Session.eco sess delta) with
    | Ok cold, Ok warm ->
      Alcotest.(check string)
        (Printf.sprintf "delta %d: warm bytes = one-shot bytes" i)
        (text cold) (text warm);
      (* the first delta builds the session's grid *)
      check
        (Printf.sprintf "delta %d: warm grid reused" i)
        (i > 1)
        (Eco.Session.grid_reused_last sess)
    | Error e, _ | _, Error e -> Alcotest.fail (Eco.error_to_string e)
  done

(* Random mixed delta over distinct cells; ids refer to the original
   design, targets stay inside the fixtures' 120x50 outline. *)
let random_delta rng d =
  let n = Design.n_cells d in
  let k = 1 + Prng.int rng 4 in
  let used = Array.make n false in
  let ops = ref [] in
  for i = 0 to k - 1 do
    let c = Prng.int rng n in
    if not used.(c) then begin
      used.(c) <- true;
      let op =
        match Prng.int rng 4 with
        | 0 ->
          Delta.Move
            { cell = c; x = Prng.int rng 116; y = Prng.int rng 50;
              die = Prng.int rng 2 }
        | 1 ->
          Delta.Resize
            { cell = c;
              widths = [| 3 + Prng.int rng 5; 3 + Prng.int rng 5 |] }
        | 2 -> Delta.Remove { cell = c }
        | _ ->
          Delta.Add
            { name = Printf.sprintf "eco%d" i; x = Prng.int rng 116;
              y = Prng.int rng 50; die = Prng.int rng 2;
              widths = [| 3 + Prng.int rng 4; 3 + Prng.int rng 4 |] }
      in
      ops := op :: !ops
    end
  done;
  List.rev !ops

let eco_exn d prev delta =
  match Eco.run d prev delta with
  | Ok r -> r
  | Error e -> failwith (Eco.error_to_string e)

let prop_eco_legal =
  Props.test "random delta on legal placement stays legal" ~count:25
    (Props.int_range 0 1_000_000) (fun seed ->
      let d = Fixtures.random ~n:40 seed in
      let prev = (Flow3d.legalize d).Flow3d.placement in
      let rng = Prng.create (seed + 7) in
      let delta = random_delta rng d in
      let r = eco_exn d prev delta in
      Legality.is_legal r.Eco.design r.Eco.placement)

(* The incremental result may differ from a from-scratch run, but not by
   much: both displacement summaries are measured against the perturbed
   design's anchors, and the frozen prev positions were themselves a
   legalization of (almost) those anchors.  Seeds are fixed, so this is a
   deterministic regression bound, not a flaky statistical one. *)
let prop_eco_displacement_bounded =
  Props.test "eco displacement within 3x+1row of from-scratch" ~count:15
    (Props.int_range 0 1_000_000) (fun seed ->
      let d = Fixtures.random ~n:40 seed in
      let prev = (Flow3d.legalize d).Flow3d.placement in
      let rng = Prng.create (seed + 13) in
      let delta = random_delta rng d in
      let r = eco_exn d prev delta in
      let scratch = Flow3d.legalize r.Eco.design in
      let avg p =
        (Tdf_metrics.Displacement.summary r.Eco.design p)
          .Tdf_metrics.Displacement.avg_norm
      in
      avg r.Eco.placement <= (3. *. avg scratch.Flow3d.placement) +. 1.)

let suite =
  [
    Alcotest.test_case "delta round-trip" `Quick test_delta_roundtrip;
    Alcotest.test_case "delta comments and blanks" `Quick
      test_delta_comments_and_blanks;
    Alcotest.test_case "delta diagnostics" `Quick test_delta_diagnostics;
    Alcotest.test_case "perturb move+resize" `Quick test_perturb_move_resize;
    Alcotest.test_case "perturb remove renumbers" `Quick
      test_perturb_remove_renumbers;
    Alcotest.test_case "perturb add" `Quick test_perturb_add;
    Alcotest.test_case "perturb rejects bad deltas" `Quick test_perturb_rejects;
    Alcotest.test_case "eco moves stay legal" `Quick test_eco_moves_legal;
    Alcotest.test_case "eco structural delta stays legal" `Quick
      test_eco_structural_delta_legal;
    Alcotest.test_case "eco rejects invalid delta" `Quick test_eco_invalid_delta;
    Alcotest.test_case "eco freezes outside the dirty region" `Slow
      test_eco_freezes_outside_region;
    Alcotest.test_case "warm session equals one-shot eco" `Quick
      test_warm_eco_equals_one_shot;
    prop_perturb_matches_reference;
    prop_eco_legal;
    prop_eco_displacement_bounded;
  ]
