(* Cross-commit golden placement digests.

   The determinism suite compares runs of one build against each other, so
   a kernel rewrite that shifts every placement the same way passes it.
   This suite pins the CRC-32 of the serialized placement (the bytes
   `legalize run -o` writes) for the scale-sweep contest cases under every
   legalizer configuration the project ships, plus one 1% ECO result, to
   the values recorded in [golden_placements.txt].  A performance change
   must leave every digest untouched; a change that moves placements on
   purpose updates the file in the same commit and says why.

   Lines of the file that this suite does not compute (the scale-1.0
   `cli` digests and the serve smoke) are checked by CI against the real
   command line; any other line this suite does not compute fails it, so
   a pin cannot outlive the code it pinned.

   A second file, [golden_io.txt], pins the bytes of every writer in the
   same way: the native design and placement text, the contest dialect,
   and the canonical LEF and per-die DEF exports of two generated cases,
   plus the design file and the export of iccad2023/case2 at full size as
   the command line writes them after [run -m ours].  A change to how
   files are rendered must leave those digests alone.  Two more lines per
   case pin the importer: the design and placement that reading that
   export back and converting it give. *)

module Spec = Tdf_benchgen.Spec
module Gen = Tdf_benchgen.Gen
module Flow3d = Tdf_legalizer.Flow3d
module Config = Tdf_legalizer.Config
module Design = Tdf_netlist.Design
module Placement = Tdf_netlist.Placement
module Delta = Tdf_io.Delta
module Eco = Tdf_incremental.Eco
module Prng = Tdf_util.Prng
module Crc32 = Tdf_util.Crc32

let golden_file = "golden_placements.txt"

let golden_io_file = "golden_io.txt"

let cases = [ (Spec.Iccad2022, "case2"); (Spec.Iccad2023, "case2") ]

let scales = [ 0.1; 0.25 ]

let variants =
  [
    ("default", Config.default);
    ("no_d2d", Config.no_d2d);
    ("bonn_emulation", Config.bonn_emulation);
  ]

let digest design p =
  Crc32.to_hex (Crc32.string (Tdf_io.Text.placement_to_string design p))

let key (suite, case) scale what =
  Printf.sprintf "%s/%s %.2f %s" (Spec.suite_slug suite) case scale what

let legalize cfg design =
  match Flow3d.run ~cfg design with
  | Ok r -> r.Flow3d.placement
  | Error e -> Alcotest.fail (Flow3d.error_to_string e)

(* A 1% move-only delta: distinct random cells, each jittered by at most
   40 dbu around its legal position on its own die. *)
let eco_delta design (prev : Placement.t) =
  let rng = Prng.create 12 in
  let n = Design.n_cells design in
  let k = max 1 (n / 100) in
  let window = 40 in
  let jitter extent v =
    max 0 (min (extent - 1) (v - window + Prng.int rng ((2 * window) + 1)))
  in
  let seen = Array.make n false in
  let ops = ref [] in
  while List.length !ops < k do
    let c = Prng.int rng n in
    if not seen.(c) then begin
      seen.(c) <- true;
      let die = prev.Placement.die.(c) in
      let outline = (Design.die design die).Tdf_netlist.Die.outline in
      ops :=
        Delta.Move
          {
            cell = c;
            x = jitter outline.Tdf_geometry.Rect.w prev.Placement.x.(c);
            y = jitter outline.Tdf_geometry.Rect.h prev.Placement.y.(c);
            die;
          }
        :: !ops
    end
  done;
  List.rev !ops

let eco_digest () =
  let case = (Spec.Iccad2023, "case2") and scale = 0.1 in
  let design = Gen.generate ~scale (Spec.find (fst case) (snd case)) in
  let prev = legalize Config.default design in
  match Eco.run design prev (eco_delta design prev) with
  | Error e -> Alcotest.fail (Eco.error_to_string e)
  | Ok r -> (key case scale "eco1pct", digest r.Eco.design r.Eco.placement)

let computed () =
  let runs =
    List.concat_map
      (fun case ->
        List.concat_map
          (fun scale ->
            let design = Gen.generate ~scale (Spec.find (fst case) (snd case)) in
            List.map
              (fun (name, cfg) ->
                (key case scale name, digest design (legalize cfg design)))
              variants)
          scales)
      cases
  in
  runs @ [ eco_digest () ]

let read_golden file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.rindex_opt line ' ' with
           | Some i ->
             Some
               ( String.trim (String.sub line 0 i),
                 String.sub line (i + 1) (String.length line - i - 1) )
           | None -> Alcotest.failf "%s: malformed line %S" file line)

(* The kinds of line CI checks against the real command line (its
   scale-1.0 and serve-smoke steps); this suite computes every other kind. *)
let ci_checked what =
  List.mem what [ "cli"; "cli-eco-move"; "cli-eco-mixed"; "serve-smoke" ]

(* Golden keys that nothing checks: neither computed here nor of a kind CI
   checks.  Such a line outlives the code it pinned and passes silently. *)
let orphans golden got =
  List.filter_map
    (fun (k, _) ->
      let what = List.hd (List.rev (String.split_on_char ' ' k)) in
      if List.mem_assoc k got || ci_checked what then None else Some k)
    golden

let check_digests file got =
  let golden = read_golden file in
  (match orphans golden got with
  | [] -> ()
  | keys ->
    Alcotest.failf "%s: %d line(s) nothing checks:\n  %s" file
      (List.length keys) (String.concat "\n  " keys));
  let wrong =
    List.filter (fun (k, d) -> List.assoc_opt k golden <> Some d) got
  in
  if wrong <> [] then
    Alcotest.failf
      "%d digest(s) differ from %s:\n%s\n\nall computed digests:\n%s"
      (List.length wrong) file
      (String.concat "\n"
         (List.map
            (fun (k, d) ->
              Printf.sprintf "  %s: want %s, got %s" k
                (Option.value (List.assoc_opt k golden) ~default:"(missing)")
                d)
            wrong))
      (String.concat "\n" (List.map (fun (k, d) -> k ^ " " ^ d) got))

let test_golden_digests () = check_digests golden_file (computed ())

(* A line whose computation was deleted is reported; computed lines and
   the kinds CI checks are not. *)
let test_orphan_lines () =
  let golden =
    [
      ("iccad2023/case2 0.10 eco1pct", "f84ddd95");
      ("iccad2023/case2 0.10 terminals", "9c2c5e4a");
      ("iccad2023/case2 1.00 cli", "c23d7cd9");
      ("iccad2023/case2 1.00 cli-eco-move", "074d8448");
    ]
  in
  Alcotest.(check (list string))
    "orphans" [ "iccad2023/case2 0.10 terminals" ]
    (orphans golden [ ("iccad2023/case2 0.10 eco1pct", "f84ddd95") ])

(* Writer bytes: CRC-32 of each [to_string] on a generated design and its
   unlegalized placement, so the digests depend on the writers alone. *)
let io_cases = [ ((Spec.Iccad2023, "case2"), 0.1); ((Spec.Iccad2022, "case3"), 0.25) ]

(* Importer output: the export read back through [Lef.read]/[Def.read]
   and converted by [Def.to_design], rendered in the native text format,
   so the digests pin the readers and the converter as the lines above
   pin the writers. *)
let import_digests ~crc case scale lef defs =
  let module Lef = Tdf_def_lef.Lef in
  let module Def = Tdf_def_lef.Def in
  let lef = Lef.read_exn (Lef.to_string lef) in
  let defs = List.map (fun d -> Def.read_exn (Def.to_string d)) defs in
  match Def.to_design ~lef defs with
  | Error e -> Alcotest.failf "%s: import of the export failed: %s" (key case scale "") e
  | Ok (d, p) ->
    [
      (key case scale "import-design", crc (Tdf_io.Text.design_to_string d));
      (key case scale "import-placement", crc (Tdf_io.Text.placement_to_string d p));
    ]

(* Full size, as the command line makes it: [gen], [run -m ours] (the
   resilient pipeline with its default options), then [export -p] of that
   placement and the import of the export.  The design file and the
   export are pinned under their command names. *)
let full_size_digests ~crc =
  let case = (Spec.Iccad2023, "case2") and scale = 1.0 in
  let design = Gen.generate ~scale (Spec.find (fst case) (snd case)) in
  let p =
    match Tdf_robust.Pipeline.run design with
    | Ok r -> r.Tdf_robust.Pipeline.placement
    | Error e -> Alcotest.fail (Tdf_robust.Error.to_string e)
  in
  let lef, defs = Tdf_def_lef.Def.of_design ~placement:p design in
  [
    (key case scale "gen-design", crc (Tdf_io.Text.design_to_string design));
    (key case scale "export-lef", crc (Tdf_def_lef.Lef.to_string lef));
  ]
  @ List.mapi
      (fun i d ->
        (key case scale (Printf.sprintf "export-d%d" i), crc (Tdf_def_lef.Def.to_string d)))
      defs
  @ import_digests ~crc case scale lef defs

let io_digests () =
  let crc s = Crc32.to_hex (Crc32.string s) in
  full_size_digests ~crc
  @ List.concat_map
    (fun (case, scale) ->
      let design = Gen.generate ~scale (Spec.find (fst case) (snd case)) in
      let p = Placement.initial design in
      let lef, defs = Tdf_def_lef.Def.of_design ~placement:p design in
      let terminal = { Tdf_io.Contest.t_size = 2; t_spacing = 3 } in
      [
        (key case scale "text-design", crc (Tdf_io.Text.design_to_string design));
        (key case scale "text-placement", crc (Tdf_io.Text.placement_to_string design p));
        (key case scale "contest", crc (Tdf_io.Contest.to_string ~terminal design));
        (key case scale "lef", crc (Tdf_def_lef.Lef.to_string lef));
      ]
      @ List.mapi
          (fun i d ->
            (key case scale (Printf.sprintf "def-d%d" i), crc (Tdf_def_lef.Def.to_string d)))
          defs
      @ import_digests ~crc case scale lef defs)
    io_cases

let test_io_digests () = check_digests golden_io_file (io_digests ())

let suite =
  [
    Alcotest.test_case "placement digests match golden_placements.txt" `Quick
      test_golden_digests;
    Alcotest.test_case "writer digests match golden_io.txt" `Quick test_io_digests;
    Alcotest.test_case "golden lines nothing checks are reported" `Quick
      test_orphan_lines;
  ]
