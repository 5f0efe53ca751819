(* Reproduction harness: regenerates every table and figure of the
   paper's evaluation section (§IV) on the synthetic ICCAD-style suites.
   Timings belong to the performance ledger (bench/ledger), not here.

   Usage: main.exe [SUITE]... [--scale S]
     paper     Tables II-V, Fig. 7, Fig. 8, ablations and telemetry
     scaling   runtime and search effort of every method on ICCAD 2023
               case4 at scales 0.02 0.05 0.1 0.2
   Suites run in the order given; with none named, both run in the order
   above.  --scale S (default 0.05) sizes the paper cases; the
   design-choice ablations run at that scale capped at 0.05.  A bad suite
   name or scale exits 2 before any suite runs. *)

module Json = Tdf_telemetry.Json

(* Generated artifacts (BENCH_telemetry.json, fig7 CSV, fig8 SVGs) land
   under one directory instead of littering the repo root; CI uploads it
   wholesale. *)
let out_dir = "out"

(* Writes one artifact under [out_dir] and returns its path. *)
let write_out name text =
  let path = Filename.concat out_dir name in
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  path

let write_json name json = write_out name (Json.to_string json ^ "\n")

(* ------------------------------------------------------------------ *)
(* Full reproduction: Tables II-V, Fig. 7, Fig. 8                      *)
(* ------------------------------------------------------------------ *)

let run_paper ~scale =
  Printf.printf "== 3D-Flow reproduction run (scale %.3g) ==\n\n" scale;
  (* Aggregating telemetry sink over the reproduction run alone; flushed
     to BENCH_telemetry.json at the end so the perf trajectory is
     machine-readable. *)
  let telemetry = Tdf_telemetry.Aggregate.create () in
  let sink = Tdf_telemetry.Aggregate.sink telemetry in
  Tdf_telemetry.install sink;
  print_string (Tdf_experiments.Tables.table2 ~scale ());
  print_newline ();
  let r2022 = Tdf_experiments.Runner.run_suite ~scale Tdf_benchgen.Spec.Iccad2022 in
  print_string
    (Tdf_experiments.Tables.comparison
       ~title:
         "TABLE III — legalization comparison, ICCAD 2022 suite (normalized \
          displacement)"
       r2022);
  print_newline ();
  let r2023 = Tdf_experiments.Runner.run_suite ~scale Tdf_benchgen.Spec.Iccad2023 in
  print_string
    (Tdf_experiments.Tables.comparison
       ~title:
         "TABLE IV — legalization comparison, ICCAD 2023 suite (normalized \
          displacement)"
       r2023);
  print_newline ();
  let ablation =
    Tdf_experiments.Runner.run_suite
      ~methods:[ Tdf_experiments.Runner.Ours_no_d2d; Tdf_experiments.Runner.Ours ]
      ~scale Tdf_benchgen.Spec.Iccad2023
  in
  print_string (Tdf_experiments.Tables.ablation ablation);
  print_newline ();
  print_string
    (Tdf_experiments.Figures.fig7
       ~title:"FIG 7(a) — HPWL increase (%), ICCAD 2022 suite" r2022);
  print_string
    (Tdf_experiments.Figures.fig7
       ~title:"FIG 7(b) — HPWL increase (%), ICCAD 2023 suite" r2023);
  Printf.printf "\nFig. 7 data written to %s\n"
    (write_out "fig7_hpwl.csv"
       (Tdf_experiments.Figures.fig7_csv (r2022 @ r2023)));
  let no_d2d_svg, ours_svg =
    Tdf_experiments.Figures.fig8 ~scale ~dir:out_dir ()
  in
  Printf.printf "Fig. 8 visualizations written to %s and %s\n" no_d2d_svg ours_svg;
  print_newline ();
  print_endline "== design-choice ablations (ICCAD 2023 case3) ==";
  let design =
    Tdf_benchgen.Gen.generate_by_name ~scale:(Float.min scale 0.05)
      Tdf_benchgen.Spec.Iccad2023 "case3"
  in
  print_string
    (Tdf_experiments.Ablations.render
       ~title:"Ablation: branch-and-bound slack alpha (§III-B)"
       (Tdf_experiments.Ablations.sweep_alpha design));
  print_string
    (Tdf_experiments.Ablations.render
       ~title:"Ablation: bin width w_v (§III-F)"
       (Tdf_experiments.Ablations.sweep_bin_width design));
  print_string
    (Tdf_experiments.Ablations.render
       ~title:"Ablation: D2D edge pricing (Eq. 7 + base cost)"
       (Tdf_experiments.Ablations.sweep_d2d_cost design));
  print_string
    (Tdf_experiments.Ablations.render
       ~title:"Ablation: cycle-canceling post-optimization rounds (§III-E)"
       (Tdf_experiments.Ablations.sweep_post_opt design));
  Tdf_telemetry.remove sink;
  let json =
    Json.Obj
      [
        ("scale", Json.Float scale);
        ("generated_by", Json.String "bench/main.ml");
        ("telemetry", Tdf_telemetry.Aggregate.to_json telemetry);
      ]
  in
  Printf.printf "Telemetry (per-phase wall times, counters) written to %s\n"
    (write_json "BENCH_telemetry.json" json)

(* ------------------------------------------------------------------ *)
(* Scaling study: runtime vs size, at its own scales                   *)
(* ------------------------------------------------------------------ *)

let run_scaling () =
  print_string
    (Tdf_experiments.Scaling.render
       (Tdf_experiments.Scaling.run Tdf_benchgen.Spec.Iccad2023 "case4"))

(* ------------------------------------------------------------------ *)
(* Command line: the suites to run and the case scale                  *)
(* ------------------------------------------------------------------ *)

let suites =
  [ ("paper", run_paper); ("scaling", fun ~scale:_ -> run_scaling ()) ]

let () =
  let scale = ref 0.05 and chosen = ref [] in
  let set_scale s =
    match float_of_string_opt s with
    | Some v when v > 0. && Float.is_finite v -> scale := v
    | _ ->
      raise
        (Arg.Bad
           (Printf.sprintf "--scale: expected a positive number, got %S" s))
  in
  let add_suite name =
    match List.assoc_opt name suites with
    | Some run -> chosen := run :: !chosen
    | None -> raise (Arg.Bad (Printf.sprintf "unknown suite %S" name))
  in
  (* Arg.parse exits 2 on a bad argument, before any suite has run. *)
  Arg.parse
    [
      ( "--scale",
        Arg.String set_scale,
        "S  case scale for the paper suite (default 0.05)" );
    ]
    add_suite
    "main.exe [paper|scaling]... [--scale S]\n\
     Runs the named suites in order, or both when none is named.\n\
     Artifacts land under out/.";
  let chosen =
    match !chosen with [] -> List.map snd suites | l -> List.rev l
  in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  List.iter (fun run -> run ~scale:!scale) chosen
