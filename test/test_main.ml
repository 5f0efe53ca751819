let () =
  Alcotest.run "tdflow"
    [
      ("util", Test_util.suite);
      ("par", Test_par.suite);
      ("telemetry", Test_telemetry.suite);
      ("geometry", Test_geometry.suite);
      ("netlist", Test_netlist.suite);
      ("grid", Test_grid.suite);
      ("flow", Test_flow.suite);
      ("place_row", Test_place_row.suite);
      ("legalizer", Test_legalizer.suite);
      ("kernel", Test_kernel.suite);
      ("baselines", Test_baselines.suite);
      ("metrics", Test_metrics.suite);
      ("benchgen", Test_benchgen.suite);
      ("io", Test_io.suite);
      ("def_lef", Test_def_lef.suite);
      ("tokenize", Test_tokenize.suite);
      ("contest", Test_contest.suite);
      ("experiments", Test_experiments.suite);
      ("adversarial", Test_adversarial.suite);
      ("robust", Test_robust.suite);
      ("determinism", Test_determinism.suite);
      ("golden", Test_golden.suite);
      ("integration", Test_integration.suite);
      ("incremental", Test_incremental.suite);
      ("server", Test_server.suite);
      ("journal", Test_journal.suite);
    ]
