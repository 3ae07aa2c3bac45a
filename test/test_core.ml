let () =
  Alcotest.run "elzar"
    [
      ("ir", Test_ir.tests);
      ("dataflow", Test_dataflow.tests);
      ("cpu", Test_cpu.tests);
      ("machine", Test_machine.tests);
      ("engine", Test_engine.tests);
      ("concurrency", Test_concurrency.tests);
      ("passes", Test_passes.tests);
      ("optimize", Test_optimize.tests);
      ("prepared", Test_prepared.tests);
      ("rtlib", Test_rtlib.tests);
      ("fault", Test_fault.tests);
      ("props", Test_props.tests);
      ("vecprops", Test_vecprops.tests);
      ("apps", Test_apps.tests);
      ("smoke", Test_smoke.tests);
      ("workloads", Test_workloads.tests);
      ("characteristics", Test_characteristics.tests);
      ("obs", Test_obs.tests);
      ("supervisor", Test_supervisor.tests);
    ]
