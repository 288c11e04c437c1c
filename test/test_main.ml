let () =
  Alcotest.run "splitbft"
    (Test_util.suites @ Test_obs.suites @ Test_codec.suites @ Test_crypto.suites @ Test_sim.suites
   @ Test_tee.suites @ Test_types.suites @ Test_consensus.suites @ Test_recovery.suites
   @ Test_app.suites @ Test_client.suites @ Test_pbft.suites @ Test_minbft.suites @ Test_baseline.suites @ Test_core.suites
   @ Test_harness.suites @ Test_trace.suites @ Test_hotpath.suites @ Test_lanes.suites
   @ Test_openloop.suites @ Test_chaos.suites @ Test_mc.suites @ Test_detect.suites
   @ Test_storage.suites)
