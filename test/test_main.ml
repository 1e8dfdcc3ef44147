let () =
  Alcotest.run "pll_sos"
    [
      ("linalg", Test_linalg.suite);
      ("poly", Test_poly.suite);
      ("interval", Test_interval.suite);
      ("sdp", Test_sdp.suite);
      ("sos", Test_sos.suite);
      ("resilient", Test_resilient.suite);
      ("supervise", Test_supervise.suite);
      ("hybrid", Test_hybrid.suite);
      ("pll", Test_pll.suite);
      ("certificates", Test_certificates.suite);
      ("exact", Test_exact.suite);
      ("advect", Test_advect.suite);
      ("reachset", Test_reachset.suite);
      ("barrier", Test_barrier.suite);
      ("core", Test_core.suite);
      ("atlas", Test_atlas.suite);
      ("service", Test_service.suite);
      ("substrate", Test_substrate.suite);
    ]
