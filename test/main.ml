(* Aggregated alcotest runner for the whole repository. Each [Test_*]
   module exposes [suite : unit Alcotest.test_case list] registered here
   under its own section. Randomized tests draw their seed from
   [Test_seed] (OPTLSIM_TEST_SEED, default 42); on failure the runner
   prints the seed so the run can be reproduced exactly. *)

let () =
  try
    Alcotest.run ~and_exit:false "optlsim"
      [
      ("w64", Test_w64.suite);
      ("util", Test_util.suite);
      ("trace", Test_trace.suite);
      ("stats", Test_stats.suite);
      ("isa", Test_isa.suite);
      ("mem", Test_mem.suite);
      ("bpred", Test_bpred.suite);
      ("uop", Test_uop.suite);
      ("seqcore", Test_seqcore.suite);
      ("ooo", Test_ooo.suite);
      ("vm", Test_vm.suite);
      ("vmem", Test_vmem.suite);
      ("kernel", Test_kernel.suite);
      ("workloads", Test_workloads.suite);
      ("system", Test_system.suite);
      ("microbench", Test_microbench.suite);
      ("fuzz", Test_fuzz.suite);
      ("spec", Test_spec.suite);
      ("guard", Test_guard.suite);
      ("sample", Test_sample.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("store", Test_store.suite);
      ("fleet", Test_fleet.suite);
      ("chaos", Test_chaos.suite);
      ("sweep", Test_sweep.suite);
    ]
  with e ->
    Printf.eprintf
      "\nrandomized tests ran with OPTLSIM_TEST_SEED=%d; export it to \
       reproduce this run\n"
      Test_seed.seed;
    (match e with Alcotest.Test_error -> exit 1 | _ -> raise e)
