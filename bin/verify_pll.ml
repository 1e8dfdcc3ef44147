(* Command-line driver for the inevitability verification pipeline.

     dune exec bin/verify_pll.exe -- --order third --degree 4
     dune exec bin/verify_pll.exe -- --order fourth --validate
     dune exec bin/verify_pll.exe -- --order third --robust -v
     dune exec bin/verify_pll.exe -- --order third --point ip=1.05,kv=0.9

   The pipeline itself lives in Service.Job and is shared verbatim with
   the verifyd daemon, so a CLI run and a daemon job with the same spec
   produce the same verdict through the same code path; this driver
   owns only argument parsing, supervision/run-dir wiring and reports.

   Exit codes: 0 = inevitability verified; 2 = the property was not
   established (conclusively infeasible, no positive level certifies,
   P1/P2 not both established, or --validate refused); 1 = solver,
   deadline or setup failure;
   130 = interrupted (checkpoint saved — resume with --resume);
   124 = usage error. *)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

let cli_error = 124

let run order degree robust advect_iters sim_validate psd_tol eq_tol point
    retry_ladder deadline fault_plan jobs run_dir resume lock_wait solve_timeout
    mem_limit verbose =
  setup_logs verbose;
  match
    (* Parse the job spec and resilience options up front so a bad spec
       is a usage error (exit 124), not a late failure. *)
    let ( let* ) = Result.bind in
    let* ladder = Resilient.ladder_of_string retry_ladder in
    let* faults = Resilient.Faults.of_string fault_plan in
    let* point = Service.Job.point_of_string point in
    let d = Service.Job.default_spec order in
    let spec =
      {
        d with
        Service.Job.property = Service.Job.Full;
        degree = Option.value degree ~default:d.Service.Job.degree;
        robust;
        point;
        advect_iters;
        psd_tol;
        eq_tol;
        deadline_s = deadline;
      }
    in
    let* () = Service.Job.validate spec in
    (* Supervision (worker isolation, pool, cache/journal) switches on
       when any of its knobs is set — or when the fault plan contains
       process-level faults, which only a supervisor can act on. *)
    let run_dir =
      match (resume, run_dir) with
      | Some d, _ -> Some d
      | None, d -> d
    in
    let supervised =
      run_dir <> None || jobs <> None || solve_timeout <> None || mem_limit <> None
      || Resilient.Faults.proc_specs faults <> []
    in
    let supervise =
      if supervised then
        Some
          (Supervise.create ?run_dir ?jobs ?solve_timeout_s:solve_timeout
             ?mem_limit_mb:mem_limit ())
      else None
    in
    Ok
      ( spec,
        Resilient.make ~ladder ~retries:(ladder <> []) ?pipeline_deadline_s:deadline
          ~faults ?supervise (),
        supervise )
  with
  | Error e ->
      Format.eprintf "verify_pll: %s@." e;
      cli_error
  | Ok (spec, resilience, supervise) -> (
      (* Run-dir hygiene: an advisory lock so two processes sharing the
         directory cannot interleave cache writes, and a configuration
         fingerprint so --resume with problem-changing arguments is
         refused instead of silently mixing cache entries. The job's
         canonical line covers every problem-determining field,
         including the parameter point. *)
      let guarded =
        match Option.bind supervise Supervise.run_dir with
        | None -> Ok ()
        | Some dir -> (
            match Supervise.Lock.acquire ~dir ~wait_s:lock_wait () with
            | Error diag ->
                Format.eprintf "verify_pll: %s@." diag;
                Error ()
            | Ok _ -> (
                let fingerprint = "pll-verify v2 " ^ Service.Job.to_line spec in
                match
                  Supervise.Config_guard.check ~run_dir:dir ~fingerprint
                    ~summary:fingerprint
                with
                | Error diag ->
                    Format.eprintf "verify_pll: %s@." diag;
                    Error ()
                | Ok _ -> Ok ()))
      in
      match guarded with
      | Error () -> 1
      | Ok () -> (
          (match supervise with
          | Some ctx ->
              Supervise.install_signal_handlers ctx;
              (match Supervise.run_dir ctx with
              | Some dir ->
                  Format.printf "supervision: %d jobs, run dir %s%s@."
                    (Supervise.jobs ctx) dir
                    (if resume <> None then
                       Printf.sprintf " (resuming; %d solve(s) on record)"
                         (Supervise.replayed ctx)
                     else "")
              | None ->
                  Format.printf "supervision: %d jobs (no run dir)@."
                    (Supervise.jobs ctx))
          | None -> ());
          let finish_reports () =
            (if Resilient.failures resilience <> [] || verbose then
               Format.printf "resilience report: %s@."
                 (Resilient.report_json resilience));
            match supervise with
            | None -> ()
            | Some ctx ->
                let report = Supervise.report_json ctx in
                let st = Supervise.stats ctx in
                if verbose || st.Supervise.crashes > 0 || st.Supervise.timeouts > 0
                   || st.Supervise.cache_rejects > 0
                then Format.printf "supervision report: %s@." report;
                (match Supervise.run_dir ctx with
                | Some dir ->
                    Substrate.Fs.write_atomic (Filename.concat dir "report.json")
                      (Printf.sprintf "{\"supervise\":%s,\"resilient\":%s}\n" report
                         (Resilient.report_json resilience))
                | None -> ())
          in
          (* The (point-adjusted) scaled model the job will verify; also
             what the Monte-Carlo cross-check simulates. *)
          let scaled =
            match
              List.fold_left
                (fun acc (a, v) ->
                  Result.bind acc (fun raw ->
                      Pll.set_axis_relative raw a ~lo:v ~hi:v))
                (Ok
                   (match order with
                   | Pll.Third -> Pll.table1_third
                   | Pll.Fourth -> Pll.table1_fourth))
                spec.Service.Job.point
            with
            | Ok raw -> Some (Pll.scale raw)
            | Error _ -> None
          in
          (match scaled with
          | Some s -> Format.printf "%a@.@." Pll.pp_scaled s
          | None -> ());
          (* The validation hook prints the pipeline report exactly where
             the pipeline used to, and runs the optional Monte-Carlo
             cross-check; returning false downgrades the verdict. *)
          let validate report =
            Format.printf "%a@.@." Pll_core.Inevitability.pp_report report;
            match (sim_validate, scaled) with
            | true, Some s ->
                let v =
                  Certificates.validate_by_simulation ~trials:25 s
                    report.Pll_core.Inevitability.invariant
                in
                Format.printf "simulation validation of X1: %b@." v;
                v
            | _ -> true
          in
          match Service.Job.run ~policy:resilience ~validate spec with
          | exception Supervise.Interrupted ->
              finish_reports ();
              Format.printf
                "interrupted — checkpoint saved%s; rerun with --resume to \
                 continue@."
                (match Option.bind supervise Supervise.run_dir with
                | Some dir -> " in " ^ dir
                | None -> "");
              130
          | r -> (
              finish_reports ();
              match r.Service.Job.verdict with
              | Service.Job.Verified ->
                  Format.printf "inevitability of phase-locking: VERIFIED@.";
                  0
              | Service.Job.Not_established ->
                  Format.printf "%s: %s@." r.Service.Job.kind r.Service.Job.detail;
                  Format.printf "inevitability of phase-locking: NOT established@.";
                  2
              | Service.Job.Failed ->
                  Format.printf "verification FAILED: %s@." r.Service.Job.detail;
                  1)))

let order =
  let order_conv = Arg.enum [ ("third", Pll.Third); ("fourth", Pll.Fourth) ] in
  Arg.(value & opt order_conv Pll.Third & info [ "order"; "o" ] ~docv:"ORDER"
         ~doc:"PLL order to verify: $(b,third) or $(b,fourth).")

let degree =
  Arg.(value & opt (some int) None & info [ "degree"; "d" ] ~docv:"DEG"
         ~doc:"Lyapunov certificate degree (default: 6 for third order, 4 for fourth, \
               as in the paper).")

let robust =
  Arg.(value & flag & info [ "robust" ]
         ~doc:"Enforce the Lie-derivative decrease at every vertex of the Table-1 \
               coefficient box instead of the nominal point only.")

let advect_iters =
  Arg.(value & opt int 25 & info [ "advect-iters" ] ~docv:"N"
         ~doc:"Maximum bounded-advection iterations for property P2.")

let sim_validate =
  Arg.(value & flag & info [ "validate" ]
         ~doc:"Monte-Carlo cross-check: simulate trajectories sampled in X1 and verify \
               certificate decrease and locking.")

let psd_tol =
  Arg.(value & opt (some float) None & info [ "psd-tol" ] ~docv:"TOL"
         ~doc:"A-posteriori PSD tolerance: how far below zero the smallest Gram \
               eigenvalue may dip for a float solution to still count as certified \
               (default 1e-7).")

let eq_tol =
  Arg.(value & opt (some float) None & info [ "eq-tol" ] ~docv:"TOL"
         ~doc:"A-posteriori equality tolerance on the SOS decomposition residual, \
               relative to constraint scale (default 1e-5).")

let point =
  Arg.(value & opt string "" & info [ "point" ] ~docv:"SPEC"
         ~doc:"Relative parameter point as comma-separated AXIS=FACTOR pairs, e.g. \
               $(b,ip=1.05,kv=0.9); each factor replaces that axis's Table-1 \
               interval with the degenerate point FACTOR * nominal. Empty = the \
               nominal model.")

let retry_ladder =
  Arg.(value & opt string "default" & info [ "retry-ladder" ] ~docv:"SPEC"
         ~doc:"Retry ladder for failed SDP solves: $(b,default) \
               (equilibrate,jitter,relax:10,bump:3), $(b,none) (retries disabled — a \
               failed solve yields a structured failure report immediately), or a \
               comma-separated list of rungs $(b,equilibrate), $(b,jitter[:K]), \
               $(b,relax[:F]), $(b,bump[:F]) applied cumulatively in order.")

let deadline =
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SEC"
         ~doc:"Pipeline deadline in wall-clock seconds. When exceeded, in-flight solves salvage \
               their best iterate, level bisection degrades to the smaller certified β, \
               and advection degrades to escape certificates from the last certified \
               front.")

let fault_plan =
  Arg.(value & opt string "none" & info [ "fault-plan" ] ~docv:"SPEC"
         ~doc:"Deterministic fault injection for resilience testing: comma-separated \
               $(b,fail@S:I) (numerical failure), $(b,trunc@S:I) (truncate to best \
               iterate), $(b,noise@S:I:MAG) (Gram noise), firing at interior-point \
               iteration I of logical solve S (1-based; $(b,*) = every solve), on its \
               first attempt only. Process-level faults $(b,kill@S:I) (worker SIGKILLs \
               itself), $(b,stall@S:I) (worker wedges until the timeout reaper acts) \
               and $(b,corrupt-cache@S) (stored cache entry is truncated) enable \
               supervision and exercise the worker recovery paths.")

let jobs =
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Enable process supervision with a pool of N forked solve workers for \
               independent work items (default: number of cores).")

let run_dir_arg =
  Arg.(value & opt (some string) None & info [ "run-dir" ] ~docv:"DIR"
         ~doc:"Enable crash-safe supervision state under DIR: a content-addressed \
               solve cache, a write-ahead journal and persisted proof artifacts. A \
               killed run restarts from its checkpoint via $(b,--resume).")

let resume =
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"DIR"
         ~doc:"Resume a killed or interrupted run from its run directory: solves whose \
               requests hash to cached results are replayed from the cache instead of \
               re-solved. Implies $(b,--run-dir) DIR.")

let lock_wait =
  Arg.(value & opt float 0.0 & info [ "lock-wait" ] ~docv:"SEC"
         ~doc:"How long to wait for another live process's lock on the run directory \
               before failing (default 0: fail fast with a structured diagnosis). \
               Stale locks left by dead processes are stolen immediately.")

let solve_timeout =
  Arg.(value & opt (some float) None & info [ "solve-timeout" ] ~docv:"SEC"
         ~doc:"Wall-clock budget per supervised solve worker; a worker past it is \
               reaped with SIGKILL and reported as a failed attempt the retry ladder \
               recovers from. Enables supervision.")

let mem_limit =
  Arg.(value & opt (some int) None & info [ "mem-limit-mb" ] ~docv:"MB"
         ~doc:"Address-space rlimit per supervised solve worker, in MiB; a worker \
               exceeding it dies and is reported as a crashed attempt. Enables \
               supervision.")

let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Log solver progress.")

let cmd =
  let doc = "verify inevitability of phase-locking in a charge-pump PLL via SOS programming" in
  let info = Cmd.info "verify_pll" ~doc in
  Cmd.v info
    Term.(
      const run $ order $ degree $ robust $ advect_iters $ sim_validate $ psd_tol
      $ eq_tol $ point $ retry_ladder $ deadline $ fault_plan $ jobs $ run_dir_arg
      $ resume $ lock_wait $ solve_timeout $ mem_limit $ verbose)

let () = exit (Cmd.eval' cmd)
