(* Fault-tolerant certification atlas driver: sweep Table-1 circuit
   parameters over a grid and certify phase-locking cell by cell.

     dune exec bin/atlas_pll.exe -- --grid ip=0.8:1.2:3,kv=0.8:1.2:3
     dune exec bin/atlas_pll.exe -- --grid ip=0.9:1.1:4 --run-dir _atlas -j 4
     dune exec bin/atlas_pll.exe -- --resume _atlas

   Exit codes: 0 = every cell certified; 2 = sweep completed with
   quarantined cells; 1 = setup/drift/lock failure; 130 = interrupted
   (checkpoint saved — resume with --resume); 124 = usage error. *)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

let cli_error = 124

let run order degree grid_spec robust full exact bisect_steps max_subdiv cell_budget
    fault_plan jobs run_dir resume via_daemon client_retries verbose =
  setup_logs verbose;
  let order = match order with `Third -> Pll.Third | `Fourth -> Pll.Fourth in
  let base_job = Atlas.default_job order in
  let job =
    {
      base_job with
      Atlas.degree = Option.value degree ~default:base_job.Atlas.degree;
      robust;
      full;
      exact;
      bisect_steps;
      max_subdiv;
      cell_budget_s = cell_budget;
    }
  in
  match
    let ( let* ) = Result.bind in
    let* grid = Atlas.Grid.parse grid_spec in
    let* faults = Atlas.Fault.of_string fault_plan in
    (* A daemon run ships only cell lines: the orchestrator kill is the
       one fault that still acts. *)
    let* () =
      match
        List.filter (function Atlas.Fault.Kill_at_cell _ -> false | _ -> true) faults
      with
      | stray :: _ when via_daemon <> None ->
          Error
            (Printf.sprintf
               "fault plan %S: with --via-daemon only kill@CELL acts (cells run in the \
                daemon's workers)"
               (Atlas.Fault.to_string [ stray ]))
      | _ -> Ok ()
    in
    Ok (grid, faults)
  with
  | Error e ->
      Format.eprintf "atlas_pll: %s@." e;
      cli_error
  | Ok (grid, faults) -> (
      match
        Supervise.open_run ?run_dir ?resume ?jobs ~ledger:Atlas.ledger
          ~fingerprint:(Atlas.fingerprint job grid) ()
      with
      | Error diag ->
          Format.eprintf "atlas_pll: %s@." diag;
          1
      | Ok ctx -> (
          Supervise.install_signal_handlers ctx;
          let resuming = resume <> None in
          Format.printf "atlas: %s order, degree %d, grid %s (%d cells), %d job(s)%s@."
            (match order with Pll.Third -> "third" | Pll.Fourth -> "fourth")
            job.Atlas.degree
            (Atlas.Grid.to_string grid)
            (Atlas.Grid.n_cells grid) (Supervise.jobs ctx)
            (match Supervise.run_dir ctx with
            | Some d ->
                Printf.sprintf ", run dir %s%s" d (if resuming then " (resuming)" else "")
            | None -> ", no run dir (no checkpointing)");
          let exec =
            Option.map
              (fun sock ->
                Atlas.exec_via_daemon ~sock ~retries:client_retries job)
              via_daemon
          in
          match Atlas.run ~ctx ~faults ?exec ~resume:resuming job grid with
          | exception Supervise.Interrupted ->
              Format.printf
                "interrupted — ledger and solve cache saved%s; rerun with --resume to \
                 continue@."
                (match Supervise.run_dir ctx with
                | Some d -> " in " ^ d
                | None -> "")
              ;
              130
          | Error e ->
              Format.eprintf "atlas_pll: %s@." e;
              1
          | Ok report ->
              Format.printf "%a@." Atlas.pp_summary report;
              let st = Supervise.stats ctx in
              if verbose || st.Supervise.crashes > 0 || st.Supervise.timeouts > 0 then
                Format.printf "supervision report: %s@."
                  (Substrate.Json.to_string (Supervise.report_json ctx));
              (match Supervise.run_dir ctx with
              | Some d -> Format.printf "atlas written to %s@." (Filename.concat d "atlas.json")
              | None -> ());
              Atlas.exit_code report))

let order =
  let order_conv = Arg.enum [ ("third", `Third); ("fourth", `Fourth) ] in
  Arg.(value & opt order_conv `Third & info [ "order"; "o" ] ~docv:"ORDER"
         ~doc:"PLL order to sweep: $(b,third) or $(b,fourth).")

let degree =
  Arg.(value & opt (some int) None & info [ "degree"; "d" ] ~docv:"DEG"
         ~doc:"Lyapunov certificate degree per cell (default: 6 for third order, 4 for \
               fourth, as in the paper).")

let grid =
  Arg.(value & opt string "ip=0.8:1.2:3,kv=0.8:1.2:3" & info [ "grid" ] ~docv:"SPEC"
         ~doc:"Sweep grid: comma-separated $(b,axis=LO:HI:N) ranges in relative units \
               (multiples of the Table-1 nominal), N cells per axis. Axes: $(b,ip), \
               $(b,r), $(b,c1), $(b,c2), $(b,kv); fourth order adds $(b,c3), $(b,r2).")

let robust =
  Arg.(value & flag & info [ "robust" ]
         ~doc:"Certify each cell's whole parameter box (vertex enforcement of the \
               decrease condition) instead of its midpoint.")

let full =
  Arg.(value & flag & info [ "full" ]
         ~doc:"Run the full inevitability pipeline (P1 and P2) per cell instead of the \
               attractive-invariant search (P1) only.")

let exact =
  Arg.(value & flag & info [ "exact" ]
         ~doc:"Gate each certified cell on exact rational re-validation and store its \
               proof artifact as $(b,artifacts/cell-ID.artifact) for $(b,check_cert) \
               replay; cells the exact kernel cannot re-prove are quarantined.")

let bisect_steps =
  Arg.(value & opt int (Atlas.default_job Pll.Third).Atlas.bisect_steps
       & info [ "bisect-steps" ] ~docv:"N"
         ~doc:"Level-maximization bisection steps per cell.")

let max_subdiv =
  Arg.(value & opt int 2 & info [ "max-subdiv" ] ~docv:"D"
         ~doc:"Maximum adaptive-subdivision depth: a failed cell is bisected along its \
               widest axis up to D times before its leaves are quarantined.")

let cell_budget =
  Arg.(value & opt (some float) None & info [ "cell-budget" ] ~docv:"SEC"
         ~doc:"Per-cell pipeline deadline in wall-clock seconds; a cell past it is \
               subdivided or quarantined as $(b,budget-exhausted); one still running \
               5 s later is killed, as verifyd kills it.")

let fault_plan =
  Arg.(value & opt string "none" & info [ "fault-plan" ] ~docv:"SPEC"
         ~doc:"Deterministic fault injection, comma-separated. Solver faults \
               ($(b,fail@S:I), $(b,trunc@S:I), $(b,noise@S:I:MAG), \
               $(b,corrupt-cache@S)) apply to every cell, or to one cell as \
               $(b,CELL/fault). Cells solve inline in their worker, so the \
               solver-worker faults $(b,kill@S:I) and $(b,stall@S:I) are refused \
               (exit 124). Atlas-level: $(b,kill@CELL) makes the orchestrator die \
               (as if SIGKILLed) right after CELL completes — resume with \
               $(b,--resume); $(b,fail-cell@CELL) makes CELL and its subdivision \
               descendants fail without solving. With $(b,--via-daemon) the cells \
               run in the daemon's workers, so every token but $(b,kill@CELL) is \
               refused (exit 124).")

let jobs =
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Certify up to N cells concurrently in forked workers (default: number \
               of cores). The atlas is deterministic: -j 1 and -j N produce identical \
               atlas.json bytes.")

let run_dir_arg =
  Arg.(value & opt (some string) None & info [ "run-dir" ] ~docv:"DIR"
         ~doc:"Keep crash-safe sweep state under DIR: the atlas ledger, the \
               content-addressed solve cache, quarantine diagnoses, proof artifacts \
               and the final atlas.json. A killed sweep restarts from its checkpoint \
               via $(b,--resume).")

let resume =
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"DIR"
         ~doc:"Resume a killed or interrupted sweep from its run directory: ledgered \
               cells replay instantly, in-flight cells re-run against the solve cache. \
               Refused (exit 1) if the configuration differs from the one the \
               directory was created with. Implies $(b,--run-dir) DIR; a directory \
               whose ledger holds cells is continued only with $(b,--resume).")

let via_daemon =
  Arg.(value & opt (some string) None & info [ "via-daemon" ] ~docv:"SOCK"
         ~doc:"Run cells through a verifyd daemon listening on SOCK instead of \
               local forked workers: each wave ships as one bulk request; the \
               daemon shards it into leased per-cell jobs over its shared solve \
               cache and streams completions back. The client resubmits deferred \
               cells after the daemon's retry hints and survives daemon restarts \
               with jittered backoff. Ledger, replay, subdivision and quarantine \
               behave identically, and atlas.json is byte-identical to a local \
               run.")

let client_retries =
  Arg.(value & opt int 10 & info [ "client-retries" ] ~docv:"N"
         ~doc:"With $(b,--via-daemon): extra request rounds per wave before \
               unanswered cells are quarantined as crashed.")

let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Log per-cell progress.")

let cmd =
  let doc = "certify PLL phase-locking over a parameter grid, surviving crashes" in
  let info = Cmd.info "atlas_pll" ~doc in
  Cmd.v info
    Term.(
      const run $ order $ degree $ grid $ robust $ full $ exact $ bisect_steps
      $ max_subdiv $ cell_budget $ fault_plan $ jobs $ run_dir_arg $ resume
      $ via_daemon $ client_retries $ verbose)

let () = exit (Cmd.eval' cmd)
