(* Persistent verification daemon over a Unix-domain socket.

     dune exec bin/verifyd.exe -- --run-dir /tmp/vd
     dune exec bin/verifyd.exe -- --run-dir /tmp/vd --resume --workers 4
     dune exec bin/verifyd.exe -- --run-dir /tmp/vd --cache-max-mb 64

   Jobs are submitted with verify_client; verdicts and the solve cache
   live under the run directory, so a kill -9 loses nothing that was
   admitted (restart with --resume).

   Exit codes: 0 = drained cleanly (SIGTERM or a stop request);
   1 = setup failure (lock held, un-resumed ledger, unusable socket);
   130 = interrupted (SIGINT); 124 = usage error. *)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

let cli_error = 124

let run run_dir resume sock workers queue_cap cache_max_mb default_deadline job_retries
    lease_ttl fault_plan verbose =
  setup_logs verbose;
  match
    let ( let* ) = Result.bind in
    let* faults = Service.Daemon.Fault.of_string fault_plan in
    let* () = if workers >= 1 then Ok () else Error "--workers must be >= 1" in
    let* () = if queue_cap >= 1 then Ok () else Error "--queue-cap must be >= 1" in
    let* () =
      if job_retries >= 0 then Ok () else Error "--job-retries must be >= 0"
    in
    let* () =
      if lease_ttl > 0.0 then Ok () else Error "--lease-ttl must be positive"
    in
    let* () =
      match cache_max_mb with
      | Some mb when mb < 1 -> Error "--cache-max-mb must be >= 1"
      | _ -> Ok ()
    in
    let* () =
      match default_deadline with
      | Some d when not (d > 0.0) -> Error "--default-deadline must be positive"
      | _ -> Ok ()
    in
    Ok faults
  with
  | Error e ->
      Format.eprintf "verifyd: %s@." e;
      cli_error
  | Ok faults ->
      Service.Daemon.run
        {
          (Service.Daemon.default_config ~run_dir) with
          Service.Daemon.sock;
          workers;
          queue_cap;
          cache_max_mb;
          default_deadline_s = default_deadline;
          job_retries;
          lease_ttl_s = lease_ttl;
          faults;
          resume;
        }

let run_dir_arg =
  Arg.(required & opt (some string) None & info [ "run-dir" ] ~docv:"DIR"
         ~doc:"Daemon state directory: the durable job-queue ledger, the \
               content-addressed solve cache, the per-fingerprint result store and \
               (by default) the listening socket all live here. Survives kill -9; \
               restart with $(b,--resume).")

let resume_arg =
  Arg.(value & flag & info [ "resume" ]
         ~doc:"Reopen an existing run directory: terminal ledger entries are \
               compacted away, in-flight and pending jobs re-dispatch against the \
               warm solve cache (completed work is never re-solved). Without this \
               flag a non-empty ledger is refused.")

let sock =
  Arg.(value & opt (some string) None & info [ "sock" ] ~docv:"PATH"
         ~doc:"Unix-domain socket path to listen on (default: \
               $(i,RUN_DIR)/verifyd.sock).")

let workers =
  Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N"
         ~doc:"Maximum concurrent forked job workers.")

let queue_cap =
  Arg.(value & opt int 16 & info [ "queue-cap" ] ~docv:"N"
         ~doc:"Bounded admission queue length; submits beyond it receive a \
               structured $(b,overloaded) refusal with a retry-after hint instead \
               of growing memory.")

let cache_max_mb =
  Arg.(value & opt (some int) None & info [ "cache-max-mb" ] ~docv:"MB"
         ~doc:"Size cap for the solve cache: after each completed job (and once at \
               startup) least-recently-used entries are evicted until the cache \
               fits. Default: unbounded.")

let default_deadline =
  Arg.(value & opt (some float) None & info [ "default-deadline" ] ~docv:"SEC"
         ~doc:"Per-job pipeline deadline applied to every job (point or cell) \
               that does not carry one; a worker past deadline + grace is killed \
               and the job answered as $(b,budget-exhausted).")

let job_retries =
  Arg.(value & opt int 2 & info [ "job-retries" ] ~docv:"N"
         ~doc:"Worker re-dispatches (with jittered exponential backoff) per job \
               before the job is dead-lettered and answered as a $(b,crash)-kind \
               failure carrying the attempt history.")

let lease_ttl =
  Arg.(value & opt float 30.0 & info [ "lease-ttl" ] ~docv:"SEC"
         ~doc:"Worker lease TTL: a worker that goes this long without a \
               heartbeat (workers beat at solve entry and every solver \
               iteration) is presumed wedged, SIGKILLed, and its job \
               re-dispatched under the $(b,--job-retries) budget.")

let fault_plan =
  Arg.(value & opt string "none" & info [ "fault-plan" ] ~docv:"SPEC"
         ~doc:"Deterministic daemon-level chaos for testing: comma-separated \
               $(b,kill-worker@KEY) (SIGKILL KEY's worker right after launch), \
               $(b,stall-worker@KEY) (KEY's worker stays alive but never \
               heartbeats — exercises lease reclaim), $(b,kill-cell@KEY) \
               (SIGKILL KEY's worker on every dispatch, so the job \
               dead-letters deterministically), $(b,drop-client@KEY) \
               (server-side close of KEY's submitting client), \
               $(b,wedge-queue) (dispatcher never starts jobs, so backpressure is \
               observable), $(b,die@KEY) (simulated kill -9 right after KEY's start \
               is ledgered). KEY is a job id, or a cell id for bulk cells. All \
               fire once except $(b,kill-cell@KEY).")

let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Log daemon internals.")

let cmd =
  let doc = "persistent PLL verification daemon with a crash-safe job queue" in
  let info = Cmd.info "verifyd" ~doc in
  Cmd.v info
    Term.(
      const run $ run_dir_arg $ resume_arg $ sock $ workers $ queue_cap
      $ cache_max_mb $ default_deadline $ job_retries $ lease_ttl $ fault_plan $ verbose)

let () = exit (Cmd.eval' cmd)
