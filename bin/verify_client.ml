(* Client for the verifyd verification daemon.

     dune exec bin/verify_client.exe -- submit --sock /tmp/vd/verifyd.sock \
       --order third --degree 4 --point ip=1.05
     dune exec bin/verify_client.exe -- status --sock /tmp/vd/verifyd.sock
     dune exec bin/verify_client.exe -- cache-gc --sock ... --max-mb 64
     dune exec bin/verify_client.exe -- stop --sock ...

   Exit codes follow the shared discipline: 0 = verified (or request
   acknowledged), 2 = not established, 1 = failure or a structured
   refusal (overloaded / degraded / draining / daemon unreachable),
   124 = usage error, a spec the daemon would refuse at admission
   included (e.g. a --point axis the order does not have). *)

open Cmdliner

let cli_error = 124

let print_response v = print_endline (Service.Json.to_string v)

(* A refusal or connection diagnosis is machine-readable on stderr. *)
let refuse line =
  prerr_endline line;
  1

let sock_arg =
  Arg.(required & opt (some string) None & info [ "sock" ] ~docv:"PATH"
         ~doc:"Unix-domain socket the daemon listens on (the daemon prints it at \
               startup; by default it lives inside the daemon's state directory).")

let timeout_arg =
  Arg.(value & opt float 300.0 & info [ "timeout" ] ~docv:"SEC"
         ~doc:"How long to wait for a response before giving up.")

(* ----------------------------------------------------------------- *)
(* submit *)

let submit sock timeout order property degree robust point bisect_steps advect_iters
    deadline no_wait retries retry_base =
  match
    let ( let* ) = Result.bind in
    let* property = Service.Job.property_of_name property in
    let* point = Service.Job.point_of_string point in
    let d = Service.Job.default_spec order in
    let spec =
      {
        d with
        Service.Job.property;
        degree = Option.value degree ~default:d.Service.Job.degree;
        robust;
        point;
        bisect_steps;
        advect_iters;
        deadline_s = deadline;
      }
    in
    let* () = Service.Bulk.validate (Service.Job.of_spec spec) in
    let* () = if retries >= 0 then Ok () else Error "--retries must be >= 0" in
    let* () =
      if retry_base > 0.0 then Ok () else Error "--retry-base must be positive"
    in
    Ok spec
  with
  | Error e ->
      Format.eprintf "verify_client: %s@." e;
      cli_error
  | Ok spec -> (
      match
        Service.Client.submit ~sock ~wait:(not no_wait)
          ~timeout_s:timeout ~retries ~retry_base_s:retry_base spec
      with
      | Error diag -> refuse diag
      | Ok v -> (
          print_response v;
          match Service.Json.mem_str "type" v with
          | Some "result" -> (
              match Service.Json.mem_num "exit" v with
              | Some f -> int_of_float f
              | None -> 1)
          | Some "accepted" -> 0
          | _ -> 1))

let order_arg =
  let order_conv = Arg.enum [ ("third", Pll.Third); ("fourth", Pll.Fourth) ] in
  Arg.(value & opt order_conv Pll.Third & info [ "order"; "o" ] ~docv:"ORDER"
         ~doc:"PLL order to verify: $(b,third) or $(b,fourth).")

let property_arg =
  Arg.(value & opt string "p1" & info [ "property" ] ~docv:"PROP"
         ~doc:"What to establish: $(b,p1) (attractive invariant only) or $(b,full) \
               (the complete P1+P2 inevitability pipeline).")

let degree_arg =
  Arg.(value & opt (some int) None & info [ "degree"; "d" ] ~docv:"DEG"
         ~doc:"Lyapunov certificate degree (default: the paper's, 6 for third \
               order, 4 for fourth).")

let robust_arg =
  Arg.(value & flag & info [ "robust" ]
         ~doc:"Enforce the Lie-derivative decrease at every vertex of the Table-1 \
               coefficient box instead of the nominal point only.")

let point_arg =
  Arg.(value & opt string "" & info [ "point" ] ~docv:"SPEC"
         ~doc:"Relative parameter point as comma-separated AXIS=FACTOR pairs, \
               e.g. $(b,ip=1.05,kv=0.9); factors multiply the Table-1 nominals. \
               Empty = nominal.")

let bisect_steps_arg =
  Arg.(value & opt int (Service.Job.default_spec Pll.Third).Service.Job.bisect_steps
       & info [ "bisect-steps" ] ~docv:"N"
         ~doc:"Invariant-level maximization bisection steps (p1 property).")

let advect_iters_arg =
  Arg.(value & opt int (Service.Job.default_spec Pll.Third).Service.Job.advect_iters
       & info [ "advect-iters" ] ~docv:"N"
         ~doc:"Maximum bounded-advection iterations (full property).")

let deadline_arg =
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SEC"
         ~doc:"Per-job pipeline deadline; the daemon kills a worker stuck past it.")

let no_wait_arg =
  Arg.(value & flag & info [ "no-wait" ]
         ~doc:"Return as soon as the job is admitted instead of waiting for its \
               verdict; the job runs to completion server-side.")

let retries_arg =
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N"
         ~doc:"Extra submit attempts after a structured refusal (overloaded / \
               degraded / draining — honouring its $(b,retry_after_s) hint) or a \
               connection failure, with jittered exponential backoff. After the \
               budget the last refusal is printed and the exit code is 1.")

let retry_base_arg =
  Arg.(value & opt float 0.5 & info [ "retry-base" ] ~docv:"SEC"
         ~doc:"Base of the retry backoff ladder (doubles per attempt, capped, \
               plus deterministic jitter).")

let submit_cmd =
  let doc = "submit a verification job and (by default) wait for its verdict" in
  Cmd.v (Cmd.info "submit" ~doc)
    Term.(
      const submit $ sock_arg $ timeout_arg $ order_arg $ property_arg $ degree_arg
      $ robust_arg $ point_arg $ bisect_steps_arg $ advect_iters_arg $ deadline_arg
      $ no_wait_arg $ retries_arg $ retry_base_arg)

(* ----------------------------------------------------------------- *)
(* status / cache-gc / stop *)

let simple_exit = function
  | Error diag -> refuse diag
  | Ok v -> (
      print_response v;
      match Service.Json.mem_str "type" v with Some "error" -> 1 | _ -> 0)

let status sock timeout =
  simple_exit (Service.Client.status ~sock ~timeout_s:timeout ())

let status_cmd =
  let doc = "print the daemon's service counters and queue state" in
  Cmd.v (Cmd.info "status" ~doc) Term.(const status $ sock_arg $ timeout_arg)

let cache_gc sock timeout max_mb =
  if max_mb < 1 then begin
    Format.eprintf "verify_client: --max-mb must be >= 1@.";
    cli_error
  end
  else simple_exit (Service.Client.cache_gc ~sock ~timeout_s:timeout ~max_mb ())

let max_mb_arg =
  Arg.(required & opt (some int) None & info [ "max-mb" ] ~docv:"MB"
         ~doc:"Evict least-recently-used solve-cache entries until the cache fits \
               in MB mebibytes.")

let cache_gc_cmd =
  let doc = "shrink the daemon's solve cache to a size cap (LRU eviction)" in
  Cmd.v (Cmd.info "cache-gc" ~doc)
    Term.(const cache_gc $ sock_arg $ timeout_arg $ max_mb_arg)

let stop sock timeout =
  simple_exit (Service.Client.stop ~sock ~timeout_s:timeout ())

let stop_cmd =
  let doc = "ask the daemon to drain gracefully and exit 0" in
  Cmd.v (Cmd.info "stop" ~doc) Term.(const stop $ sock_arg $ timeout_arg)

let cmd =
  let doc = "client for the verifyd verification daemon" in
  Cmd.group (Cmd.info "verify_client" ~doc)
    [ submit_cmd; status_cmd; cache_gc_cmd; stop_cmd ]

let () = exit (Cmd.eval' cmd)
