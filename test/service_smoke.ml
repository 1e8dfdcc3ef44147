(* End-to-end smoke test of the verification daemon, driven against the
   real binaries (paths arrive as argv from the dune rule):

   - crash-safe restart: submit a job and verify it; submit a second
     job that the daemon "kill -9"s itself on (--fault-plan die@j2,
     which fires after the start is ledgered — exit 137); restarting
     without --resume is refused (exit 1); restarting with --resume
     recovers the in-flight job and runs it to completion; resubmitting
     the first job is served from the result store byte-identically
     with ZERO re-solves (no SDP key is ever journalled as solved
     twice across the daemon's lifetimes);
   - backpressure: with the dispatcher wedged (--fault-plan
     wedge-queue) and --queue-cap 2, a duplicate submit dedups against
     the in-flight fingerprint and over-cap submits are shed with a
     structured overloaded refusal carrying retry_after_s — the daemon
     never hangs or grows the queue; SIGINT exits 130;
   - worker supervision: a SIGKILLed worker (--fault-plan
     kill-worker@j1) is retried with backoff and the job still
     verifies; the crash is counted in status;
   - cancellation: a waiting client dropped server-side (--fault-plan
     drop-client@j1) gets a structured server-gone diagnosis, and the
     daemon cancels the orphaned job, leaving the queue consistent;
   - admission: a point naming an axis the order lacks (c3 at third
     order) is answered with an error reply, exit 1;
   - exit-code discipline, end to end: 0 verified / 2 not-established
     (served from a pre-seeded result store) / 1 failure or refusal /
     124 usage / 130 interrupted / 137 simulated kill -9 / 0 drain. *)

let die fmt =
  Printf.ksprintf (fun m -> prerr_endline ("service_smoke: " ^ m); exit 1) fmt

let root =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "pll-service-smoke-%d" (Unix.getpid ()))

let cleanup () = ignore (Sys.command ("rm -rf " ^ Filename.quote root))

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Run a foreground command with output captured; on unexpected exit
   code the log is dumped so failures are diagnosable from CI output. *)
let n_runs = ref 0

let run ~expect ~what args =
  incr n_runs;
  let log = Filename.concat root (Printf.sprintf "run%02d.log" !n_runs) in
  let cmd = args ^ " > " ^ Filename.quote log ^ " 2>&1" in
  let code = Sys.command cmd in
  if code <> expect then begin
    prerr_endline ("--- " ^ what ^ ": " ^ cmd);
    prerr_endline (try read_file log with _ -> "(no output)");
    die "%s: expected exit %d, got %d" what expect code
  end;
  log

(* A daemon runs in the background; we hold its pid to signal it and
   collect its exit status. *)
type daemon = { pid : int; log : string }

let start_daemon ~exe ~dir ~sock extra =
  incr n_runs;
  let log = Filename.concat root (Printf.sprintf "run%02d-daemon.log" !n_runs) in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let argv =
    Array.of_list
      ([ exe; "--run-dir"; dir; "--sock"; sock ] @ extra)
  in
  let pid = Unix.create_process exe argv Unix.stdin fd fd in
  Unix.close fd;
  { pid; log }

let wait_daemon ~what ~expect d =
  let code =
    match Unix.waitpid [] d.pid with
    | _, Unix.WEXITED c -> c
    | _, Unix.WSIGNALED s -> 128 + s
    | _, Unix.WSTOPPED _ -> die "%s: daemon stopped unexpectedly" what
  in
  if code <> expect then begin
    prerr_endline ("--- " ^ what ^ " daemon log:");
    prerr_endline (try read_file d.log with _ -> "(no output)");
    die "%s: daemon expected exit %d, got %d" what expect code
  end;
  d.log

(* A socket file can linger from a killed lifetime, so readiness is
   "the daemon answers status", not "the socket path exists". *)
let await_ready ~what ~client ~sock =
  let probe = client ^ " status --sock " ^ Filename.quote sock ^ " > /dev/null 2>&1" in
  let rec go n =
    if n > 100 then die "%s: daemon at %s never became ready" what sock
    else if Sys.command probe = 0 then ()
    else begin
      Unix.sleepf 0.1;
      go (n + 1)
    end
  in
  go 0

(* Poll the daemon until it is idle (nothing queued or running). *)
let await_idle ~what ~client ~sock =
  let rec go n =
    if n > 300 then die "%s: daemon never went idle" what
    else
      let log =
        run ~expect:0 ~what:(what ^ " (status poll)")
          (client ^ " status --sock " ^ Filename.quote sock)
      in
      let s = read_file log in
      if contains s "\"queue_depth\":0" && contains s "\"running\":0" then ()
      else begin
        Unix.sleepf 0.1;
        go (n + 1)
      end
  in
  go 0

(* Every `done _ _ solved` journal line names the SDP key it spent a
   real solve on; a key appearing twice means a restart re-solved
   cached work. *)
let assert_zero_resolves ~what journal =
  let seen = Hashtbl.create 64 in
  let ic = open_in journal in
  (try
     while true do
       let line = input_line ic in
       match String.split_on_char ' ' line with
       | "done" :: _seq :: key :: "solved" :: _ ->
           if Hashtbl.mem seen key then
             die "%s: SDP key %s solved twice — restart re-solved cached work" what
               key;
           Hashtbl.add seen key ()
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  if Hashtbl.length seen = 0 then die "%s: journal has no solved entries at all" what

(* Extract the stable "result":{...} object from a client response. *)
let result_core ~what response =
  let marker = "\"result\":{" in
  let n = String.length response and m = String.length marker in
  let rec find i =
    if i + m > n then die "%s: no result object in %s" what response
    else if String.sub response i m = marker then i + m - 1
    else find (i + 1)
  in
  let start = find 0 in
  let rec close i depth =
    if i >= n then die "%s: unterminated result object" what
    else
      match response.[i] with
      | '{' -> close (i + 1) (depth + 1)
      | '}' -> if depth = 1 then i else close (i + 1) (depth - 1)
      | _ -> close (i + 1) depth
  in
  let stop = close start 0 in
  String.sub response start (stop - start + 1)

let () =
  if Array.length Sys.argv < 3 then die "usage: service_smoke VERIFYD_EXE VERIFY_CLIENT_EXE";
  let daemon_exe = Sys.argv.(1) in
  let client = Filename.quote Sys.argv.(2) in
  Unix.mkdir root 0o755;
  at_exit cleanup;
  let dir name =
    let d = Filename.concat root name in
    Unix.mkdir d 0o755;
    d
  in
  (* Degree 4 / 4 bisection steps keeps each job to a handful of small
     SDPs (the same cheap configuration atlas_smoke uses). *)
  let cheap = " -o third -d 4 --bisect-steps 4" in

  (* ---------------- crash-safe restart, zero re-solves ------------- *)
  let d1 = dir "crash" in
  let sock = Filename.concat d1 "verifyd.sock" in
  let qsock = Filename.quote sock in
  let submit_a () =
    run ~expect:0 ~what:"job A"
      (client ^ " submit --sock " ^ qsock ^ cheap)
  in
  (* Lifetime 1: die@j2 simulates kill -9 right after job j2's start is
     ledgered. *)
  let d =
    start_daemon ~exe:daemon_exe ~dir:d1 ~sock
      [ "--workers"; "1"; "--fault-plan"; "die@j2" ]
  in
  await_ready ~what:"lifetime 1" ~client ~sock;
  let a1 = read_file (submit_a ()) in
  if not (contains a1 "\"verdict\":\"verified\"") then die "job A did not verify:\n%s" a1;
  if not (contains a1 "\"cached\":false") then die "job A was unexpectedly cached:\n%s" a1;
  let a1_core = result_core ~what:"job A" a1 in
  (* Job B rides into the die@j2 fault: the daemon exits 137 and the
     waiting client reports the lost server as a structured failure. *)
  let blog =
    run ~expect:1 ~what:"job B client loses its daemon"
      (client ^ " submit --sock " ^ qsock ^ cheap ^ " --point ip=0.975")
  in
  if not (contains (read_file blog) "server-gone") then
    die "dropped client lacks the server-gone diagnosis:\n%s" (read_file blog);
  ignore (wait_daemon ~what:"die@j2 kill" ~expect:137 d);
  (* A populated ledger without --resume is refused with a structured
     diagnosis... *)
  let refuse =
    start_daemon ~exe:daemon_exe ~dir:d1 ~sock [ "--workers"; "1" ]
  in
  let rlog = wait_daemon ~what:"no-resume refusal" ~expect:1 refuse in
  if not (contains (read_file rlog) "queue-not-resumed") then
    die "refusal lacks the queue-not-resumed diagnosis:\n%s" (read_file rlog);
  (* ...and --resume recovers the in-flight job and finishes it. *)
  let d =
    start_daemon ~exe:daemon_exe ~dir:d1 ~sock
      [ "--workers"; "1"; "--resume" ]
  in
  await_ready ~what:"lifetime 2" ~client ~sock;
  await_idle ~what:"recovered job B" ~client ~sock;
  (* Job A replays from the result store: byte-identical verdict, no
     worker, no solves. *)
  let a2 = read_file (submit_a ()) in
  if not (contains a2 "\"cached\":true") then die "restarted job A not cache-served:\n%s" a2;
  if result_core ~what:"job A replay" a2 <> a1_core then
    die "cache-served result differs from the original:\n%s\nvs\n%s" a1_core
      (result_core ~what:"job A replay" a2);
  (* Job B, recovered and completed, is also served from the store now. *)
  let b2 =
    read_file
      (run ~expect:0 ~what:"job B after recovery"
         (client ^ " submit --sock " ^ qsock ^ cheap ^ " --point ip=0.975"))
  in
  if not (contains b2 "\"cached\":true" && contains b2 "\"verdict\":\"verified\"") then
    die "recovered job B was not completed and stored:\n%s" b2;
  assert_zero_resolves ~what:"crash phase" (Filename.concat d1 "journal.log");
  (* Graceful drain: SIGTERM checkpoints and exits 0. *)
  Unix.kill d.pid Sys.sigterm;
  let dlog = wait_daemon ~what:"SIGTERM drain" ~expect:0 d in
  if not (contains (read_file dlog) "drained") then
    die "drain exit lacks the drained banner:\n%s" (read_file dlog);

  (* ---------------- exit-code discipline: not-established ---------- *)
  (* A pre-seeded result store entry proves the store is an interface,
     not a cache curiosity: the daemon serves it and the client maps
     the verdict to exit 2 without any solver in the loop. *)
  let d2 = dir "verdicts" in
  let sock = Filename.concat d2 "verifyd.sock" in
  let qsock = Filename.quote sock in
  let ne_spec =
    { (Service.Job.default_spec Pll.Third) with
      Service.Job.degree = 4;
      bisect_steps = 4;
      point = [ (Pll.Ip, 0.5) ] }
  in
  let results = Filename.concat d2 "results" in
  Unix.mkdir results 0o755;
  let oc =
    open_out
      (Filename.concat results
         (Service.Job.fingerprint (Service.Job.of_spec ne_spec) ^ ".json"))
  in
  output_string oc
    "{\"ok\":false,\"beta\":0,\"kind\":\"infeasible\",\"detail\":\"conclusively infeasible at certificate search\",\"journal\":null,\"solves\":0,\"attempts\":0,\"attempt_s\":0}";
  close_out oc;
  let d = start_daemon ~exe:daemon_exe ~dir:d2 ~sock [ "--workers"; "1" ] in
  await_ready ~what:"verdict phase" ~client ~sock;
  let ne =
    read_file
      (run ~expect:2 ~what:"not-established maps to exit 2"
         (client ^ " submit --sock " ^ qsock ^ cheap ^ " --point ip=0.5"))
  in
  if not (contains ne "\"verdict\":\"not-established\"" && contains ne "\"cached\":true")
  then die "pre-seeded store entry not served:\n%s" ne;
  (* A point naming an axis the order lacks: the client refuses it up
     front as a usage error, with the daemon's own admission check, and
     the daemon, sent it anyway, refuses it at admission. *)
  let absent =
    read_file
      (run ~expect:124 ~what:"axis absent at the order is a usage error"
         (client ^ " submit --sock " ^ qsock ^ " -o third --point c3=1.1"))
  in
  if not (contains absent "c3") then
    die "the usage error does not name the absent axis:\n%s" absent;
  (match
     Service.Client.submit ~sock
       { (Service.Job.default_spec Pll.Third) with Service.Job.point = [ (Pll.C3, 1.1) ] }
   with
  | Ok v when Service.Json.mem_str "type" v = Some "error" -> ()
  | Ok v ->
      die "an axis absent at the order lacks the error reply:\n%s" (Service.Json.to_string v)
  | Error diag -> die "an axis absent at the order: no reply (%s)" diag);
  Unix.kill d.pid Sys.sigterm;
  ignore (wait_daemon ~what:"verdict phase drain" ~expect:0 d);

  (* ---------------- backpressure + dedup + SIGINT ------------------ *)
  let d3 = dir "overload" in
  let sock = Filename.concat d3 "verifyd.sock" in
  let qsock = Filename.quote sock in
  let d =
    start_daemon ~exe:daemon_exe ~dir:d3 ~sock
      [ "--workers"; "1"; "--queue-cap"; "2"; "--fault-plan"; "wedge-queue" ]
  in
  await_ready ~what:"overload phase" ~client ~sock;
  let nowait extra =
    client ^ " submit --sock " ^ qsock ^ cheap ^ " --no-wait" ^ extra
  in
  ignore (run ~expect:0 ~what:"fills slot 1" (nowait ""));
  let dup = read_file (run ~expect:0 ~what:"duplicate dedups" (nowait "")) in
  if not (contains dup "\"deduped\":true") then
    die "duplicate submit did not dedup against the in-flight job:\n%s" dup;
  ignore (run ~expect:0 ~what:"fills slot 2" (nowait " --point ip=1.01"));
  let shed =
    read_file
      (run ~expect:1 ~what:"over-cap submit shed" (nowait " --point ip=1.02"))
  in
  if not (contains shed "\"type\":\"overloaded\"" && contains shed "retry_after_s")
  then die "shed submit lacks the structured overloaded refusal:\n%s" shed;
  let st =
    read_file
      (run ~expect:0 ~what:"overload status"
         (client ^ " status --sock " ^ qsock))
  in
  List.iter
    (fun needle ->
      if not (contains st needle) then
        die "overload status lacks %s:\n%s" needle st)
    [ "\"accepted\":2"; "\"deduped\":1"; "\"shed\":1"; "\"queue_depth\":2" ];
  Unix.kill d.pid Sys.sigint;
  ignore (wait_daemon ~what:"SIGINT" ~expect:130 d);

  (* ---------------- worker supervision: kill + retry --------------- *)
  let d4 = dir "retry" in
  let sock = Filename.concat d4 "verifyd.sock" in
  let qsock = Filename.quote sock in
  let d =
    start_daemon ~exe:daemon_exe ~dir:d4 ~sock
      [ "--workers"; "1"; "--fault-plan"; "kill-worker@j1" ]
  in
  await_ready ~what:"retry phase" ~client ~sock;
  let r =
    read_file
      (run ~expect:0 ~what:"killed worker retried" (client ^ " submit --sock " ^ qsock ^ cheap))
  in
  if not (contains r "\"verdict\":\"verified\"") then
    die "job did not survive its worker being killed:\n%s" r;
  let st =
    read_file
      (run ~expect:0 ~what:"retry status" (client ^ " status --sock " ^ qsock))
  in
  if not (contains st "\"crashes\":1") then die "worker crash not counted:\n%s" st;
  Unix.kill d.pid Sys.sigterm;
  ignore (wait_daemon ~what:"retry phase drain" ~expect:0 d);

  (* ---------------- cancellation on client disconnect -------------- *)
  let d5 = dir "drop" in
  let sock = Filename.concat d5 "verifyd.sock" in
  let qsock = Filename.quote sock in
  let d =
    start_daemon ~exe:daemon_exe ~dir:d5 ~sock
      [ "--workers"; "1"; "--fault-plan"; "drop-client@j1" ]
  in
  await_ready ~what:"drop phase" ~client ~sock;
  let dropped =
    read_file
      (run ~expect:1 ~what:"dropped client diagnosis"
         (client ^ " submit --sock " ^ qsock ^ cheap))
  in
  if not (contains dropped "server-gone") then
    die "dropped client lacks the server-gone diagnosis:\n%s" dropped;
  await_idle ~what:"post-drop queue" ~client ~sock;
  let st =
    read_file
      (run ~expect:0 ~what:"drop status" (client ^ " status --sock " ^ qsock))
  in
  if not (contains st "\"cancelled\":1") then
    die "orphaned job was not cancelled:\n%s" st;
  Unix.kill d.pid Sys.sigterm;
  ignore (wait_daemon ~what:"drop phase drain" ~expect:0 d);

  (* ---------------- usage errors and unreachable daemons ----------- *)
  ignore
    (run ~expect:124 ~what:"verifyd without --run-dir"
       (Filename.quote daemon_exe));
  ignore
    (run ~expect:124 ~what:"verifyd bad fault plan"
       (Filename.quote daemon_exe ^ " --run-dir " ^ Filename.quote (dir "usage")
      ^ " --fault-plan melt@j1"));
  ignore
    (run ~expect:124 ~what:"client bad point"
       (client ^ " submit --sock /nonexistent.sock --point bogus=1"));
  let gone =
    read_file
      (run ~expect:1 ~what:"client without a daemon"
         (client ^ " status --sock /nonexistent.sock"))
  in
  if not (contains gone "connect-failed") then
    die "unreachable daemon lacks the connect-failed diagnosis:\n%s" gone;
  print_endline "service_smoke: OK"
