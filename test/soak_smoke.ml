(* Chaos-soak of the bulk (atlas-over-daemon) execution path, driven
   against the real binaries (paths arrive as argv from the dune rule):

   - baseline: a local sweep and a fault-free sweep through the daemon
     produce byte-identical atlas.json (the backend is invisible to the
     proof artifact);
   - lease storm: with --lease-ttl 1 and a fault plan that stalls one
     cell's worker (alive but never heartbeating) and SIGKILLs another,
     and drops a bulk client server-side, the sweep still certifies
     everything, atlas.json stays byte-identical, the daemon counts the
     reclaimed lease and the redispatches, nothing dead-letters, and no
     SDP key is ever solved twice (bounded re-solves: the redispatched
     attempts ride the shared solve cache);
   - timed-out cell: a cell whose worker wedges (alive, heartbeating
     nothing, under the default 30 s lease TTL) is killed at its budget
     plus grace and answered as budget-exhausted at once — the sweep
     client is not left waiting for a reply that never comes;
   - dead-letter quarantine: a cell whose worker is killed on EVERY
     dispatch (kill-cell@) exhausts its --job-retries budget, lands in
     dead-letter/ with its attempt history, and comes back to the sweep
     as a crash-kind quarantine carrying that history — exit 2, sweep
     completes;
   - daemon death mid-batch: die@CELL kills the daemon (exit 137) while
     a bulk batch is in flight; the harness restarts it with --resume
     and the waiting atlas client survives via jittered backoff and
     resubmission — exit 0, atlas.json byte-identical again;
   - client backoff: against a wedged daemon at queue-cap 1,
     verify_client --retries keeps receiving the structured overloaded
     refusal and exits 1 once the budget is spent; an unreachable
     daemon is retried and diagnosed connect-failed. *)

let die fmt =
  Printf.ksprintf (fun m -> prerr_endline ("soak_smoke: " ^ m); exit 1) fmt

let root =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "pll-soak-smoke-%d" (Unix.getpid ()))

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

(* Background process (a daemon, or an atlas client riding out a daemon
   death). *)
type proc = { pid : int; log : string }

let start_bg ~exe ~what args =
  incr n_runs;
  let log = Filename.concat root (Printf.sprintf "run%02d-%s.log" !n_runs what) in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd fd in
  Unix.close fd;
  { pid; log }

let wait_bg ~what ~expect p =
  let code =
    match Unix.waitpid [] p.pid with
    | _, Unix.WEXITED c -> c
    | _, Unix.WSIGNALED s -> 128 + s
    | _, Unix.WSTOPPED _ -> die "%s: stopped unexpectedly" what
  in
  if code <> expect then begin
    prerr_endline ("--- " ^ what ^ " log:");
    prerr_endline (try read_file p.log with _ -> "(no output)");
    die "%s: expected exit %d, got %d" what expect code
  end;
  p.log

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

(* Pull the integer value of "field":N out of a status/JSON blob. *)
let json_int ~what field s =
  let marker = "\"" ^ field ^ "\":" in
  let n = String.length s and m = String.length marker in
  let rec find i =
    if i + m > n then die "%s: no %s in %s" what field s
    else if String.sub s i m = marker then i + m
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while !stop < n && (match s.[!stop] with '0' .. '9' | '-' -> true | _ -> false) do
    incr stop
  done;
  int_of_string (String.sub s start (!stop - start))

let status ~what ~client ~sock =
  read_file
    (run ~expect:0 ~what (client ^ " status --sock " ^ Filename.quote sock))

(* Every `done _ _ solved` journal line names an SDP key that cost a
   real solve; a key appearing twice means a redispatch or restart
   re-solved cached work instead of riding the shared cache. *)
let assert_zero_resolves ~what journal =
  let seen = Hashtbl.create 64 in
  let ic = open_in journal in
  (try
     while true do
       let line = input_line ic in
       match String.split_on_char ' ' line with
       | "done" :: _seq :: key :: "solved" :: _ ->
           if Hashtbl.mem seen key then
             die "%s: SDP key %s solved twice — cached work was re-solved" what key;
           Hashtbl.add seen key ()
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  if Hashtbl.length seen = 0 then die "%s: journal has no solved entries at all" what

let () =
  if Array.length Sys.argv < 4 then
    die "usage: soak_smoke VERIFYD_EXE VERIFY_CLIENT_EXE ATLAS_PLL_EXE";
  let daemon_exe = Sys.argv.(1) in
  let client = Filename.quote Sys.argv.(2) in
  let atlas = Filename.quote Sys.argv.(3) in
  Unix.mkdir root 0o755;
  at_exit cleanup;
  let dir name =
    let d = Filename.concat root name in
    Unix.mkdir d 0o755;
    d
  in
  (* The cheap sweep every phase certifies: 2x2 third-order grid at
     degree 4 / 4 bisection steps — cells c0-0 c0-1 c1-0 c1-1, all
     certifiable, a handful of small SDPs each. *)
  let sweep = " --grid ip=0.9:1.1:2,kv=0.9:1.1:2 -d 4 --bisect-steps 4" in
  let atlas_run ~expect ~what ~run_dir extra =
    run ~expect ~what
      (atlas ^ sweep ^ " --run-dir " ^ Filename.quote run_dir ^ extra)
  in
  let start_daemon ~dir ~sock extra =
    start_bg ~exe:daemon_exe ~what:"daemon"
      ([ "--run-dir"; dir; "--sock"; sock ] @ extra)
  in

  (* ---------------- baseline: local vs daemon, byte-identical ------ *)
  let local_dir = dir "local" in
  ignore (atlas_run ~expect:0 ~what:"local baseline sweep" ~run_dir:local_dir "");
  let baseline = read_file (Filename.concat local_dir "atlas.json") in

  let d1 = dir "bulk" in
  let sock = Filename.concat d1 "verifyd.sock" in
  let d = start_daemon ~dir:d1 ~sock [] in
  await_ready ~what:"bulk baseline" ~client ~sock;
  let a1 = dir "bulk-atlas" in
  ignore
    (atlas_run ~expect:0 ~what:"fault-free bulk sweep" ~run_dir:a1
       (" --via-daemon " ^ Filename.quote sock));
  let remote = read_file (Filename.concat a1 "atlas.json") in
  if remote <> baseline then
    die "fault-free bulk atlas.json differs from the local run:\n%s\nvs\n%s" remote
      baseline;
  let st = status ~what:"bulk baseline status" ~client ~sock in
  if json_int ~what:"bulk baseline" "accepted" st < 4 then
    die "daemon did not accept the 4 bulk cells:\n%s" st;
  if json_int ~what:"bulk baseline" "completed" st < 4 then
    die "daemon did not complete the 4 bulk cells:\n%s" st;
  (* Workers answer over a pipe: the run directory keeps no per-job
     handoff files. *)
  if Sys.file_exists (Filename.concat d1 "outbox") then
    die "the daemon's run directory holds an outbox/ after its jobs completed";
  Unix.kill d.pid Sys.sigterm;
  ignore (wait_bg ~what:"bulk baseline drain" ~expect:0 d);
  (* The daemon opens its run dir's solve context once, not once per job:
     one daemon lifetime is one [run] line in its journal. *)
  let runs =
    List.length
      (List.filter
         (fun l -> String.starts_with ~prefix:"run " l)
         (String.split_on_char '\n' (read_file (Filename.concat d1 "journal.log"))))
  in
  if runs <> 1 then
    die "bulk baseline: journal.log holds %d run lines for one daemon lifetime" runs;

  (* ---------------- lease storm: stall + kill + dropped client ----- *)
  let d2 = dir "storm" in
  let sock = Filename.concat d2 "verifyd.sock" in
  let d =
    start_daemon ~dir:d2 ~sock
      [ "--lease-ttl"; "1"; "--fault-plan";
        "stall-worker@c0-0,kill-worker@c1-1,drop-client@c0-1" ]
  in
  await_ready ~what:"lease storm" ~client ~sock;
  let a2 = dir "storm-atlas" in
  ignore
    (atlas_run ~expect:0 ~what:"sweep through the storm" ~run_dir:a2
       (" --via-daemon " ^ Filename.quote sock ^ " --client-retries 10"));
  let stormy = read_file (Filename.concat a2 "atlas.json") in
  if stormy <> baseline then
    die "storm atlas.json differs from the local run:\n%s\nvs\n%s" stormy baseline;
  let st = status ~what:"storm status" ~client ~sock in
  if json_int ~what:"storm" "leases_reclaimed" st < 1 then
    die "stalled worker's lease was not reclaimed:\n%s" st;
  if json_int ~what:"storm" "redispatched" st < 2 then
    die "reclaimed and killed workers were not redispatched:\n%s" st;
  if json_int ~what:"storm" "dead_lettered" st <> 0 then
    die "storm dead-lettered a recoverable job:\n%s" st;
  if json_int ~what:"storm" "crashes" st < 2 then
    die "storm crashes not counted:\n%s" st;
  (* Bounded re-solves: every redispatch rode the shared solve cache. *)
  assert_zero_resolves ~what:"storm" (Filename.concat d2 "journal.log");
  Unix.kill d.pid Sys.sigterm;
  ignore (wait_bg ~what:"storm drain" ~expect:0 d);

  (* ---------------- a timed-out cell is answered ------------------- *)
  let d6 = dir "timeout" in
  let sock = Filename.concat d6 "verifyd.sock" in
  let d = start_daemon ~dir:d6 ~sock [ "--fault-plan"; "stall-worker@c0-0" ] in
  await_ready ~what:"timeout" ~client ~sock;
  let a6 = dir "timeout-atlas" in
  let t0 = Unix.gettimeofday () in
  ignore
    (atlas_run ~expect:2 ~what:"sweep with a wedged cell" ~run_dir:a6
       (" --max-subdiv 0 --cell-budget 1 --via-daemon " ^ Filename.quote sock));
  let took = Unix.gettimeofday () -. t0 in
  if took > 30.0 then
    die "the wedged cell's answer took %.1fs (the client waited out its receive timeout)"
      took;
  let q = read_file (Filename.concat a6 (Filename.concat "quarantine" "c0-0.json")) in
  if not (contains q "\"kind\":\"budget-exhausted\"") then
    die "the wedged cell was not answered as budget-exhausted:\n%s" q;
  let st = status ~what:"timeout status" ~client ~sock in
  if json_int ~what:"timeout" "timeouts" st <> 1 then
    die "exactly one worker should time out:\n%s" st;
  Unix.kill d.pid Sys.sigterm;
  ignore (wait_bg ~what:"timeout drain" ~expect:0 d);

  (* ---------------- dead-letter -> quarantine ---------------------- *)
  let d3 = dir "deadletter" in
  let sock = Filename.concat d3 "verifyd.sock" in
  let d =
    start_daemon ~dir:d3 ~sock
      [ "--job-retries"; "1"; "--fault-plan"; "kill-cell@c0-0" ]
  in
  await_ready ~what:"dead-letter" ~client ~sock;
  let a3 = dir "deadletter-atlas" in
  let log =
    atlas_run ~expect:2 ~what:"sweep with a poisoned cell" ~run_dir:a3
      (" --max-subdiv 0 --via-daemon " ^ Filename.quote sock)
  in
  if not (contains (read_file log) "quarantined") then
    die "poisoned sweep summary does not mention quarantine:\n%s" (read_file log);
  let atlas_json = read_file (Filename.concat a3 "atlas.json") in
  if not (contains atlas_json "\"kind\":\"crash\"") then
    die "dead-lettered cell is not a crash-kind quarantine:\n%s" atlas_json;
  let st = status ~what:"dead-letter status" ~client ~sock in
  if json_int ~what:"dead-letter" "dead_lettered" st <> 1 then
    die "exactly one job should dead-letter:\n%s" st;
  (* The dead-letter record carries the whole attempt history
     (--job-retries 1 => exactly 2 attempts) and the cell's identity. *)
  let dl_dir = Filename.concat d3 "dead-letter" in
  let dl =
    match Sys.readdir dl_dir with
    | [| f |] -> read_file (Filename.concat dl_dir f)
    | a -> die "expected exactly one dead-letter record, found %d" (Array.length a)
  in
  List.iter
    (fun needle ->
      if not (contains dl needle) then
        die "dead-letter record lacks %s:\n%s" needle dl)
    [ "\"cell_id\":\"c0-0\""; "\"kind\":\"crash\"";
      "\"detail\":\"cell worker crashed\""; "attempt 1:"; "attempt 2:" ];
  if contains dl "attempt 3:" then
    die "dead-letter record shows more attempts than the retry budget:\n%s" dl;
  (* ...and the sweep's quarantine diagnosis embeds it verbatim. *)
  let q = read_file (Filename.concat a3 (Filename.concat "quarantine" "c0-0.json")) in
  if not (contains q "cell worker crashed" && contains q "attempt 2:") then
    die "quarantine diagnosis does not carry the dead-letter history:\n%s" q;
  Unix.kill d.pid Sys.sigterm;
  ignore (wait_bg ~what:"dead-letter drain" ~expect:0 d);

  (* ---------------- daemon dies mid-batch; client survives --------- *)
  let d4 = dir "die" in
  let sock = Filename.concat d4 "verifyd.sock" in
  let d =
    start_daemon ~dir:d4 ~sock [ "--fault-plan"; "die@c1-0" ]
  in
  await_ready ~what:"die phase" ~client ~sock;
  let a4 = dir "die-atlas" in
  let sweeper =
    start_bg ~exe:Sys.argv.(3) ~what:"atlas"
      [ "--grid"; "ip=0.9:1.1:2,kv=0.9:1.1:2"; "-d"; "4"; "--bisect-steps"; "4";
        "--run-dir"; a4; "--via-daemon"; sock; "--client-retries"; "20" ]
  in
  (* The daemon _exits 137 right after ledgering cell c1-0's start; the
     sweep client is left mid-batch and must ride its backoff out. *)
  ignore (wait_bg ~what:"die@c1-0 kill" ~expect:137 d);
  let d = start_daemon ~dir:d4 ~sock [ "--resume" ] in
  await_ready ~what:"resumed daemon" ~client ~sock;
  ignore (wait_bg ~what:"sweep across the daemon restart" ~expect:0 sweeper);
  let revived = read_file (Filename.concat a4 "atlas.json") in
  if revived <> baseline then
    die "post-restart atlas.json differs from the local run:\n%s\nvs\n%s" revived
      baseline;
  Unix.kill d.pid Sys.sigterm;
  ignore (wait_bg ~what:"die phase drain" ~expect:0 d);

  (* ---------------- client backoff discipline ---------------------- *)
  let d5 = dir "backoff" in
  let sock = Filename.concat d5 "verifyd.sock" in
  let qsock = Filename.quote sock in
  let d =
    start_daemon ~dir:d5 ~sock
      [ "--queue-cap"; "1"; "--fault-plan"; "wedge-queue" ]
  in
  await_ready ~what:"backoff phase" ~client ~sock;
  let cheap = " -o third -d 4 --bisect-steps 4" in
  ignore
    (run ~expect:0 ~what:"fills the only slot"
       (client ^ " submit --sock " ^ qsock ^ cheap ^ " --no-wait"));
  let t0 = Unix.gettimeofday () in
  let shed =
    run ~expect:1 ~what:"retries exhaust against a wedged queue"
      (client ^ " submit --sock " ^ qsock ^ cheap
     ^ " --point ip=1.01 --no-wait --retries 2 --retry-base 0.1")
  in
  let waited = Unix.gettimeofday () -. t0 in
  if not (contains (read_file shed) "overloaded") then
    die "exhausted retries do not surface the overloaded refusal:\n%s"
      (read_file shed);
  (* Three attempts, each refused with a retry_after_s hint the client
     must honour — so the budget takes real time to spend. *)
  if waited < 0.2 then
    die "client did not back off between retries (took %.3fs)" waited;
  let st = status ~what:"backoff status" ~client ~sock in
  if json_int ~what:"backoff" "shed" st < 3 then
    die "each retry should be shed separately:\n%s" st;
  Unix.kill d.pid Sys.sigterm;
  ignore (wait_bg ~what:"backoff drain" ~expect:0 d);
  let gone =
    read_file
      (run ~expect:1 ~what:"unreachable daemon with retries"
         (client ^ " submit --sock /nonexistent.sock" ^ cheap
        ^ " --retries 1 --retry-base 0.1"))
  in
  if not (contains gone "connect-failed") then
    die "unreachable daemon lacks the connect-failed diagnosis:\n%s" gone;
  print_endline "soak_smoke: OK"
