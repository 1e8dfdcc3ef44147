(* End-to-end smoke test of the fault-tolerant certification atlas,
   driven against the real binaries (paths arrive as argv from the dune
   rule):

   - run A: uninterrupted 2x2 sweep at -j 1 — the reference atlas;
   - run D: the same sweep at -j 4 — atlas.json must be byte-identical
     to A (parallelism must not leak into the report);
   - run B: chaos — the sweep is killed mid-flight at three distinct
     cells via --fault-plan kill@<id>, resumed each time, and the final
     plain --resume must (a) exit 0, (b) produce an atlas.json
     byte-identical to A, and (c) never re-solve a certified cell (each
     cell appears exactly once in the write-ahead ledger);
   - run C: an injected unsolvable cell is subdivided to --max-subdiv
     and quarantined with a machine-readable diagnosis; exit code 2;
   - guard rails: resuming with drifted configuration is refused (exit
     1), reusing a populated run dir without --resume is refused (exit
     1), malformed fault plans are usage errors (exit 124) in both
     atlas_pll and verify_pll, and so are the per-solve worker knobs
     atlas cells never use (--solve-timeout, kill@S:I) and, with
     --via-daemon, every fault token but kill@CELL;
   - verify_pll's run dir: a verdict, a refused re-run without
     --resume, a resume with zero re-solves and the same level, and a
     config-drift refusal. *)

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("atlas_smoke: " ^ m); exit 1) fmt

let root =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "pll-atlas-smoke-%d" (Unix.getpid ()))

let cleanup () = ignore (Sys.command ("rm -rf " ^ Filename.quote root))

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Run a command with output captured to a log; on unexpected exit code
   the log is dumped so failures are diagnosable from CI output. *)
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

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* The integer after the first ["field":] in a JSON text. *)
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

let count_lines_with path needle =
  let n = ref 0 in
  let ic = open_in path in
  (try
     while true do
       if contains (input_line ic) needle then incr n
     done
   with End_of_file -> close_in ic);
  !n

let () =
  if Array.length Sys.argv < 3 then die "usage: atlas_smoke ATLAS_PLL_EXE VERIFY_PLL_EXE";
  let atlas_exe = Filename.quote Sys.argv.(1) in
  let verify_exe = Filename.quote Sys.argv.(2) in
  Unix.mkdir root 0o755;
  at_exit cleanup;
  let dir name = Filename.quote (Filename.concat root name) in
  (* Degree 4 keeps each cell's SDP small; --bisect-steps 4 is the
     minimum that reaches the feasible level from the search ceiling. *)
  let base =
    atlas_exe ^ " -o third -d 4 --bisect-steps 4 --grid ip=0.95:1.05:2,kv=0.97:1.03:2"
  in

  (* Run A: the uninterrupted reference. *)
  ignore (run ~expect:0 ~what:"run A (reference sweep)" (base ^ " -j 1 --run-dir " ^ dir "A"));
  let ref_atlas = read_file (Filename.concat root "A/atlas.json") in
  if json_int ~what:"run A" "certified" ref_atlas <> 4 then
    die "run A did not certify all 4 cells:\n%s" ref_atlas;
  if json_int ~what:"run A" "quarantined" ref_atlas <> 0 then
    die "run A quarantined a cell:\n%s" ref_atlas;

  (* Run D: parallelism must not change the atlas. *)
  ignore (run ~expect:0 ~what:"run D (-j 4 determinism)" (base ^ " -j 4 --run-dir " ^ dir "D"));
  if read_file (Filename.concat root "D/atlas.json") <> ref_atlas then
    die "-j 4 atlas differs from -j 1 atlas";

  (* Run B: kill -9 the orchestrator at three distinct cells, resuming
     after each crash. The kill fires AFTER the cell is ledgered, so
     every resume finds strictly more completed work. *)
  let chaos fault what =
    ignore
      (run ~expect:137 ~what
         (base ^ " -j 1 --resume " ^ dir "B" ^ " --fault-plan " ^ fault))
  in
  chaos "kill@c0-0" "run B kill 1";
  chaos "kill@c0-1" "run B kill 2";
  chaos "kill@c1-0" "run B kill 3";
  let log =
    run ~expect:0 ~what:"run B final resume" (base ^ " -j 1 --resume " ^ dir "B")
  in
  if read_file (Filename.concat root "B/atlas.json") <> ref_atlas then
    die "resumed atlas differs from uninterrupted atlas";
  if not (contains (read_file log) "replayed") then
    die "final resume did not report replayed cells";
  (* Zero re-solves: the write-ahead ledger records each certification
     once; a replayed cell is never re-ledgered. *)
  let ledger = Filename.concat root "B/ledger.log" in
  List.iter
    (fun id ->
      let n = count_lines_with ledger ("done " ^ id ^ " ") in
      if n <> 1 then die "cell %s ledgered %d times (expected exactly 1)" id n)
    [ "c0-0"; "c0-1"; "c1-0"; "c1-1" ];

  (* Run C: injected failure -> bounded subdivision -> quarantine. A
     1-cell grid keeps this solver-free. *)
  ignore
    (run ~expect:2 ~what:"run C (quarantine)"
       (atlas_exe
      ^ " -o third -d 4 --bisect-steps 4 --grid ip=0.95:1.05:1 --max-subdiv 1 \
         --fault-plan fail-cell@c0 --run-dir " ^ dir "C"));
  let qdir = Filename.concat root "C/quarantine" in
  let qfiles = try Sys.readdir qdir with _ -> [||] in
  if Array.length qfiles = 0 then die "no quarantine diagnoses written";
  let c_atlas = read_file (Filename.concat root "C/atlas.json") in
  if json_int ~what:"run C" "quarantined" c_atlas < 1 then
    die "run C's atlas.json does not count its quarantined cell:\n%s" c_atlas;
  Array.iter
    (fun f ->
      let d = read_file (Filename.concat qdir f) in
      if not (contains d "\"kind\":\"injected\"") then
        die "quarantine diagnosis %s lacks machine-readable kind:\n%s" f d)
    qfiles;

  (* Guard rails. *)
  let refused =
    run ~expect:1 ~what:"config drift refusal"
      (atlas_exe
     ^ " -o third -d 6 --bisect-steps 4 --grid ip=0.95:1.05:2,kv=0.97:1.03:2 \
        -j 1 --resume " ^ dir "A")
  in
  if not (contains (read_file refused) "config-drift") then
    die "drifted resume refusal lacks the config-drift diagnosis";
  ignore
    (run ~expect:1 ~what:"populated dir without --resume" (base ^ " -j 1 --run-dir " ^ dir "A"));
  ignore (run ~expect:124 ~what:"atlas bad fault plan" (base ^ " --fault-plan melt@1"));
  (* Cells solve inline, so per-solve worker knobs and faults would
     never act on them: they are usage errors, not silent no-ops. *)
  ignore (run ~expect:124 ~what:"atlas --solve-timeout" (base ^ " --solve-timeout 1"));
  ignore (run ~expect:124 ~what:"atlas worker-kill fault" (base ^ " --fault-plan kill@1:2"));
  (* A daemon run ships only cell lines, so a cell fault cannot reach
     its cell: refused before any connection is tried. *)
  ignore
    (run ~expect:124 ~what:"atlas cell fault via daemon"
       (base ^ " --via-daemon " ^ Filename.quote (Filename.concat root "no.sock")
      ^ " --client-retries 0 --fault-plan fail-cell@c0-0"));
  ignore
    (run ~expect:124 ~what:"verify_pll bad fault plan"
       (verify_exe ^ " -o third --fault-plan melt@1"));

  (* verify_pll's run dir: a verdict, a refused re-run without
     --resume, a resume that replays every solve from the cache (the
     journal gains no solved line, the verdict and level are the same)
     and a refused resume under another degree. *)
  let verify degree args =
    verify_exe ^ " -o third -d " ^ degree ^ " --advect-iters 4 " ^ args
  in
  let vdir = dir "V" in
  let journal = Filename.concat root "V/journal.log" in
  let beta_line log =
    match
      List.find_opt
        (fun l -> contains l "beta =")
        (String.split_on_char '\n' (read_file log))
    with
    | Some l -> l
    | None -> die "no beta line in %s:\n%s" log (read_file log)
  in
  let first = run ~expect:0 ~what:"verify_pll run dir" (verify "4" ("--run-dir " ^ vdir)) in
  if not (contains (read_file first) "VERIFIED") then
    die "verify_pll did not verify:\n%s" (read_file first);
  let solved = count_lines_with journal " solved " in
  if solved = 0 then die "verify_pll journaled no solves";
  let refused =
    run ~expect:1 ~what:"verify_pll populated dir without --resume"
      (verify "4" ("--run-dir " ^ vdir))
  in
  if not (contains (read_file refused) "not-resumed") then
    die "verify_pll refusal lacks the not-resumed diagnosis:\n%s" (read_file refused);
  let resumed = run ~expect:0 ~what:"verify_pll --resume" (verify "4" ("--resume " ^ vdir)) in
  if beta_line resumed <> beta_line first then
    die "resumed level differs: %S vs %S" (beta_line resumed) (beta_line first);
  if count_lines_with journal " solved " <> solved then
    die "verify_pll --resume re-solved (journal: %d solved lines, was %d)"
      (count_lines_with journal " solved ") solved;
  let drift =
    run ~expect:1 ~what:"verify_pll drifted resume" (verify "6" ("--resume " ^ vdir))
  in
  if not (contains (read_file drift) "config-drift") then
    die "verify_pll drifted resume lacks the config-drift diagnosis";
  print_endline "atlas_smoke: OK"
