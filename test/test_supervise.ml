(* Tests for process-isolated solve supervision: request fingerprints,
   the content-addressed cache and its corruption diagnoses, the
   write-ahead journal's tolerant reader, process-fault spec parsing,
   the deadline clock, the solver worker's lifecycle, one-answer
   children, and the worker pool. *)

let entry blk row col value = { Sdp.blk; row; col; value }

(* min tr X s.t. X_00 = 1 over a 2x2 block: optimal X = diag(1,0). *)
let small_problem ?(rhs = 1.0) () =
  {
    Sdp.block_dims = [| 2 |];
    n_free = 0;
    constraints = [| { Sdp.lhs = [ entry 0 0 0 1.0 ]; free = []; rhs } |];
    obj_blocks = [ entry 0 0 0 1.0; entry 0 1 1 1.0 ];
    obj_free = [];
  }

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "pll-test-supervise-%d-%d" (Unix.getpid ()) !n)
    in
    d

(* ---- fingerprints ---- *)

let test_fingerprint_stable () =
  let p = small_problem () in
  Alcotest.(check string) "same input, same key" (Sdp.fingerprint p) (Sdp.fingerprint p);
  let q = small_problem ~rhs:2.0 () in
  Alcotest.(check bool) "different data, different key" true
    (Sdp.fingerprint p <> Sdp.fingerprint q);
  let params = { Sdp.default_params with Sdp.max_iter = 7 } in
  Alcotest.(check bool) "different params, different key" true
    (Sdp.fingerprint p <> Sdp.fingerprint ~params p)

let test_fingerprint_ignores_hooks () =
  let p = small_problem () in
  let params =
    { Sdp.default_params with Sdp.on_iteration = Some (fun _ -> None); verbose = true }
  in
  Alcotest.(check string) "hooks and verbosity excluded from the key"
    (Sdp.fingerprint p)
    (Sdp.fingerprint ~params p)

(* ---- cache ---- *)

let test_cache_roundtrip () =
  let c = Supervise.Cache.create ~dir:(tmp_dir ()) in
  let p = small_problem () in
  let sol = Sdp.solve p in
  let key = Sdp.fingerprint p in
  (match Supervise.Cache.store c ~key sol with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Supervise.Cache.load c ~key with
  | Error e -> Alcotest.fail (Supervise.Cache.error_to_string e)
  | Ok sol' ->
      Alcotest.(check bool) "status survives" true (sol'.Sdp.status = sol.Sdp.status);
      Alcotest.(check (float 0.0)) "objective survives bit-exactly" sol.Sdp.primal_obj
        sol'.Sdp.primal_obj

let test_cache_missing () =
  let c = Supervise.Cache.create ~dir:(tmp_dir ()) in
  match Supervise.Cache.load c ~key:"deadbeef" with
  | Error Supervise.Cache.Missing -> ()
  | Error e -> Alcotest.fail ("expected Missing, got " ^ Supervise.Cache.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Missing, got a solution"

let test_cache_truncation_diagnosed () =
  let c = Supervise.Cache.create ~dir:(tmp_dir ()) in
  let p = small_problem () in
  let key = Sdp.fingerprint p in
  (match Supervise.Cache.store c ~key (Sdp.solve p) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "corrupt truncates in place" true (Supervise.Cache.corrupt c ~key);
  (match Supervise.Cache.load c ~key with
  | Error (Supervise.Cache.Truncated _ | Supervise.Cache.Bad_header _) -> ()
  | Error e ->
      Alcotest.fail ("expected a truncation diagnosis, got " ^ Supervise.Cache.error_to_string e)
  | Ok _ -> Alcotest.fail "truncated entry loaded");
  Alcotest.(check bool) "corrupting a missing entry reports false" false
    (Supervise.Cache.corrupt c ~key:"deadbeef")

let test_cache_digest_mismatch () =
  let c = Supervise.Cache.create ~dir:(tmp_dir ()) in
  let p = small_problem () in
  let key = Sdp.fingerprint p in
  (match Supervise.Cache.store c ~key (Sdp.solve p) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Flip one payload byte without changing the length. *)
  let path = Supervise.Cache.path c ~key in
  let ic = open_in_bin path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string content in
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0xff));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  match Supervise.Cache.load c ~key with
  | Error Supervise.Cache.Digest_mismatch -> ()
  | Error e ->
      Alcotest.fail ("expected Digest_mismatch, got " ^ Supervise.Cache.error_to_string e)
  | Ok _ -> Alcotest.fail "corrupted entry loaded"

(* Size-capped LRU eviction over the content-addressed cache. *)

let test_cache_gc_lru () =
  let c = Supervise.Cache.create ~dir:(tmp_dir ()) in
  let sol = Sdp.solve (small_problem ()) in
  let keys = [ "aaaa"; "bbbb"; "cccc" ] in
  List.iter
    (fun key ->
      match Supervise.Cache.store c ~key sol with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    keys;
  (* Deterministic ages: aaaa oldest, cccc newest. *)
  let now = Unix.gettimeofday () in
  List.iteri
    (fun i key ->
      let t = now -. 100.0 +. (10.0 *. float_of_int i) in
      Unix.utimes (Supervise.Cache.path c ~key) t t)
    keys;
  let entries, bytes = Supervise.Cache.usage c in
  Alcotest.(check int) "three entries counted" 3 entries;
  Alcotest.(check bool) "bytes accounted" true (bytes > 0);
  let per = bytes / 3 in
  (* A stale tmp file from a crashed writer is swept too. *)
  let stale = Filename.concat (Filename.dirname (Supervise.Cache.path c ~key:"x"))
                "dead.solve.tmp.999" in
  let oc = open_out stale in
  output_string oc "partial";
  close_out oc;
  Unix.utimes stale (now -. 3600.0) (now -. 3600.0);
  let st = Supervise.Cache.gc c ~max_bytes:(2 * per) in
  Alcotest.(check int) "oldest entry evicted" 1 st.Supervise.Cache.evicted;
  Alcotest.(check int) "survivors" 2 st.Supervise.Cache.entries;
  Alcotest.(check bool) "stale tmp swept" false (Sys.file_exists stale);
  (match Supervise.Cache.load c ~key:"aaaa" with
  | Error Supervise.Cache.Missing -> ()
  | _ -> Alcotest.fail "LRU must evict the oldest entry first");
  (* Loading refreshes recency: bbbb (touched by the load) must now
     outlive cccc under a tighter cap. *)
  (match Supervise.Cache.load c ~key:"bbbb" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Supervise.Cache.error_to_string e));
  let st2 = Supervise.Cache.gc c ~max_bytes:per in
  Alcotest.(check int) "one more eviction" 1 st2.Supervise.Cache.evicted;
  (match Supervise.Cache.load c ~key:"bbbb" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "recently used entry evicted");
  match Supervise.Cache.load c ~key:"cccc" with
  | Error Supervise.Cache.Missing -> ()
  | _ -> Alcotest.fail "least recently used entry survived"

(* ---- journal ---- *)

let test_journal_tolerant_read () =
  let dir = tmp_dir () in
  Unix.mkdir dir 0o755;
  let oc = open_out (Supervise.Journal.path dir) in
  output_string oc "pll-run-journal v1\n";
  output_string oc "run 1.0 123\n";
  output_string oc "start 1 abcd label-a\n";
  output_string oc "done 1 abcd solved optimal 0.25 label-a\n";
  output_string oc "done 2 efgh cache optimal 0.0 label b with spaces\n";
  output_string oc "done x bad not-an-entry\n";
  output_string oc "gibberish line\n";
  (* A line truncated by a crash inside its label, no trailing newline:
     it still splits into fields, but it is torn, not a record. *)
  output_string oc "done 3 ijkl solved optimal 0.5 lab";
  close_out oc;
  let entries, diags = Supervise.Journal.read dir in
  Alcotest.(check int) "two well-formed done entries" 2 (List.length entries);
  let e1 = List.nth entries 0 and e2 = List.nth entries 1 in
  Alcotest.(check int) "seq" 1 e1.Supervise.Journal.seq;
  Alcotest.(check string) "source" "solved" e1.Supervise.Journal.source;
  Alcotest.(check string) "multi-word label survives" "label b with spaces"
    e2.Supervise.Journal.label;
  Alcotest.(check bool) "malformed lines become diagnoses, not raises" true
    (List.length diags >= 2)

let test_journal_missing () =
  let entries, diags = Supervise.Journal.read (tmp_dir ()) in
  Alcotest.(check int) "no entries" 0 (List.length entries);
  Alcotest.(check int) "no diagnoses" 0 (List.length diags)

(* ---- fault specs ---- *)

(* Token-level claims live in the shared fault table. *)
let test_fault_parse = Fault_table.check_process_kinds

let test_mixed_plan_parse () =
  match Resilient.Faults.of_string "fail@1:2,kill@2:3,corrupt-cache@1" with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      Alcotest.(check int) "process specs split out" 2
        (List.length (Resilient.Faults.proc_specs plan));
      let s = Resilient.Faults.to_string plan in
      Alcotest.(check bool) "round-trip keeps all kinds" true
        (s = "fail@1:2,kill@2:3,corrupt-cache@1");
      match Resilient.Faults.of_string s with
      | Ok plan2 ->
          Alcotest.(check string) "to_string/of_string round-trips" s
            (Resilient.Faults.to_string plan2)
      | Error e -> Alcotest.fail e

let test_fault_for_solve () =
  let spec k solve iter = { Supervise.Fault.kind = k; solve; iter } in
  let specs = [ spec Supervise.Fault.Kill 2 1; spec Supervise.Fault.Stall 0 1 ] in
  (match Supervise.Fault.for_solve specs 2 with
  | Some { Supervise.Fault.kind = Supervise.Fault.Kill; _ } -> ()
  | _ -> Alcotest.fail "exact index match wins");
  match Supervise.Fault.for_solve specs 7 with
  | Some { Supervise.Fault.kind = Supervise.Fault.Stall; _ } -> ()
  | _ -> Alcotest.fail "wildcard spec applies to every solve"

(* ---- the deadline clock ---- *)

let test_wall_clock_deadline () =
  let fake = ref 0.0 in
  Resilient.set_wall_clock_source (Some (fun () -> !fake));
  Fun.protect
    ~finally:(fun () -> Resilient.set_wall_clock_source None)
    (fun () ->
      let pol = Resilient.make ~pipeline_deadline_s:10.0 () in
      Resilient.begin_pipeline pol;
      Alcotest.(check bool) "not out of time at t=0" false (Resilient.out_of_time pol);
      fake := 11.0;
      Alcotest.(check bool) "out of time once the wall advances" true
        (Resilient.out_of_time pol);
      Alcotest.(check (float 1e-9)) "elapsed reads the injected source" 11.0
        (Resilient.elapsed_s pol))

(* ---- supervised solves ---- *)

let test_inline_solve_and_cache () =
  let ctx = Supervise.create ~run_dir:(tmp_dir ()) ~isolate:false () in
  let p = small_problem () in
  let sol = Supervise.solve_sdp ctx ~label:"unit" p in
  Alcotest.(check bool) "solved" true (sol.Sdp.status = Sdp.Optimal);
  let st = Supervise.stats ctx in
  Alcotest.(check int) "first solve misses the cache" 0 st.Supervise.cache_hits;
  Alcotest.(check int) "clean result stored" 1 st.Supervise.cache_stores;
  let sol' = Supervise.solve_sdp ctx ~label:"unit" p in
  Alcotest.(check int) "second request hits the cache" 1 st.Supervise.cache_hits;
  Alcotest.(check (float 0.0)) "cached objective is bit-identical" sol.Sdp.primal_obj
    sol'.Sdp.primal_obj

let test_forked_solve () =
  let ctx = Supervise.create ~jobs:1 () in
  let p = small_problem () in
  let sol = Supervise.solve_sdp ctx ~label:"forked" p in
  Alcotest.(check bool) "worker result crosses back" true (sol.Sdp.status = Sdp.Optimal);
  Alcotest.(check int) "one worker forked" 1 (Supervise.stats ctx).Supervise.forked

let test_worker_kill_is_synthetic_failure () =
  let ctx = Supervise.create ~jobs:1 () in
  let p = small_problem () in
  let pf = { Supervise.Fault.kind = Supervise.Fault.Kill; solve = 1; iter = 1 } in
  let sol = Supervise.solve_sdp ctx ~label:"killed" ~proc_fault:pf p in
  Alcotest.(check bool) "crash surfaces as Numerical_failure" true
    (sol.Sdp.status = Sdp.Numerical_failure);
  Alcotest.(check bool) "synthetic solution is never salvageable" true
    (sol.Sdp.best_score = Float.infinity);
  Alcotest.(check int) "crash counted" 1 (Supervise.stats ctx).Supervise.crashes

let test_worker_timeout_reaped () =
  let ctx = Supervise.create ~jobs:1 ~solve_timeout_s:0.5 () in
  let p = small_problem () in
  let pf = { Supervise.Fault.kind = Supervise.Fault.Stall; solve = 1; iter = 1 } in
  let sol = Supervise.solve_sdp ctx ~label:"stalled" ~proc_fault:pf p in
  Alcotest.(check bool) "timeout surfaces as Max_iterations" true
    (sol.Sdp.status = Sdp.Max_iterations);
  Alcotest.(check int) "timeout counted" 1 (Supervise.stats ctx).Supervise.timeouts

(* ---- solver-worker lifecycle ---- *)

(* Run [f] in a forked child, so that "no children left" speaks of this
   check's children only; a failure comes back as the exit status. *)
let in_child name f =
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let code =
        match f () with
        | () -> 0
        | exception e ->
            prerr_endline (name ^ ": " ^ Printexc.to_string e);
            1
      in
      Unix._exit code
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.failf "%s failed in its child process" name)

let no_children () =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  | _ -> false

(* [f ()] and the warnings logged while it ran. *)
let with_warnings f =
  let msgs = ref [] in
  let report _src _level ~over k msgf =
    msgf (fun ?header:_ ?tags:_ fmt ->
        Format.kasprintf
          (fun m ->
            msgs := m :: !msgs;
            over ();
            k ())
          fmt)
  in
  let previous = Logs.reporter () in
  Logs.set_reporter { Logs.report };
  let r = Fun.protect ~finally:(fun () -> Logs.set_reporter previous) f in
  (r, List.rev !msgs)

let fault kind solve iter = { Supervise.Fault.kind; solve; iter }

let test_job_leaves_no_children () =
  in_child "job-leaves-no-children" (fun () ->
      let ctx = Supervise.create ~jobs:1 () in
      let spec =
        { (Service.Job.default_spec Pll.Third) with Service.Job.degree = 4; bisect_steps = 2 }
      in
      let o = Service.Job.run ~policy:(Resilient.make ~supervise:ctx ()) spec in
      Alcotest.(check bool) "verdict reached" true (o.Service.Job.solves > 0);
      Alcotest.(check int) "one solver worker served the verdict" 1
        (Supervise.stats ctx).Supervise.forked;
      Alcotest.(check bool) "no child left after Job.run" true (no_children ()))

(* A run killed by SIGKILL takes its forked children with it: the pool
   item of a killed owner is gone, or a zombie awaiting its new parent's
   reap, within half a second. *)
let test_children_die_with_owner () =
  let r, w = Unix.pipe () in
  flush_all ();
  let owner =
    match Unix.fork () with
    | 0 ->
        Unix.close r;
        (try
           Supervise.Pool.run (Supervise.create ~jobs:1 ())
             ~f:(fun _ () ->
               let me = string_of_int (Unix.getpid ()) in
               ignore (Unix.write_substring w me 0 (String.length me));
               Unix.sleepf 5.0)
             ~on_settle:(fun _ _ _ -> ())
             [ () ]
         with _ -> ());
        Unix._exit 0
    | pid -> pid
  in
  Unix.close w;
  let buf = Bytes.create 32 in
  let n = Unix.read r buf 0 (Bytes.length buf) in
  Unix.close r;
  let item = int_of_string (Bytes.sub_string buf 0 n) in
  Unix.kill owner Sys.sigkill;
  ignore (Unix.waitpid [] owner);
  (* The state letter follows the parenthesized command name. *)
  let state () =
    match In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" item) In_channel.input_all with
    | exception Sys_error _ -> None
    | stat -> Some stat.[String.rindex stat ')' + 2]
  in
  let deadline = Unix.gettimeofday () +. 0.5 in
  let rec settled () =
    match state () with
    | None | Some 'Z' -> true
    | Some _ when Unix.gettimeofday () > deadline -> false
    | Some _ ->
        Unix.sleepf 0.01;
        settled ()
  in
  let gone = settled () in
  if not gone then (try Unix.kill item Sys.sigkill with Unix.Unix_error _ -> ());
  Alcotest.(check bool) "the killed owner's pool item died with it" true gone

let test_worker_respawns_after_kill () =
  in_child "worker-respawns-after-kill" (fun () ->
      let ctx = Supervise.create ~jobs:1 () in
      let p = small_problem () in
      let killed, warnings =
        with_warnings (fun () ->
            Supervise.solve_sdp ctx ~label:"killed" ~proc_fault:(fault Supervise.Fault.Kill 1 3) p)
      in
      Alcotest.(check bool) "crash surfaces as Numerical_failure" true
        (killed.Sdp.status = Sdp.Numerical_failure);
      Alcotest.(check bool) "crash reason unchanged" true
        (List.exists
           (fun m -> contains m "worker killed by SIGKILL (crash or OOM-kill)")
           warnings);
      let next = Supervise.solve_sdp ctx ~label:"next" p in
      Alcotest.(check bool) "next solve on the same ctx succeeds" true
        (next.Sdp.status = Sdp.Optimal);
      Alcotest.(check int) "a fresh worker was spawned" 2 (Supervise.stats ctx).Supervise.forked;
      Supervise.release ctx;
      Supervise.release ctx;
      Alcotest.(check bool) "release reaps, and is idempotent" true (no_children ()))

let test_worker_respawns_after_timeout () =
  in_child "worker-respawns-after-timeout" (fun () ->
      let ctx = Supervise.create ~jobs:1 ~solve_timeout_s:0.3 () in
      let p = small_problem () in
      let stalled =
        Supervise.solve_sdp ctx ~label:"stalled" ~proc_fault:(fault Supervise.Fault.Stall 1 1) p
      in
      Alcotest.(check bool) "timeout surfaces as Max_iterations" true
        (stalled.Sdp.status = Sdp.Max_iterations);
      Alcotest.(check int) "timeout counted" 1 (Supervise.stats ctx).Supervise.timeouts;
      let next = Supervise.solve_sdp ctx ~label:"next" p in
      Alcotest.(check bool) "next solve on the same ctx succeeds" true
        (next.Sdp.status = Sdp.Optimal);
      Supervise.release ctx;
      Alcotest.(check bool) "no child left" true (no_children ()))

let test_alarm_interrupts_stalled_solve () =
  in_child "alarm-interrupts-stalled-solve" (fun () ->
      let ctx = Supervise.create ~jobs:1 () in
      Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> Supervise.interrupt ctx));
      ignore
        (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = 0.2 });
      let t0 = Unix.gettimeofday () in
      (match
         Supervise.solve_sdp ctx ~label:"stalled"
           ~proc_fault:(fault Supervise.Fault.Stall 1 1)
           (small_problem ())
       with
      | _ -> Alcotest.fail "a stalled solve returned"
      | exception Supervise.Interrupted -> ());
      Alcotest.(check bool) "interrupted within 1 s of the alarm" true
        (Unix.gettimeofday () -. t0 < 1.2);
      Alcotest.(check bool) "no child left" true (no_children ()))

(* min <C, X> s.t. diag X = 1 over one [n]x[n] block, dense C. *)
let dense_problem n =
  let obj = ref [] in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      obj := entry 0 i j (cos (float_of_int ((i * n) + j))) :: !obj
    done
  done;
  {
    Sdp.block_dims = [| n |];
    n_free = 0;
    constraints =
      Array.init n (fun i -> { Sdp.lhs = [ entry 0 i i 1.0 ]; free = []; rhs = 1.0 });
    obj_blocks = List.rev !obj;
    obj_free = [];
  }

let test_large_request_intact () =
  let p = dense_problem 100 in
  Alcotest.(check bool) "request exceeds a pipe buffer" true
    (String.length (Marshal.to_string p []) > 65536);
  let ctx = Supervise.create ~jobs:1 () in
  let sol = Supervise.solve_sdp ctx ~label:"large" p in
  Supervise.release ctx;
  let inline = Sdp.solve p in
  Alcotest.(check bool) "status" true (sol.Sdp.status = inline.Sdp.status);
  Alcotest.(check (float 0.0)) "objective bit-identical to an inline solve"
    inline.Sdp.primal_obj sol.Sdp.primal_obj;
  Alcotest.(check bool) "iterate bit-identical" true
    (Marshal.to_string sol.Sdp.x_blocks [] = Marshal.to_string inline.Sdp.x_blocks [])

let test_pool_large_results_intact () =
  let ctx = Supervise.create ~jobs:2 () in
  let mib = 1 lsl 20 in
  let results =
    Supervise.Pool.map ctx
      ~f:(fun _ i -> String.make (mib + i) (Char.chr (Char.code 'a' + i)))
      [ 0; 1; 2; 3 ]
  in
  List.iteri
    (fun i r ->
      match r with
      | Ok s ->
          Alcotest.(check bool) (Printf.sprintf "result %d intact" i) true
            (s = String.make (mib + i) (Char.chr (Char.code 'a' + i)))
      | Error e -> Alcotest.fail e)
    results

let test_legacy_tmp_swept () =
  let fresh = tmp_dir () in
  let ctx = Supervise.create ~run_dir:fresh ~jobs:1 () in
  ignore (Supervise.solve_sdp ctx ~label:"fresh" (small_problem ()));
  Supervise.release ctx;
  Alcotest.(check int) "the solve ran in the worker" 1 (Supervise.stats ctx).Supervise.forked;
  Alcotest.(check bool) "a supervised solve creates no tmp/" false
    (Sys.file_exists (Filename.concat fresh "tmp"))

(* ---- one-answer children ---- *)

(* [Some answer] once the child's pipe turns readable within [within_s]. *)
let collect_within within_s c =
  match Unix.select [ Supervise.Child.fd c ] [] [] within_s with
  | [], _, _ -> None
  | _ -> Some (Supervise.Child.collect c)

let test_child_large_answer_intact () =
  let answer = String.init ((1 lsl 20) + 7) (fun i -> Char.chr (i land 0xff)) in
  let c = Supervise.Child.spawn (fun () -> answer) in
  match collect_within 30.0 c with
  | Some (Ok s) -> Alcotest.(check bool) "a 1 MiB answer arrives intact" true (s = answer)
  | Some (Error e) -> Alcotest.fail e
  | None -> Alcotest.fail "no answer within 30 s"

let test_child_exception_collected () =
  let c = Supervise.Child.spawn (fun () -> if true then failwith "boom in child" else 0) in
  match collect_within 30.0 c with
  | Some (Error e) ->
      Alcotest.(check bool) "the exception text comes back" true (contains e "boom in child")
  | Some (Ok _) -> Alcotest.fail "a raising body answered Ok"
  | None -> Alcotest.fail "no answer within 30 s"

(* A child that dies while a pool item it forked still sleeps: the
   grandchild does not hold the child's answer pipe, so the death is end
   of file at once. *)
let test_child_death_seen_at_once () =
  let pid_r, pid_w = Unix.pipe () in
  let c =
    Supervise.Child.spawn (fun () ->
        let ctx = Supervise.create ~jobs:1 () in
        Supervise.Pool.map ctx
          ~f:(fun _ () ->
            let me = Printf.sprintf "%d\n" (Unix.getpid ()) in
            ignore (Unix.write_substring pid_w me 0 (String.length me));
            Unix.sleepf 30.0)
          [ () ])
  in
  Unix.close pid_w;
  let grandchild =
    match Unix.select [ pid_r ] [] [] 30.0 with
    | [], _, _ -> Alcotest.fail "the pool item never started"
    | _ ->
        let b = Bytes.create 32 in
        let n = Unix.read pid_r b 0 32 in
        int_of_string (String.trim (Bytes.sub_string b 0 n))
  in
  Unix.close pid_r;
  Unix.kill (Supervise.Child.pid c) Sys.sigkill;
  let t0 = Unix.gettimeofday () in
  let answer = collect_within 2.0 c in
  (try Unix.kill grandchild Sys.sigkill with Unix.Unix_error _ -> ());
  match answer with
  | None -> Alcotest.fail "the killed child's death was not seen within 2 s"
  | Some (Ok _) -> Alcotest.fail "a killed child answered Ok"
  | Some (Error e) ->
      Alcotest.(check bool) "collected as Error within 2 s" true
        (Unix.gettimeofday () -. t0 < 2.0);
      Alcotest.(check bool) "the reason names the kill" true (contains e "SIGKILL")

(* ---- pool ---- *)

let test_pool_map_order_and_errors () =
  let ctx = Supervise.create ~jobs:4 () in
  let items = [ 1; 2; 3; 4; 5; 6 ] in
  let f _ x = if x = 4 then failwith "boom" else x * x in
  let results = Supervise.Pool.map ctx ~f items in
  Alcotest.(check int) "one result per item" (List.length items) (List.length results);
  List.iteri
    (fun i r ->
      let x = List.nth items i in
      match r with
      | Ok y -> Alcotest.(check int) (Printf.sprintf "item %d in order" x) (x * x) y
      | Error e ->
          Alcotest.(check int) "only the raising item errors" 4 x;
          Alcotest.(check bool) "worker exception captured" true
            (String.length e > 0))
    results

let test_pool_jobs_equivalence () =
  let run jobs =
    let ctx = Supervise.create ~jobs () in
    Supervise.Pool.map ctx ~f:(fun i x -> (i * 1000) + (x * x)) [ 3; 1; 4; 1; 5 ]
  in
  let unpack = List.map (function Ok v -> v | Error e -> Alcotest.fail e) in
  Alcotest.(check (list int)) "-j1 and -j4 produce identical results"
    (unpack (run 1)) (unpack (run 4))

let test_interrupt_raises () =
  let ctx = Supervise.create ~jobs:2 () in
  Supervise.interrupt ctx;
  (try
     ignore (Supervise.solve_sdp ctx ~label:"late" (small_problem ()));
     Alcotest.fail "interrupted context still solved"
   with Supervise.Interrupted -> ());
  try
    ignore (Supervise.Pool.map ctx ~f:(fun _ x -> x) [ 1 ]);
    Alcotest.fail "interrupted context still pooled"
  with Supervise.Interrupted -> ()

(* ---- the one scheduler ---- *)

(* Settle [pool] until it runs nothing or [within_s] passes; the
   outcomes with the seconds at which each was reported. *)
let settle_all ?(within_s = 20.0) pool =
  let t0 = Unix.gettimeofday () in
  let got = ref [] in
  while Supervise.Pool.running pool > 0 && Unix.gettimeofday () -. t0 < within_s do
    List.iter
      (fun (k, o) -> got := (k, o, Unix.gettimeofday () -. t0) :: !got)
      (Supervise.Pool.settle ~wait_s:0.05 pool)
  done;
  Supervise.Pool.shutdown pool;
  !got

let test_pool_deadline_kills () =
  let pool = Supervise.Pool.create ~cap:1 () in
  ignore (Supervise.Pool.submit pool ~key:"sleeper" ~deadline_s:0.5 (fun () -> Unix.sleepf 30.0));
  match settle_all pool with
  | [ ("sleeper", Supervise.Pool.Timed_out, t) ] ->
      Alcotest.(check bool) (Printf.sprintf "reported at %.2f s, within deadline + 2 s" t) true
        (t < 2.5)
  | _ -> Alcotest.fail "the sleeper was not reported timed out, alone"

let test_pool_lease () =
  let pool = Supervise.Pool.create ~ttl_s:1.0 ~beat_s:0.1 ~cap:2 () in
  ignore (Supervise.Pool.submit pool ~key:"silent" (fun () -> Unix.sleepf 30.0; 0));
  (* Every supervised solve beats at entry. *)
  ignore
    (Supervise.Pool.submit pool ~key:"beating" (fun () ->
         let ctx = Supervise.create ~isolate:false ~jobs:1 () in
         let t0 = Unix.gettimeofday () in
         while Unix.gettimeofday () -. t0 < 3.0 do
           ignore (Supervise.solve_sdp ctx ~label:"beat" (small_problem ()));
           Unix.sleepf 0.2
         done;
         42));
  let got = settle_all pool in
  (match List.find_opt (fun (k, _, _) -> k = "silent") got with
  | Some (_, Supervise.Pool.Lease_expired why, t) ->
      Alcotest.(check bool) "the silent item was SIGKILLed" true (contains why "SIGKILL");
      Alcotest.(check bool) (Printf.sprintf "reclaimed at %.2f s, within TTL + 2 s" t) true
        (t < 3.0)
  | _ -> Alcotest.fail "the silent item's lease did not expire");
  match List.find_opt (fun (k, _, _) -> k = "beating") got with
  | Some (_, Supervise.Pool.Answered 42, _) -> ()
  | _ -> Alcotest.fail "the beating item did not answer"

(* Items start as others finish; their bodies never overlap more than
   the cap, and a full pool refuses a submit. *)
let test_pool_cap_holds () =
  let ctx = Supervise.create ~jobs:2 () in
  let spans = ref [] in
  Supervise.Pool.run ctx
    ~f:(fun _ d ->
      let t0 = Unix.gettimeofday () in
      Unix.sleepf d;
      (t0, Unix.gettimeofday ()))
    ~on_settle:(fun _ _ -> function
      | Supervise.Pool.Answered span -> spans := span :: !spans
      | _ -> Alcotest.fail "an item did not answer")
    [ 0.3; 0.1; 0.2; 0.1; 0.3; 0.1 ];
  Alcotest.(check int) "every item answered" 6 (List.length !spans);
  let overlap t = List.length (List.filter (fun (a, b) -> a <= t && t < b) !spans) in
  let peak = List.fold_left (fun m (a, _) -> max m (overlap a)) 0 !spans in
  Alcotest.(check int) "two items at once, never more" 2 peak;
  let pool = Supervise.Pool.create ~cap:1 () in
  ignore (Supervise.Pool.submit pool ~key:1 (fun () -> Unix.sleepf 30.0));
  (match Supervise.Pool.submit pool ~key:2 (fun () -> ()) with
  | _ -> Alcotest.fail "a full pool forked past its cap"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "one item running" 1 (Supervise.Pool.running pool);
  Supervise.Pool.shutdown pool;
  Alcotest.(check int) "shutdown collects it" 0 (Supervise.Pool.running pool)

(* Advisory run-dir lock: fresh acquire, reentrancy, takeover from a
   holder that left without releasing, and the structured refusal while
   another process holds it. Holders are real processes. *)

let lock_tmpdir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "supervise-lock-%d-%.0f" (Unix.getpid ())
         (Unix.gettimeofday () *. 1e6))
  in
  Unix.mkdir d 0o755;
  d

let write_pidfile dir pid =
  let oc = open_out (Supervise.Lock.path dir) in
  output_string oc (string_of_int pid);
  close_out oc

(* A forked process that takes the lock and holds it until [finish],
   then exits without releasing it. *)
let lock_holder dir =
  let ready_r, ready_w = Unix.pipe () and stop_r, stop_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close ready_r;
      Unix.close stop_w;
      let took = Result.is_ok (Supervise.Lock.acquire ~dir ()) in
      ignore (Unix.write_substring ready_w (if took then "y" else "n") 0 1);
      ignore (Unix.read stop_r (Bytes.create 1) 0 1);
      Unix._exit 0
  | pid ->
      Unix.close ready_w;
      Unix.close stop_r;
      let b = Bytes.create 1 in
      let took = Unix.read ready_r b 0 1 = 1 && Bytes.get b 0 = 'y' in
      Unix.close ready_r;
      let finish () =
        Unix.close stop_w;
        ignore (Unix.waitpid [] pid)
      in
      if not took then begin
        finish ();
        Alcotest.fail "the holder process could not take the lock"
      end;
      (pid, finish)

let test_lock_acquire_and_reenter () =
  let dir = lock_tmpdir () in
  (match Supervise.Lock.acquire ~dir () with
  | Ok Supervise.Lock.Acquired -> ()
  | _ -> Alcotest.fail "fresh acquire");
  Alcotest.(check (option int)) "holder recorded" (Some (Unix.getpid ()))
    (Supervise.Lock.holder ~dir);
  (match Supervise.Lock.acquire ~dir () with
  | Ok Supervise.Lock.Reentrant -> ()
  | _ -> Alcotest.fail "same process re-acquires");
  Supervise.Lock.release ~dir;
  Alcotest.(check (option int)) "released" None (Supervise.Lock.holder ~dir);
  (* Released means free for another process. *)
  let _, finish = lock_holder dir in
  finish ()

let test_lock_steals_stale () =
  let dir = lock_tmpdir () in
  let pid, finish = lock_holder dir in
  finish ();
  (match Supervise.Lock.acquire ~dir () with
  | Ok (Supervise.Lock.Stolen_stale p) -> Alcotest.(check int) "the exited holder's pid" pid p
  | _ -> Alcotest.fail "a lock its holder left behind must be taken over");
  Supervise.Lock.release ~dir

(* A pidfile naming a live process that holds no lock (init) is taken
   over: the kernel lock, not the pid, is the claim. *)
let test_lock_takes_over_lockless_pid () =
  let dir = lock_tmpdir () in
  write_pidfile dir 1;
  (match Supervise.Lock.acquire ~dir () with
  | Ok (Supervise.Lock.Stolen_stale 1) -> ()
  | Ok _ -> Alcotest.fail "expected a takeover from pid 1"
  | Error diag -> Alcotest.fail ("refused: " ^ diag));
  Supervise.Lock.release ~dir

(* Two contenders racing for a lock its holder left behind: exactly one
   wins, the other gets the structured run-dir-locked refusal, the
   pidfile names the winner, and once both have exited a third
   contender takes the winner's lock over. *)
let test_lock_stale_steal_contention () =
  let dir = lock_tmpdir () in
  (* A holder that left long ago: a child that has exited and been
     reaped. *)
  let dead =
    match Unix.fork () with
    | 0 -> Unix._exit 0
    | pid ->
        ignore (Unix.waitpid [] pid);
        pid
  in
  write_pidfile dir dead;
  let go_r, go_w = Unix.pipe () in
  let out_r, out_w = Unix.pipe () in
  let stop_r, stop_w = Unix.pipe () in
  let contender () =
    match Unix.fork () with
    | 0 ->
        Unix.close go_w;
        Unix.close out_r;
        Unix.close stop_w;
        (* Block until the parent fires the start gun, so both
           contenders reach the lock as close together as fork
           allows. *)
        ignore (Unix.read go_r (Bytes.create 1) 0 1);
        let outcome =
          match Supervise.Lock.acquire ~dir () with
          | Ok _ -> "0" (* winner *)
          | Error diag when contains diag "run-dir-locked" -> "1" (* loser *)
          | Error _ -> "2"
        in
        ignore (Unix.write_substring out_w outcome 0 1);
        (* The winner holds on until both have answered. *)
        ignore (Unix.read stop_r (Bytes.create 1) 0 1);
        Unix._exit 0
    | pid -> pid
  in
  let a = contender () in
  let b = contender () in
  List.iter Unix.close [ go_r; out_w; stop_r ];
  ignore (Unix.write_substring go_w "go" 0 2);
  Unix.close go_w;
  let buf = Bytes.create 2 in
  let rec read_outcomes off =
    if off < 2 then
      match Unix.read out_r buf off (2 - off) with 0 -> off | n -> read_outcomes (off + n)
    else off
  in
  let got = read_outcomes 0 in
  Unix.close out_r;
  let outcomes = List.sort compare (List.of_seq (String.to_seq (Bytes.sub_string buf 0 got))) in
  let winner = Supervise.Lock.holder ~dir in
  Unix.close stop_w;
  ignore (Unix.waitpid [] a);
  ignore (Unix.waitpid [] b);
  Alcotest.(check (list char)) "exactly one winner, one structured refusal" [ '0'; '1' ] outcomes;
  (match winner with
  | Some pid -> Alcotest.(check bool) "holder is a contender" true (pid = a || pid = b)
  | None -> Alcotest.fail "no holder after a takeover");
  (match Supervise.Lock.acquire ~dir () with
  | Ok (Supervise.Lock.Stolen_stale pid) ->
      Alcotest.(check (option int)) "third contender takes the winner's lock over" winner
        (Some pid)
  | Ok _ -> Alcotest.fail "expected a takeover, not a fresh acquire"
  | Error diag -> Alcotest.fail ("third contender refused: " ^ diag));
  Supervise.Lock.release ~dir

let test_lock_refuses_live_holder () =
  let dir = lock_tmpdir () in
  let pid, finish = lock_holder dir in
  let refused = Supervise.Lock.acquire ~dir () in
  finish ();
  match refused with
  | Ok _ -> Alcotest.fail "a held lock must refuse"
  | Error diag ->
      Alcotest.(check bool) "structured diagnosis" true
        (contains diag "run-dir-locked"
        && contains diag (Printf.sprintf "\"holder_pid\":%d" pid))

(* The refusal is JSON even when the run directory's name needs
   escaping. *)
let test_lock_diagnosis_escapes_dir () =
  let dir = Filename.concat (lock_tmpdir ()) "a\"b\\c" in
  Unix.mkdir dir 0o755;
  let _, finish = lock_holder dir in
  let refused = Supervise.Lock.acquire ~dir () in
  finish ();
  match refused with
  | Ok _ -> Alcotest.fail "a held lock must refuse"
  | Error diag -> (
      match Service.Json.parse diag with
      | Ok j ->
          Alcotest.(check (option string)) "dir survives the round trip" (Some dir)
            (Service.Json.mem_str "dir" j)
      | Error e -> Alcotest.failf "diagnosis is not JSON (%s): %s" e diag)

(* Config fingerprint guard: first use records, match passes, drift is a
   structured refusal. *)

let test_config_guard () =
  let dir = lock_tmpdir () in
  (match Supervise.Config_guard.check ~run_dir:dir ~fingerprint:"cfg v1" ~summary:"s1" with
  | Ok Supervise.Config_guard.Fresh -> ()
  | _ -> Alcotest.fail "first check records");
  (match Supervise.Config_guard.check ~run_dir:dir ~fingerprint:"cfg v1" ~summary:"s1" with
  | Ok Supervise.Config_guard.Matched -> ()
  | _ -> Alcotest.fail "same config matches");
  match Supervise.Config_guard.check ~run_dir:dir ~fingerprint:"cfg v2" ~summary:"s2" with
  | Error diag ->
      Alcotest.(check bool) "drift diagnosis" true
        (contains diag "config-drift" && contains diag "s1" && contains diag "s2")
  | Ok _ -> Alcotest.fail "drifted config must refuse"

(* The run-directory front door: a ledger that records work is
   continued only with --resume (one JSON refusal naming the ledger),
   --resume on a fresh directory starts a run, and the fingerprint is
   checked before the decision. *)

let test_open_run_resume () =
  let dir = lock_tmpdir () in
  let held = ref 0 in
  let ledger = { Supervise.name = "toy"; entries = (fun _ -> !held) } in
  let open_ ?resume ?(fingerprint = "cfg v1") () =
    let run_dir = if resume = None then Some dir else None in
    Result.map ignore (Supervise.open_run ?run_dir ?resume ~ledger ~fingerprint ())
  in
  Alcotest.(check int) "fresh journal holds no solves" 0 (Supervise.journal.Supervise.entries dir);
  Alcotest.(check bool) "--resume on a fresh dir starts a run" true
    (open_ ~resume:dir () = Ok ());
  Alcotest.(check bool) "a fresh dir opens without --resume" true (open_ () = Ok ());
  held := 3;
  (match open_ () with
  | Ok () -> Alcotest.fail "a populated dir without --resume must refuse"
  | Error diag -> (
      match Service.Json.parse diag with
      | Ok j ->
          Alcotest.(check (option string)) "refusal kind" (Some "toy-not-resumed")
            (Service.Json.mem_str "error" j)
      | Error e -> Alcotest.failf "refusal is not JSON (%s): %s" e diag));
  Alcotest.(check bool) "--resume continues it" true (open_ ~resume:dir () = Ok ());
  (match open_ ~resume:dir ~fingerprint:"cfg v2" () with
  | Error diag -> Alcotest.(check bool) "drift refused" true (contains diag "config-drift")
  | Ok () -> Alcotest.fail "a drifted resume must refuse");
  Supervise.Lock.release ~dir

(* ---- one solve path: forked and inline work count alike ---- *)

(* A fan-out item's diagnoses, solves and attempts reach the parent
   policy whether the item ran in a forked child or inline; a forked
   item's cache stores and journal lines reach its parent's context. *)
let test_fan_out_journal () =
  let dir = tmp_dir () in
  let forked = Supervise.create ~run_dir:dir ~jobs:2 () in
  List.iter
    (fun (what, ctx) ->
      let policy = Resilient.make ~supervise:ctx () in
      let results =
        Resilient.fan_out policy
          ~f:(fun i rhs ->
            let sol, _ =
              Resilient.solve_sdp policy ~label:(Printf.sprintf "item-%d" i)
                (small_problem ~rhs ())
            in
            sol.Sdp.status = Sdp.Optimal)
          [ 1.0; 2.0 ]
      in
      Alcotest.(check bool) (what ^ ": both items solved") true (results = [ Ok true; Ok true ]);
      Alcotest.(check (list string))
        (what ^ ": the items' diagnoses are journaled, in item order")
        [ "item-0"; "item-1" ]
        (List.map (fun (d : Resilient.diagnosis) -> d.Resilient.label) (Resilient.journal policy));
      let b = Resilient.consumed policy in
      Alcotest.(check (pair int int)) (what ^ ": solves and attempts") (2, 2)
        (b.Resilient.solves, b.Resilient.attempts);
      Supervise.release ctx)
    [ ("forked", forked); ("inline", Supervise.in_process ()) ];
  Alcotest.(check int) "the forked items' cache stores are counted" 2
    (Supervise.stats forked).Supervise.cache_stores;
  Alcotest.(check (list string)) "the forked items' solves are journaled" [ "item-0"; "item-1" ]
    (List.sort compare
       (List.map (fun (e : Supervise.Journal.entry) -> e.label) (fst (Supervise.Journal.read dir))));
  (* Each item wrote its own fsync'd [start] line before it solved. *)
  let started =
    Substrate.Fs.read_file (Supervise.Journal.path dir)
    |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' l with
           | [ "start"; _; _; label ] -> Some label
           | _ -> None)
  in
  Alcotest.(check (list string)) "the forked items' solves have start lines"
    [ "item-0"; "item-1" ] (List.sort compare started);
  let ctx = Supervise.create ~jobs:2 () in
  ignore (Resilient.fan_out (Resilient.make ~supervise:ctx ()) ~f:(fun _ x -> x) [ 1; 2 ]);
  Alcotest.(check int) "the forked fan-out did fork" 2 (Supervise.stats ctx).Supervise.pool_tasks

(* The nominal third-order Full verdict at degree 4 with one advection
   iteration fans its escape searches out: the count of its work must not
   depend on whether they ran in forked children or inline. *)
let test_solve_counts_agree () =
  let spec =
    {
      (Service.Job.default_spec Pll.Third) with
      Service.Job.property = Service.Job.Full;
      degree = 4;
      advect_iters = 1;
    }
  in
  let count ctx =
    let o = Service.Job.run ~policy:(Resilient.make ?supervise:ctx ()) spec in
    (Service.Job.verdict_to_string o.Service.Job.verdict, o.Service.Job.solves, o.Service.Job.attempts)
  in
  let supervised = count (Some (Supervise.create ~jobs:2 ())) in
  let unisolated = count (Some (Supervise.create ~jobs:2 ~isolate:false ())) in
  let in_pool =
    let ctx = Supervise.create ~jobs:2 () in
    match Supervise.Pool.map ctx ~f:(fun _ () -> count (Some ctx)) [ () ] with
    | [ Ok c ] -> c
    | _ -> Alcotest.fail "the pool child did not answer"
  in
  let unsupervised = count None in
  let show (v, s, a) = Printf.sprintf "%s, %d solves, %d attempts" v s a in
  Alcotest.(check string) "verified under supervision" "verified"
    (let v, _, _ = supervised in v);
  List.iter
    (fun (what, c) -> Alcotest.(check string) what (show supervised) (show c))
    [ ("~isolate:false", unisolated); ("inside a pool child", in_pool); ("no supervisor", unsupervised) ]

let suite =
  [
    Alcotest.test_case "fingerprint-stable" `Quick test_fingerprint_stable;
    Alcotest.test_case "open-run-resume" `Quick test_open_run_resume;
    Alcotest.test_case "lock-acquire-reenter" `Quick test_lock_acquire_and_reenter;
    Alcotest.test_case "lock-steals-stale" `Quick test_lock_steals_stale;
    Alcotest.test_case "lock-stale-steal-contention" `Quick test_lock_stale_steal_contention;
    Alcotest.test_case "cache-gc-lru" `Quick test_cache_gc_lru;
    Alcotest.test_case "lock-refuses-live-holder" `Quick test_lock_refuses_live_holder;
    Alcotest.test_case "lock-diagnosis-escapes-dir" `Quick test_lock_diagnosis_escapes_dir;
    Alcotest.test_case "lock-takes-over-lockless-pid" `Quick test_lock_takes_over_lockless_pid;
    Alcotest.test_case "config-guard" `Quick test_config_guard;
    Alcotest.test_case "fingerprint-ignores-hooks" `Quick test_fingerprint_ignores_hooks;
    Alcotest.test_case "cache-roundtrip" `Quick test_cache_roundtrip;
    Alcotest.test_case "cache-missing" `Quick test_cache_missing;
    Alcotest.test_case "cache-truncation-diagnosed" `Quick test_cache_truncation_diagnosed;
    Alcotest.test_case "cache-digest-mismatch" `Quick test_cache_digest_mismatch;
    Alcotest.test_case "journal-tolerant-read" `Quick test_journal_tolerant_read;
    Alcotest.test_case "journal-missing" `Quick test_journal_missing;
    Alcotest.test_case "fault-parse" `Quick test_fault_parse;
    Alcotest.test_case "mixed-plan-parse" `Quick test_mixed_plan_parse;
    Alcotest.test_case "fault-for-solve" `Quick test_fault_for_solve;
    Alcotest.test_case "wall-clock-deadline" `Quick test_wall_clock_deadline;
    Alcotest.test_case "inline-solve-and-cache" `Quick test_inline_solve_and_cache;
    Alcotest.test_case "forked-solve" `Quick test_forked_solve;
    Alcotest.test_case "worker-kill-synthetic-failure" `Quick test_worker_kill_is_synthetic_failure;
    Alcotest.test_case "worker-timeout-reaped" `Quick test_worker_timeout_reaped;
    Alcotest.test_case "pool-order-and-errors" `Quick test_pool_map_order_and_errors;
    Alcotest.test_case "pool-jobs-equivalence" `Quick test_pool_jobs_equivalence;
    Alcotest.test_case "interrupt-raises" `Quick test_interrupt_raises;
    Alcotest.test_case "job-leaves-no-children" `Quick test_job_leaves_no_children;
    Alcotest.test_case "children-die-with-owner" `Quick test_children_die_with_owner;
    Alcotest.test_case "worker-respawns-after-kill" `Quick test_worker_respawns_after_kill;
    Alcotest.test_case "worker-respawns-after-timeout" `Quick
      test_worker_respawns_after_timeout;
    Alcotest.test_case "alarm-interrupts-stalled-solve" `Quick
      test_alarm_interrupts_stalled_solve;
    Alcotest.test_case "large-request-intact" `Quick test_large_request_intact;
    Alcotest.test_case "pool-large-results-intact" `Quick test_pool_large_results_intact;
    Alcotest.test_case "legacy-tmp-swept" `Quick test_legacy_tmp_swept;
    Alcotest.test_case "child-large-answer-intact" `Quick test_child_large_answer_intact;
    Alcotest.test_case "child-exception-collected" `Quick test_child_exception_collected;
    Alcotest.test_case "child-death-seen-at-once" `Quick test_child_death_seen_at_once;
    Alcotest.test_case "pool-deadline-kills" `Quick test_pool_deadline_kills;
    Alcotest.test_case "pool-lease" `Quick test_pool_lease;
    Alcotest.test_case "pool-cap-holds" `Quick test_pool_cap_holds;
    Alcotest.test_case "fan-out-journal" `Quick test_fan_out_journal;
    Alcotest.test_case "solve-counts-agree" `Slow test_solve_counts_agree;
  ]
