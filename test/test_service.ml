(* Tests for the verification service layer: the minimal JSON codec,
   canonical job lines and fingerprints, the crash-safe queue ledger's
   replay/compaction, the clock-injected circuit breaker, and the one
   certification pipeline behind point jobs and sweep cells. *)

let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "pll-test-service-%d-%d" (Unix.getpid ()) !n)
    in
    Unix.mkdir d 0o755;
    d

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---- json ---- *)

let test_json_roundtrip () =
  let v =
    Service.Json.(
      Obj
        [
          ("s", Str "he\"llo\nworld\t\\");
          ("n", Num 0.5);
          ("i", Num 125.0);
          ("big", Num 1.2345678901234e-17);
          ("b", Bool true);
          ("z", Null);
          ("a", Arr [ Num 1.0; Str ""; Obj [] ]);
        ])
  in
  let s = Service.Json.to_string v in
  (match Service.Json.parse s with
  | Error e -> Alcotest.fail e
  | Ok v' ->
      Alcotest.(check bool) "parse inverts print" true (v = v');
      (* Determinism: print ∘ parse is the identity on printed bytes,
         which is what lets the daemon re-embed stored result JSON. *)
      Alcotest.(check string) "print/parse/print is byte-stable" s
        (Service.Json.to_string v'));
  Alcotest.(check bool) "integers print bare" true (contains s "\"i\":125")

let test_json_escapes () =
  match Service.Json.parse "{\"k\":\"a\\u0041\\n\\\"\\\\b\"}" with
  | Ok (Service.Json.Obj [ ("k", Service.Json.Str s) ]) ->
      Alcotest.(check string) "escape sequences decode" "aA\n\"\\b" s
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.fail e

let test_json_malformed () =
  let bad s =
    match Service.Json.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" s)
  in
  bad "";
  bad "{";
  bad "{\"a\":}";
  bad "\"unterminated";
  bad "[1,]";
  bad "{\"a\":1} trailing";
  bad "nul"

(* ---- job lines and fingerprints ---- *)

let spec_with_point () =
  {
    (Service.Job.default_spec Pll.Third) with
    Service.Job.degree = 4;
    robust = true;
    (* Already in canonical (axis-declaration) order so the parsed
       line compares structurally equal. *)
    point = [ (Pll.Ip, 1.05); (Pll.Kv, 0.9) ];
    bisect_steps = 3;
    psd_tol = Some 1e-6;
    deadline_s = Some 12.5;
  }

let test_job_line_roundtrip () =
  let spec = spec_with_point () in
  (match Service.Job.of_line (Service.Job.to_line spec) with
  | Error e -> Alcotest.fail e
  | Ok spec' ->
      Alcotest.(check bool) "round-trips (deadline excluded)" true
        (spec' = { spec with Service.Job.deadline_s = None }));
  match Service.Job.of_line (Service.Job.to_line ~with_deadline:true spec) with
  | Error e -> Alcotest.fail e
  | Ok spec' ->
      Alcotest.(check bool) "deadline variant round-trips exactly" true (spec' = spec)

let test_fingerprint_deadline_independent () =
  let spec = spec_with_point () in
  let spec' = { spec with Service.Job.deadline_s = Some 99.0 } in
  Alcotest.(check string) "deadline does not change the job identity"
    (Service.Job.fingerprint spec)
    (Service.Job.fingerprint spec');
  let other = { spec with Service.Job.degree = 6 } in
  Alcotest.(check bool) "problem fields do" true
    (Service.Job.fingerprint spec <> Service.Job.fingerprint other)

let test_fingerprint_point_order_canonical () =
  let a = { (Service.Job.default_spec Pll.Third) with
            Service.Job.point = [ (Pll.Ip, 1.05); (Pll.Kv, 0.9) ] } in
  let b = { a with Service.Job.point = [ (Pll.Kv, 0.9); (Pll.Ip, 1.05) ] } in
  Alcotest.(check string) "axis listing order is canonicalized away"
    (Service.Job.fingerprint a) (Service.Job.fingerprint b)

let test_point_parse () =
  (match Service.Job.point_of_string "ip=1.05,kv=0.9" with
  | Ok [ (Pll.Ip, 1.05); (Pll.Kv, 0.9) ] -> ()
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error e -> Alcotest.fail e);
  (match Service.Job.point_of_string "" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "empty point is nominal");
  (match Service.Job.point_of_string "ip:1.05" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing = accepted");
  match Service.Job.point_of_string "bogus=1.0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown axis accepted"

let test_validate_refuses () =
  let d = Service.Job.default_spec Pll.Third in
  let bad spec what =
    match Service.Job.validate spec with
    | Error _ -> ()
    | Ok () -> Alcotest.fail (what ^ " accepted")
  in
  bad { d with Service.Job.degree = 0 } "degree 0";
  bad { d with Service.Job.deadline_s = Some 0.0 } "zero deadline";
  bad { d with Service.Job.point = [ (Pll.Ip, -1.0) ] } "negative factor";
  bad
    { d with Service.Job.point = [ (Pll.Ip, 1.0); (Pll.Ip, 2.0) ] }
    "duplicate axis"

let test_spec_json_roundtrip () =
  let spec = spec_with_point () in
  match Service.Job.spec_of_json (Service.Job.spec_to_json spec) with
  | Error e -> Alcotest.fail e
  | Ok spec' ->
      Alcotest.(check bool) "wire encoding round-trips" true
        (spec' = { spec with Service.Job.point = Service.Job.(
             match point_of_string (point_to_string spec.point) with
             | Ok p -> p
             | Error _ -> [] ) });
      Alcotest.(check string) "same fingerprint across the wire"
        (Service.Job.fingerprint spec)
        (Service.Job.fingerprint spec')

let test_result_json_roundtrip () =
  let r =
    {
      Service.Job.verdict = Service.Job.Not_established;
      beta = 0.0;
      kind = "infeasible";
      detail = "conclusively infeasible at P1";
      solves = 7;
      attempts = 2;
      attempt_s = 1.5;
      deadline_hit = false;
    }
  in
  let s = Service.Job.result_json r in
  match Service.Json.parse s with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      match Service.Job.result_of_json j with
      | Error e -> Alcotest.fail e
      | Ok r' ->
          Alcotest.(check bool) "stable core survives" true
            (r'.Service.Job.verdict = r.Service.Job.verdict
            && r'.Service.Job.kind = r.Service.Job.kind
            && r'.Service.Job.detail = r.Service.Job.detail);
          Alcotest.(check int) "counters are not part of the stable core" 0
            r'.Service.Job.solves)

(* ---- queue ledger ---- *)

let open_q dir =
  match Service.Jobqueue.open_ ~dir with
  | Ok v -> v
  | Error e -> Alcotest.fail e

let test_queue_replay_and_compaction () =
  let dir = tmp_dir () in
  let q, recovered, diags = open_q dir in
  Alcotest.(check int) "fresh queue is empty" 0 (List.length recovered);
  Alcotest.(check int) "no diagnoses" 0 (List.length diags);
  Alcotest.(check bool) "fresh ledger" false (Service.Jobqueue.had_entries q);
  let s1 = Service.Job.default_spec Pll.Third in
  let s2 = { s1 with Service.Job.degree = 4 } in
  let s3 = { s1 with Service.Job.degree = 5 } in
  let e1 = Service.Jobqueue.submit q (Service.Jobqueue.Point s1) in
  let e2 = Service.Jobqueue.submit q (Service.Jobqueue.Point s2) in
  let e3 = Service.Jobqueue.submit q (Service.Jobqueue.Point s3) in
  Alcotest.(check string) "sequential ids" "j1" e1.Service.Jobqueue.id;
  Alcotest.(check string) "sequential ids" "j3" e3.Service.Jobqueue.id;
  Service.Jobqueue.start q e1;
  Service.Jobqueue.finish q e1 Service.Job.Verified;
  Service.Jobqueue.start q e2;
  (* e2 running (daemon killed mid-job), e3 still pending. *)
  Service.Jobqueue.close q;
  let q2, recovered, diags = open_q dir in
  Alcotest.(check int) "replay is clean" 0 (List.length diags);
  Alcotest.(check bool) "previous entries noticed" true
    (Service.Jobqueue.had_entries q2);
  Alcotest.(check (list string)) "terminal job compacted, others recovered"
    [ "j2"; "j3" ]
    (List.map (fun e -> e.Service.Jobqueue.id) recovered);
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (e.Service.Jobqueue.id ^ " recovered as pending")
        true
        (e.Service.Jobqueue.state = Service.Jobqueue.Pending))
    recovered;
  Alcotest.(check string) "recovered spec survives"
    (Service.Job.fingerprint s2)
    (List.nth recovered 0).Service.Jobqueue.fp;
  let e4 = Service.Jobqueue.submit q2 (Service.Jobqueue.Point { s1 with Service.Job.degree = 7 }) in
  Alcotest.(check string) "seq high-water survives restart" "j4"
    e4.Service.Jobqueue.id;
  Service.Jobqueue.close q2

let test_queue_tolerates_garbage () =
  let dir = tmp_dir () in
  let q, _, _ = open_q dir in
  let e = Service.Jobqueue.submit q (Service.Jobqueue.Point (Service.Job.default_spec Pll.Third)) in
  ignore e;
  Service.Jobqueue.close q;
  (* Simulate a crash-truncated tail and stray corruption. *)
  let oc =
    open_out_gen [ Open_append ] 0o644 (Service.Jobqueue.path dir)
  in
  output_string oc "done j1\n";
  (* missing verdict *)
  output_string oc "gibberish\n";
  output_string oc "submit j9 cafe pll-job v1 order=thi";
  (* truncated, no \n *)
  close_out oc;
  let q2, recovered, diags = open_q dir in
  Alcotest.(check (list string)) "well-formed entry survives" [ "j1" ]
    (List.map (fun e -> e.Service.Jobqueue.id) recovered);
  Alcotest.(check bool) "malformed lines become diagnoses, not raises" true
    (List.length diags >= 2);
  Service.Jobqueue.close q2

let test_queue_cancel_is_terminal () =
  let dir = tmp_dir () in
  let q, _, _ = open_q dir in
  let e = Service.Jobqueue.submit q (Service.Jobqueue.Point (Service.Job.default_spec Pll.Third)) in
  Service.Jobqueue.cancel q e;
  Service.Jobqueue.close q;
  let q2, recovered, _ = open_q dir in
  Alcotest.(check int) "cancelled jobs are not recovered" 0
    (List.length recovered);
  Service.Jobqueue.close q2

(* ---- bulk cell lines, fingerprints and probes ---- *)

let sample_cell () =
  {
    Service.Bulk.order = Pll.Third;
    degree = 4;
    robust = false;
    full = false;
    exact = false;
    bisect_steps = 4;
    budget_s = Some 30.0;
    cell_id = "c1-0.1";
    depth = 1;
    box = [ (Pll.Ip, 0.9, 1.0); (Pll.Kv, 1.0, 1.1) ];
  }

let test_cell_line_roundtrip () =
  let c = sample_cell () in
  (match Service.Bulk.of_line (Service.Bulk.to_line c) with
  | Error e -> Alcotest.fail e
  | Ok c' -> Alcotest.(check bool) "round-trips exactly" true (c' = c));
  match Service.Bulk.of_line "pll-cell v2 nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown magic accepted"

let test_cell_fingerprint_identity_excluded () =
  let c = sample_cell () in
  (* Sweep identity and budget never change the content key: two grid
     positions with the same box share one cache entry. *)
  let moved = { c with Service.Bulk.cell_id = "c9-9"; depth = 0; budget_s = None } in
  Alcotest.(check string) "identity and budget excluded"
    (Service.Bulk.fingerprint c)
    (Service.Bulk.fingerprint moved);
  let other = { c with Service.Bulk.degree = 6 } in
  Alcotest.(check bool) "problem fields included" true
    (Service.Bulk.fingerprint c <> Service.Bulk.fingerprint other);
  let wider =
    { c with Service.Bulk.box = [ (Pll.Ip, 0.9, 1.05); (Pll.Kv, 1.0, 1.1) ] }
  in
  Alcotest.(check bool) "box included" true
    (Service.Bulk.fingerprint c <> Service.Bulk.fingerprint wider)

let test_probe_storable () =
  let storable p what expect =
    Alcotest.(check bool) what expect (Service.Bulk.probe_storable p)
  in
  let ok =
    { Service.Bulk.ok = true; beta = 0.5; kind = ""; detail = ""; journal = None;
      solves = 3; attempts = 1; attempt_s = 0.1 }
  in
  storable ok "certified cells are facts" true;
  let fail kind = Service.Bulk.probe_fail ~kind ~detail:"d" in
  storable (fail "infeasible") "conclusive refutation is a fact" true;
  storable (fail "level-collapse") "level collapse is a fact" true;
  storable (fail "not-established") "pipeline completion is a fact" true;
  storable (fail "crash") "crashes are never cached" false;
  storable (fail "budget-exhausted") "budget artifacts are never cached" false;
  storable (fail "injected") "injected faults are never cached" false;
  storable (fail "solver-failure") "transient solver failure is not cached" false

let test_probe_json_roundtrip () =
  let p =
    { Service.Bulk.ok = false; beta = 0.0; kind = "crash";
      detail = "cell worker crashed";
      journal = Some "{\"attempts\":[\"attempt 1: worker died by signal -9\"]}";
      solves = 0; attempts = 2; attempt_s = 0.25 }
  in
  match Service.Bulk.probe_of_json (Service.Bulk.probe_to_json p) with
  | Error e -> Alcotest.fail e
  | Ok p' ->
      Alcotest.(check bool) "probe round-trips (journal included)" true (p' = p)

let test_queue_cell_replay () =
  let dir = tmp_dir () in
  let q, _, _ = open_q dir in
  let c = sample_cell () in
  let e = Service.Jobqueue.submit q (Service.Jobqueue.Cell c) in
  Alcotest.(check string) "cell fingerprint keys the entry"
    (Service.Bulk.fingerprint c) e.Service.Jobqueue.fp;
  Service.Jobqueue.start q e;
  (* Daemon killed mid-cell: the replayed entry must still be a cell
     with its sweep identity intact. *)
  Service.Jobqueue.close q;
  let q2, recovered, diags = open_q dir in
  Alcotest.(check int) "clean replay" 0 (List.length diags);
  (match recovered with
  | [ { Service.Jobqueue.payload = Service.Jobqueue.Cell c'; _ } ] ->
      Alcotest.(check bool) "cell payload survives the ledger" true (c' = c)
  | [ { Service.Jobqueue.payload = Service.Jobqueue.Point _; _ } ] ->
      Alcotest.fail "cell replayed as a point job"
  | l -> Alcotest.failf "expected 1 recovered entry, got %d" (List.length l));
  Service.Jobqueue.close q2

(* ---- circuit breaker ---- *)

let test_breaker_state_machine () =
  let clock = ref 0.0 in
  let b = Service.Breaker.create ~threshold:2 ~cooldown_s:10.0 ~now:(fun () -> !clock) () in
  Alcotest.(check bool) "closed admits" true (Service.Breaker.allow b);
  Service.Breaker.failure b;
  Alcotest.(check bool) "below threshold stays closed" true
    (Service.Breaker.state b = Service.Breaker.Closed);
  Service.Breaker.success b;
  Service.Breaker.failure b;
  Alcotest.(check bool) "success resets the consecutive count" true
    (Service.Breaker.state b = Service.Breaker.Closed);
  Service.Breaker.failure b;
  Alcotest.(check bool) "threshold consecutive failures trip" true
    (Service.Breaker.state b = Service.Breaker.Open);
  Alcotest.(check int) "trip counted" 1 (Service.Breaker.trips b);
  Alcotest.(check bool) "open refuses" false (Service.Breaker.allow b);
  Alcotest.(check bool) "retry hint while open" true
    (Service.Breaker.retry_after_s b > 0.0);
  clock := 10.5;
  Alcotest.(check bool) "cooldown lapses to half-open" true
    (Service.Breaker.state b = Service.Breaker.Half_open);
  Alcotest.(check bool) "half-open admits one probe" true (Service.Breaker.allow b);
  Alcotest.(check bool) "only one probe" false (Service.Breaker.allow b);
  Service.Breaker.failure b;
  Alcotest.(check bool) "probe failure re-opens" true
    (Service.Breaker.state b = Service.Breaker.Open);
  clock := 21.0;
  Alcotest.(check bool) "second probe after second cooldown" true
    (Service.Breaker.allow b);
  Service.Breaker.success b;
  Alcotest.(check bool) "probe success closes" true
    (Service.Breaker.state b = Service.Breaker.Closed);
  Alcotest.(check (float 0.0)) "no retry hint when closed" 0.0
    (Service.Breaker.retry_after_s b)

(* ---- the shared certification pipeline ---- *)

(* A third-order degree-4 P1 problem at the nominal point. *)
let nominal_p1 () =
  { (Service.Job.default_spec Pll.Third) with Service.Job.degree = 4 }

(* [fail@*:1] fails the first attempt of every solve. The retry ladder
   rescues the certificate search, but the level checks are quiet
   single-attempt probes, so no level certifies while the journal stays
   clean: a level collapse (not established, exit 2), not a solver
   failure — the same rule sweep cells use. *)
let test_level_collapse () =
  let faults =
    match Resilient.Faults.of_string "fail@*:1" with
    | Ok f -> f
    | Error e -> Alcotest.fail e
  in
  let spec = nominal_p1 () in
  let r = Service.Job.run ~policy:(Service.Job.make_policy ~faults spec) spec in
  Alcotest.(check string) "verdict" "not-established"
    (Service.Job.verdict_to_string r.Service.Job.verdict);
  Alcotest.(check string) "kind" "level-collapse" r.Service.Job.kind;
  Alcotest.(check int) "exit code" 2 (Service.Job.exit_code r.Service.Job.verdict)

(* The daemon stores point outcomes by [Job.storable] and cell probes by
   [Bulk.probe_storable]; both must agree on every kind a cell can
   produce. Cells have no validation hook ([validation-failed]) and
   report bad input as [bad-cell], which is storable, where a point's
   [bad-point] is a failure. *)
let test_storability_table () =
  List.iter
    (fun (kind, verdict) ->
      if not (List.mem kind [ "validation-failed"; "bad-point" ]) then begin
        let o =
          {
            Service.Job.verdict;
            beta = 0.0;
            kind;
            detail = "d";
            solves = 0;
            attempts = 0;
            attempt_s = 0.0;
            deadline_hit = kind = "budget-exhausted";
          }
        in
        let p =
          {
            (Service.Bulk.probe_fail ~kind ~detail:"d") with
            Service.Bulk.ok = verdict = Service.Job.Verified;
          }
        in
        Alcotest.(check bool)
          (Printf.sprintf "kind %S stored alike" kind)
          (Service.Job.storable o) (Service.Bulk.probe_storable p)
      end)
    Service.Job.kinds;
  Alcotest.(check bool) "bad-cell is a fact" true
    (Service.Bulk.probe_storable (Service.Bulk.probe_fail ~kind:"bad-cell" ~detail:"d"))

(* lib/service certifies a cell on its own, with the beta the atlas
   reports for the same cell. *)
let test_cell_certification () =
  let cell =
    {
      (sample_cell ()) with
      Service.Bulk.bisect_steps = 6;
      budget_s = None;
      cell_id = "c0";
      depth = 0;
      box = [ (Pll.Ip, 1.0, 1.0) ];
    }
  in
  let p = Service.Bulk.run ~ctx:(Supervise.create ~jobs:1 ()) cell in
  Alcotest.(check bool) "certified" true p.Service.Bulk.ok;
  Alcotest.(check (float 1e-9)) "beta" 187.5 p.Service.Bulk.beta;
  let grid = Result.get_ok (Atlas.Grid.parse "ip=1:1:1") in
  match
    Atlas.run ~ctx:(Supervise.create ~jobs:1 ()) ~resume:false
      { (Atlas.default_job Pll.Third) with Atlas.degree = 4 }
      grid
  with
  | Error e -> Alcotest.fail e
  | Ok { Atlas.records = [ { Atlas.result = Atlas.Certified { beta }; _ } ]; _ } ->
      Alcotest.(check (float 0.0)) "same beta as the atlas" beta p.Service.Bulk.beta
  | Ok _ -> Alcotest.fail "the atlas did not certify its one cell"

(* ---- daemon fault-plan parsing ---- *)

let test_daemon_fault_parse () =
  (match
     Service.Daemon.Fault.of_string
       "kill-worker@j2,stall-worker@c0-0,kill-cell@c1-1,wedge-queue,die@j3"
   with
  | Ok plan ->
      Alcotest.(check string) "round-trips"
        "kill-worker@j2,stall-worker@c0-0,kill-cell@c1-1,wedge-queue,die@j3"
        (Service.Daemon.Fault.to_string plan)
  | Error e -> Alcotest.fail e);
  (* Token-level claims and refusals live in the shared fault table. *)
  match Service.Daemon.Fault.of_string "none" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "none must be the empty plan"

let suite =
  [
    Alcotest.test_case "json-roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json-escapes" `Quick test_json_escapes;
    Alcotest.test_case "json-malformed" `Quick test_json_malformed;
    Alcotest.test_case "job-line-roundtrip" `Quick test_job_line_roundtrip;
    Alcotest.test_case "fingerprint-deadline-independent" `Quick
      test_fingerprint_deadline_independent;
    Alcotest.test_case "fingerprint-point-order" `Quick
      test_fingerprint_point_order_canonical;
    Alcotest.test_case "point-parse" `Quick test_point_parse;
    Alcotest.test_case "validate-refuses" `Quick test_validate_refuses;
    Alcotest.test_case "spec-json-roundtrip" `Quick test_spec_json_roundtrip;
    Alcotest.test_case "result-json-roundtrip" `Quick test_result_json_roundtrip;
    Alcotest.test_case "queue-replay-compaction" `Quick
      test_queue_replay_and_compaction;
    Alcotest.test_case "queue-tolerates-garbage" `Quick test_queue_tolerates_garbage;
    Alcotest.test_case "queue-cancel-terminal" `Quick test_queue_cancel_is_terminal;
    Alcotest.test_case "cell-line-roundtrip" `Quick test_cell_line_roundtrip;
    Alcotest.test_case "cell-fingerprint-identity" `Quick
      test_cell_fingerprint_identity_excluded;
    Alcotest.test_case "probe-storable" `Quick test_probe_storable;
    Alcotest.test_case "probe-json-roundtrip" `Quick test_probe_json_roundtrip;
    Alcotest.test_case "queue-cell-replay" `Quick test_queue_cell_replay;
    Alcotest.test_case "breaker-state-machine" `Quick test_breaker_state_machine;
    Alcotest.test_case "daemon-fault-parse" `Quick test_daemon_fault_parse;
    Alcotest.test_case "level-collapse" `Slow test_level_collapse;
    Alcotest.test_case "storability-table" `Quick test_storability_table;
    Alcotest.test_case "cell-certification" `Slow test_cell_certification;
  ]
