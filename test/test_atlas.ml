(* Tests of the certification-atlas sweep layer: grid parsing, cell
   geometry and ids, adaptive subdivision, fault-plan parsing, the
   write-ahead ledger, and the deterministic report. *)

let check = Alcotest.(check bool)

let grid s =
  match Atlas.Grid.parse s with
  | Ok g -> g
  | Error e -> Alcotest.failf "grid %S rejected: %s" s e

let faults s =
  match Atlas.Fault.of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "fault plan %S rejected: %s" s e

let tmpdir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "atlas-test-%d-%.0f" (Unix.getpid ()) (Unix.gettimeofday () *. 1e6))
  in
  Unix.mkdir d 0o755;
  d

(* ------------------------------------------------------------------ *)
(* Grid *)

let test_grid_parse () =
  let g = grid "ip=0.8:1.2:3, kv=0.9:1.1" in
  Alcotest.(check int) "cells" 3 (Atlas.Grid.n_cells g);
  Alcotest.(check string) "canonical" "ip=0.8:1.2:3,kv=0.9:1.1:1" (Atlas.Grid.to_string g);
  (* Canonical form round-trips. *)
  Alcotest.(check string) "round trip"
    (Atlas.Grid.to_string g)
    (Atlas.Grid.to_string (grid (Atlas.Grid.to_string g)));
  let point = grid "ip=1.0" in
  Alcotest.(check int) "point grid" 1 (Atlas.Grid.n_cells point);
  List.iter
    (fun bad ->
      match Atlas.Grid.parse bad with
      | Ok _ -> Alcotest.failf "grid %S should be rejected" bad
      | Error _ -> ())
    [ ""; "ip"; "ip=1.2:0.8"; "ip=0:1"; "ip=-1:1"; "ip=0.8:1.2:0"; "bogus=1:2";
      "ip=1:2,ip=1:2" ]

let test_grid_cells () =
  let cells = Atlas.grid_cells (grid "ip=0.8:1.2:2,kv=0.9:1.1:2") in
  Alcotest.(check (list string)) "ids"
    [ "c0-0"; "c0-1"; "c1-0"; "c1-1" ]
    (List.map (fun c -> c.Atlas.id) cells);
  let c00 = List.hd cells in
  Alcotest.(check int) "depth" 0 c00.Atlas.depth;
  (match c00.Atlas.box with
  | [ (Pll.Ip, lo, hi); (Pll.Kv, klo, khi) ] ->
      check "ip lower half" true (abs_float (lo -. 0.8) < 1e-12 && abs_float (hi -. 1.0) < 1e-12);
      check "kv lower half" true (abs_float (klo -. 0.9) < 1e-12 && abs_float (khi -. 1.0) < 1e-12)
  | _ -> Alcotest.fail "unexpected box shape");
  (* The last cell ends exactly at the spec's upper bound. *)
  let c11 = List.nth cells 3 in
  (match c11.Atlas.box with
  | [ (_, _, hi); (_, _, khi) ] ->
      check "exact upper bounds" true (hi = 1.2 && khi = 1.1)
  | _ -> Alcotest.fail "unexpected box shape")

let test_split () =
  let cells = Atlas.grid_cells (grid "ip=0.8:1.2,kv=0.95:1.05") in
  let c = List.hd cells in
  (match Atlas.split c with
  | None -> Alcotest.fail "box cell must split"
  | Some (a, b) ->
      Alcotest.(check string) "child 0 id" "c0-0.0" a.Atlas.id;
      Alcotest.(check string) "child 1 id" "c0-0.1" b.Atlas.id;
      Alcotest.(check int) "child depth" 1 a.Atlas.depth;
      (* ip is the widest axis (0.4 vs 0.1): it is the one bisected. *)
      (match (a.Atlas.box, b.Atlas.box) with
      | [ (Pll.Ip, alo, ahi); (Pll.Kv, klo, khi) ], [ (Pll.Ip, blo, bhi); _ ] ->
          check "bisect widest" true
            (abs_float (ahi -. 1.0) < 1e-12 && abs_float (blo -. 1.0) < 1e-12);
          check "halves tile parent" true (alo = 0.8 && bhi = 1.2);
          check "narrow axis untouched" true (klo = 0.95 && khi = 1.05)
      | _ -> Alcotest.fail "unexpected child boxes"));
  let point = List.hd (Atlas.grid_cells (grid "ip=1.0")) in
  check "point cell cannot split" true (Atlas.split point = None)

(* ------------------------------------------------------------------ *)
(* Fault plans *)

let test_fault_plan () =
  check "empty" true (Atlas.Fault.of_string "" = Ok Atlas.Fault.none);
  check "none" true (Atlas.Fault.of_string "none" = Ok Atlas.Fault.none);
  (* Token-level claims and refusals live in the shared fault table. *)
  let p = faults "kill@c0,fail-cell@c1.0,c0/fail@1:1,trunc@*:3" in
  Alcotest.(check string) "round trip" "kill@c0,fail-cell@c1.0,c0/fail@1:1,trunc@*:3"
    (Atlas.Fault.to_string p);
  Alcotest.(check int) "one fault per token, in order" 4 (List.length p)

(* ------------------------------------------------------------------ *)
(* Ledger *)

let entry id depth result =
  { Atlas.Ledger.id; depth; result; solves = 3; attempts = 4; attempt_s = 1.5 }

let test_ledger_roundtrip () =
  let dir = tmpdir () in
  let e1 = entry "c0" 0 (Atlas.Certified { beta = 125.0 }) in
  let e2 = entry "c1" 0 Atlas.Subdivided in
  let e3 =
    entry "c1.0" 1
      (Atlas.Quarantined { kind = "injected"; detail = "fail-cell fault injected" })
  in
  Atlas.Ledger.mark_start dir "c0";
  Atlas.Ledger.append dir e1;
  Atlas.Ledger.append dir e2;
  Atlas.Ledger.append dir e3;
  let entries, diags = Atlas.Ledger.read dir in
  check "no diagnoses" true (diags = []);
  check "all entries" true (entries = [ e1; e2; e3 ]);
  (* Last entry per id wins (a resumed run may re-record a cell). *)
  let e1' = entry "c0" 0 (Atlas.Certified { beta = 250.0 }) in
  Atlas.Ledger.append dir e1';
  let entries, _ = Atlas.Ledger.read dir in
  check "last wins" true (List.exists (fun e -> e = e1') entries);
  Alcotest.(check int) "no duplicate ids" 3 (List.length entries);
  (* Beta survives the hex round trip bit-exactly. *)
  let beta_back =
    List.find_map
      (fun (e : Atlas.Ledger.entry) ->
        if e.Atlas.Ledger.id = "c0" then
          match e.Atlas.Ledger.result with
          | Atlas.Certified { beta } -> Some beta
          | _ -> None
        else None)
      entries
  in
  check "beta exact" true (beta_back = Some 250.0)

let test_ledger_tolerates_garbage () =
  let dir = tmpdir () in
  Atlas.Ledger.append dir (entry "c0" 0 (Atlas.Certified { beta = 1.0 }));
  (* Simulate a line truncated by a crash mid-append plus stray bytes. *)
  let oc = open_out_gen [ Open_append ] 0o644 (Atlas.Ledger.path dir) in
  output_string oc "done c1 0 certif";
  close_out oc;
  let entries, diags = Atlas.Ledger.read dir in
  Alcotest.(check int) "good entry kept" 1 (List.length entries);
  Alcotest.(check int) "garbage diagnosed" 1 (List.length diags);
  check "missing ledger reads empty" true (Atlas.Ledger.read (tmpdir ()) = ([], []));
  (* A crash cut the last line inside its quarantine detail: every field
     still parses, but the line is torn and must not replay. *)
  let dir = tmpdir () in
  let c0 = entry "c0" 0 (Atlas.Certified { beta = 1.0 }) in
  Atlas.Ledger.append dir c0;
  let oc = open_out_gen [ Open_append ] 0o644 (Atlas.Ledger.path dir) in
  output_string oc "done c1.0 1 quarantined 0x0p+0 3 4 0x1.8p+0 injected fail-cell fault inj";
  close_out oc;
  let entries, diags = Atlas.Ledger.read dir in
  check "torn line is not a record" true (entries = [ c0 ]);
  Alcotest.(check int) "torn line diagnosed" 1 (List.length diags);
  (* The resumed run's record starts on a line of its own. *)
  let q =
    entry "c1.0" 1
      (Atlas.Quarantined { kind = "injected"; detail = "fail-cell fault injected" })
  in
  Atlas.Ledger.append dir q;
  check "re-recorded cell replays intact" true (Atlas.Ledger.read dir = ([ c0; q ], []))

(* ------------------------------------------------------------------ *)
(* Jobs, fingerprints, reports *)

let test_fingerprint () =
  let job = Atlas.default_job Pll.Third in
  let g = grid "ip=0.8:1.2:3" in
  Alcotest.(check string) "stable" (Atlas.fingerprint job g) (Atlas.fingerprint job g);
  check "degree changes it" true
    (Atlas.fingerprint job g <> Atlas.fingerprint { job with Atlas.degree = 4 } g);
  check "grid changes it" true
    (Atlas.fingerprint job g <> Atlas.fingerprint job (grid "ip=0.8:1.2:4"));
  check "budget does not change it" true
    (Atlas.fingerprint job g
    = Atlas.fingerprint { job with Atlas.cell_budget_s = Some 10.0 } g)

let mk_report records =
  let count f = List.length (List.filter f records) in
  {
    Atlas.job = Atlas.default_job Pll.Third;
    grid = grid "ip=0.8:1.2:2";
    records;
    certified =
      count (fun r -> match r.Atlas.result with Atlas.Certified _ -> true | _ -> false);
    subdivided = count (fun r -> r.Atlas.result = Atlas.Subdivided);
    quarantined =
      count (fun r -> match r.Atlas.result with Atlas.Quarantined _ -> true | _ -> false);
    replayed_cells = 0;
    wall_s = 12.3;
  }

let record cell result =
  { Atlas.cell; result; replayed = false; solves = 1; attempts = 1; attempt_s = 0.5 }

let test_report () =
  let cells = Atlas.grid_cells (grid "ip=0.8:1.2:2") in
  let c0 = List.nth cells 0 and c1 = List.nth cells 1 in
  let c10, c11 =
    match Atlas.split c1 with Some p -> p | None -> Alcotest.fail "split"
  in
  let r =
    mk_report
      [
        record c0 (Atlas.Certified { beta = 125.0 });
        record c1 Atlas.Subdivided;
        record c10 (Atlas.Certified { beta = 60.0 });
        record c11 (Atlas.Quarantined { kind = "infeasible"; detail = "at cert" });
      ]
  in
  check "fraction over leaves" true (abs_float (Atlas.certified_fraction r -. 2.0 /. 3.0) < 1e-9);
  check "histogram" true (Atlas.depth_histogram r = [ (0, 2); (1, 2) ]);
  check "quarantine list" true
    (Atlas.quarantine_list r
    = [ ("c1.1", { Atlas.kind = "infeasible"; detail = "at cert" }) ]);
  Alcotest.(check int) "exit 2 when quarantined" 2 (Atlas.exit_code r);
  let clean = mk_report [ record c0 (Atlas.Certified { beta = 125.0 }) ] in
  Alcotest.(check int) "exit 0 when clean" 0 (Atlas.exit_code clean);
  let json = Atlas.report_json r in
  List.iter
    (fun needle ->
      check (Printf.sprintf "json has %s" needle) true
        (let nh = String.length json and nn = String.length needle in
         let rec go i = i + nn <= nh && (String.sub json i nn = needle || go (i + 1)) in
         go 0))
    [
      "\"certified\":2"; "\"quarantined\":1"; "\"id\":\"c1.1\"";
      "\"kind\":\"infeasible\""; "\"beta\":125"; "\"depth_histogram\"";
    ];
  (* Determinism: the json must not mention wall-clock or replay state. *)
  check "no wall time in json" true
    (Atlas.report_json r = Atlas.report_json { r with Atlas.wall_s = 99.0; replayed_cells = 4 })

(* ------------------------------------------------------------------ *)
(* Setup validation *)

let test_run_validation () =
  let ctx = Supervise.create ~jobs:1 () in
  let job = Atlas.default_job Pll.Third in
  (* c3 only exists at fourth order. *)
  (match Atlas.run ~ctx ~resume:false job (grid "c3=0.9:1.1") with
  | Error e -> check "axis/order mismatch message" true (e <> "")
  | Ok _ -> Alcotest.fail "third-order sweep over c3 must be refused");
  (* Fourth order accepts c3 grids; a fail-cell fault keeps the run free
     of actual solves, so only the setup path is exercised. *)
  let ctx4 = Supervise.create ~jobs:1 () in
  match
    Atlas.run ~ctx:ctx4
      ~faults:[ Atlas.Fault.Fail_cell "c0" ]
      ~resume:false
      { (Atlas.default_job Pll.Fourth) with Atlas.max_subdiv = 0 }
      (grid "c3=1.0")
  with
  | Error e -> Alcotest.failf "fourth-order c3 sweep refused: %s" e
  | Ok r ->
      Alcotest.(check int) "one quarantined cell" 1 r.Atlas.quarantined;
      check "no solving happened" true
        (List.for_all (fun rc -> rc.Atlas.solves = 0) r.Atlas.records)

(* At -j 2 a cell settles the moment it answers: an injected failure
   is ledgered before its slow sibling of the same wave is done. *)
let test_cells_settle_as_they_answer () =
  let dir = tmpdir () in
  let ctx = Supervise.create ~run_dir:dir ~jobs:2 () in
  let job = { (Atlas.default_job Pll.Third) with Atlas.degree = 4; max_subdiv = 0 } in
  (match
     Atlas.run ~ctx ~faults:[ Atlas.Fault.Fail_cell "c1" ] ~resume:false job
       (grid "ip=0.9:1.1:2")
   with
  | Error e -> Alcotest.failf "sweep refused: %s" e
  | Ok r -> Alcotest.(check int) "the failed cell is quarantined" 1 r.Atlas.quarantined);
  let ledgered, _ = Atlas.Ledger.read dir in
  Alcotest.(check (list string)) "done lines in answer order" [ "c1"; "c0" ]
    (List.map (fun (e : Atlas.Ledger.entry) -> e.Atlas.Ledger.id) ledgered)

let suite =
  [
    Alcotest.test_case "grid parsing" `Quick test_grid_parse;
    Alcotest.test_case "grid cells" `Quick test_grid_cells;
    Alcotest.test_case "subdivision" `Quick test_split;
    Alcotest.test_case "fault plans" `Quick test_fault_plan;
    Alcotest.test_case "ledger round trip" `Quick test_ledger_roundtrip;
    Alcotest.test_case "ledger tolerates garbage" `Quick test_ledger_tolerates_garbage;
    Alcotest.test_case "config fingerprint" `Quick test_fingerprint;
    Alcotest.test_case "report and exit codes" `Quick test_report;
    Alcotest.test_case "run validation" `Quick test_run_validation;
    Alcotest.test_case "cells settle as they answer" `Quick test_cells_settle_as_they_answer;
  ]
