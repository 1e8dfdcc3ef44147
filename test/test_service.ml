(* Tests for the verification service layer: the minimal JSON codec,
   canonical job and cell lines and fingerprints, points as one-cell
   jobs, the crash-safe queue ledger's replay/compaction, the
   clock-injected circuit breaker, and the one certification pipeline
   behind point jobs and sweep cells. *)

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

(* The daemon keys a point by the fingerprint of the cell it becomes. *)
let point_fp spec = Service.Job.fingerprint (Service.Job.of_spec spec)

let test_fingerprint_deadline_independent () =
  let spec = spec_with_point () in
  let spec' = { spec with Service.Job.deadline_s = Some 99.0 } in
  Alcotest.(check string) "deadline does not change the job identity"
    (point_fp spec) (point_fp spec');
  let other = { spec with Service.Job.degree = 6 } in
  Alcotest.(check bool) "problem fields do" true (point_fp spec <> point_fp other)

let test_fingerprint_point_order_canonical () =
  let a = { (Service.Job.default_spec Pll.Third) with
            Service.Job.point = [ (Pll.Ip, 1.05); (Pll.Kv, 0.9) ] } in
  let b = { a with Service.Job.point = [ (Pll.Kv, 0.9); (Pll.Ip, 1.05) ] } in
  Alcotest.(check string) "axis listing order is canonicalized away"
    (point_fp a) (point_fp b)

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
    match Service.Bulk.validate (Service.Job.of_spec spec) with
    | Error _ -> ()
    | Ok () -> Alcotest.fail (what ^ " accepted")
  in
  bad { d with Service.Job.degree = 0 } "degree 0";
  bad { d with Service.Job.deadline_s = Some 0.0 } "zero deadline";
  (* The CLIs refuse, as a usage error, exactly what the daemon refuses
     at admission: a budget that is not finite, too. *)
  bad { d with Service.Job.deadline_s = Some Float.infinity } "infinite deadline";
  bad { d with Service.Job.deadline_s = Some Float.nan } "nan deadline";
  bad { d with Service.Job.point = [ (Pll.Ip, -1.0) ] } "negative factor";
  bad
    { d with Service.Job.point = [ (Pll.Ip, 1.0); (Pll.Ip, 2.0) ] }
    "duplicate axis";
  bad { d with Service.Job.point = [ (Pll.C3, 1.1) ] } "axis absent at third order"

(* A submitted point travels as the line of the cell it converts to. *)
let test_spec_cell_line_roundtrip () =
  let spec = spec_with_point () in
  let c = Service.Job.of_spec spec in
  match Service.Job.cell_of_line (Service.Job.cell_to_line c) with
  | Error e -> Alcotest.fail e
  | Ok c' ->
      Alcotest.(check bool) "wire encoding round-trips" true (c' = c);
      Alcotest.(check string) "same fingerprint across the wire"
        (point_fp spec) (Service.Job.fingerprint c')

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
  | Ok j ->
      Alcotest.(check (option string)) "verdict" (Some "not-established")
        (Service.Json.mem_str "verdict" j);
      Alcotest.(check (option string)) "kind" (Some "infeasible")
        (Service.Json.mem_str "kind" j);
      Alcotest.(check (option string)) "detail" (Some "conclusively infeasible at P1")
        (Service.Json.mem_str "detail" j);
      Alcotest.(check bool) "counters are not part of the stable core" true
        (Service.Json.member "solves" j = None)

(* ---- queue ledger ---- *)

let sample_cell () : Service.Job.cell_spec =
  {
    order = Pll.Third;
    degree = 4;
    robust = false;
    property = Service.Job.P1;
    exact = false;
    bisect_steps = 4;
    advect_iters = Service.Job.default_advect_iters;
    psd_tol = None;
    eq_tol = None;
    budget_s = Some 30.0;
    cell_id = "c1-0.1";
    depth = 1;
    box = [ (Pll.Ip, 0.9, 1.0); (Pll.Kv, 1.0, 1.1) ];
  }

let cell_of_degree degree = { (sample_cell ()) with Service.Job.degree }

let open_q dir =
  match Service.Jobqueue.open_ ~dir with
  | Ok v -> v
  | Error e -> Alcotest.fail e

let test_queue_replay_and_compaction () =
  let dir = tmp_dir () in
  let on_record () = Service.Jobqueue.ledger.Supervise.entries dir in
  Alcotest.(check int) "fresh ledger" 0 (on_record ());
  let q0, _, _ = open_q dir in
  Service.Jobqueue.close q0;
  Alcotest.(check int) "a lifetime that admits no job leaves none on record" 0
    (on_record ());
  let q, recovered, diags = open_q dir in
  Alcotest.(check int) "fresh queue is empty" 0 (List.length recovered);
  Alcotest.(check int) "no diagnoses" 0 (List.length diags);
  let e1 = Service.Jobqueue.submit q (cell_of_degree 6) in
  let e2 = Service.Jobqueue.submit q (cell_of_degree 4) in
  let e3 = Service.Jobqueue.submit q (cell_of_degree 5) in
  Alcotest.(check string) "sequential ids" "j1" e1.Service.Jobqueue.id;
  Alcotest.(check string) "sequential ids" "j3" e3.Service.Jobqueue.id;
  Service.Jobqueue.start q e1;
  Service.Jobqueue.finish q e1 Service.Job.Verified;
  Service.Jobqueue.start q e2;
  (* e2 running (daemon killed mid-job), e3 still pending. *)
  Service.Jobqueue.close q;
  Alcotest.(check bool) "previous entries noticed" true (on_record () > 0);
  let q2, recovered, diags = open_q dir in
  Alcotest.(check int) "replay is clean" 0 (List.length diags);
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
  Alcotest.(check string) "recovered cell survives"
    (Service.Job.fingerprint (cell_of_degree 4))
    (List.nth recovered 0).Service.Jobqueue.fp;
  let e4 = Service.Jobqueue.submit q2 (cell_of_degree 7) in
  Alcotest.(check string) "seq high-water survives restart" "j4"
    e4.Service.Jobqueue.id;
  Service.Jobqueue.close q2

let test_queue_tolerates_garbage () =
  let dir = tmp_dir () in
  let q, _, _ = open_q dir in
  ignore (Service.Jobqueue.submit q (sample_cell ()));
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
  let e = Service.Jobqueue.submit q (sample_cell ()) in
  Service.Jobqueue.cancel q e;
  Service.Jobqueue.close q;
  let q2, recovered, _ = open_q dir in
  Alcotest.(check int) "cancelled jobs are not recovered" 0
    (List.length recovered);
  Service.Jobqueue.close q2

(* ---- bulk cell lines, fingerprints and probes ---- *)

let test_cell_line_roundtrip () =
  let c = sample_cell () in
  (match Service.Job.cell_of_line (Service.Job.cell_to_line c) with
  | Error e -> Alcotest.fail e
  | Ok c' -> Alcotest.(check bool) "round-trips exactly" true (c' = c));
  match Service.Job.cell_of_line "pll-cell v2 nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown magic accepted"

let test_cell_fingerprint_identity_excluded () =
  let c = sample_cell () in
  (* Sweep identity and budget never change the content key: two grid
     positions with the same box share one cache entry. *)
  let moved = { c with Service.Job.cell_id = "c9-9"; depth = 0; budget_s = None } in
  Alcotest.(check string) "identity and budget excluded"
    (Service.Job.fingerprint c)
    (Service.Job.fingerprint moved);
  let other = { c with Service.Job.degree = 6 } in
  Alcotest.(check bool) "problem fields included" true
    (Service.Job.fingerprint c <> Service.Job.fingerprint other);
  let wider =
    { c with Service.Job.box = [ (Pll.Ip, 0.9, 1.05); (Pll.Kv, 1.0, 1.1) ] }
  in
  Alcotest.(check bool) "box included" true
    (Service.Job.fingerprint c <> Service.Job.fingerprint wider)

let test_probe_storable () =
  let storable p what expect =
    Alcotest.(check bool) what expect (Service.Bulk.storable p)
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
  let journal =
    Service.Json.(
      Obj
        [
          ("solves", Num 3.0);
          ("elapsed_s", Num 0.125);
          ( "diagnoses",
            Arr
              [
                Obj
                  [
                    ("label", Str "multi-lyapunov \"P1\"");
                    ("accepted_rung", Null);
                    ("attempts", Arr [ Obj [ ("gap", Num 1.5e-9); ("deadline_hit", Bool false) ] ]);
                  ];
              ] );
        ])
  in
  let p =
    { Service.Bulk.ok = false; beta = 0.0; kind = "crash";
      detail = "cell worker crashed"; journal = Some journal;
      solves = 0; attempts = 2; attempt_s = 0.25 }
  in
  let roundtrip p =
    Result.bind
      (Service.Json.parse (Service.Json.to_string (Service.Bulk.probe_to_json p)))
      Service.Bulk.probe_of_json
  in
  (match roundtrip p with
  | Error e -> Alcotest.fail e
  | Ok p' -> Alcotest.(check bool) "probe round-trips (nested journal included)" true (p' = p));
  (match roundtrip { p with Service.Bulk.journal = None } with
  | Ok p' ->
      Alcotest.(check bool) "no journal reads back as none" true (p'.Service.Bulk.journal = None)
  | Error e -> Alcotest.fail e);
  (* A probe stored when journals were JSON text: its journal reads as a
     string. *)
  let old = "{\"ok\":false,\"kind\":\"crash\",\"journal\":\"{\\\"error\\\":\\\"x\\\"}\"}" in
  match Result.bind (Service.Json.parse old) Service.Bulk.probe_of_json with
  | Ok p' ->
      Alcotest.(check bool) "a string journal reads as a string" true
        (p'.Service.Bulk.journal = Some (Service.Json.Str "{\"error\":\"x\"}"))
  | Error e -> Alcotest.fail e

let test_queue_cell_replay () =
  let dir = tmp_dir () in
  let q, _, _ = open_q dir in
  let c = sample_cell () in
  let e = Service.Jobqueue.submit q c in
  Alcotest.(check string) "cell fingerprint keys the entry"
    (Service.Job.fingerprint c) e.Service.Jobqueue.fp;
  Service.Jobqueue.start q e;
  (* Daemon killed mid-cell: the replayed entry must still be a cell
     with its sweep identity intact. *)
  Service.Jobqueue.close q;
  let q2, recovered, diags = open_q dir in
  Alcotest.(check int) "clean replay" 0 (List.length diags);
  (match recovered with
  | [ { Service.Jobqueue.cell = c'; _ } ] ->
      Alcotest.(check bool) "cell survives the ledger" true (c' = c)
  | l -> Alcotest.failf "expected 1 recovered entry, got %d" (List.length l));
  Service.Jobqueue.close q2

(* Fingerprints of three atlas cells as computed before points became
   one-cell jobs: sweep cells must keep their store keys. *)
let test_cell_fingerprints_pinned () =
  let cell ~robust ~full ~exact ~id box =
    {
      (sample_cell ()) with
      Service.Job.robust;
      property = (if full then Service.Job.Full else Service.Job.P1);
      exact;
      cell_id = id;
      depth = 0;
      box;
    }
  in
  List.iter
    (fun (what, c, fp) ->
      Alcotest.(check string) what fp (Service.Job.fingerprint c))
    [
      ( "robust P1 cell",
        cell ~robust:true ~full:false ~exact:false ~id:"c0-0"
          [ (Pll.Ip, 0.9, 1.0); (Pll.Kv, 0.9, 1.0) ],
        "c58b2661a1a2d56ade5e7a246ec5a3aa" );
      ( "full cell",
        cell ~robust:false ~full:true ~exact:false ~id:"c1-0" [ (Pll.Ip, 1.0, 1.1) ],
        "a93a10d6b7f1e5c486df1b91043620c4" );
      ( "exact cell",
        cell ~robust:false ~full:false ~exact:true ~id:"c0-1.1"
          [ (Pll.Kv, 1.0, 1.05); (Pll.R, 0.95, 1.0) ],
        "1e103a5c416e88de04fd3929d1311d89" );
    ]

let gen_cell =
  QCheck.Gen.(
    let pos = map (fun f -> 0.5 +. f) (float_bound_inclusive 1.0) in
    let opt g = option g in
    let* order = oneofl [ Pll.Third; Pll.Fourth ] in
    let* degree = int_range 1 8 in
    let* robust = bool and* full = bool and* exact = bool in
    let* bisect_steps = int_range 0 20 in
    let* advect_iters = oneof [ return Service.Job.default_advect_iters; int_range 1 60 ] in
    let* psd_tol = opt (float_bound_inclusive 1e-3) in
    let* eq_tol = opt (float_bound_inclusive 1e-3) in
    let* budget_s = opt pos in
    let* depth = int_range 0 4 in
    let* axes = shuffle_l Pll.axes in
    let* n = int_range 0 3 in
    let* box =
      flatten_l
        (List.map
           (fun a -> map2 (fun lo w -> (a, lo, lo +. w)) pos (float_bound_inclusive 0.5))
           (List.filteri (fun i _ -> i < n) axes))
    in
    return
      {
        Service.Job.order;
        degree;
        robust;
        property = (if full then Service.Job.Full else Service.Job.P1);
        exact;
        bisect_steps;
        advect_iters;
        psd_tol;
        eq_tol;
        budget_s;
        cell_id = Printf.sprintf "c%d-%d" depth n;
        depth;
        box;
      })

(* A point made through [Job.spec], and the same point with its axes
   listed in another order and another deadline. *)
let gen_point =
  QCheck.Gen.(
    let* c = gen_cell in
    let* property = oneofl [ Service.Job.P1; Service.Job.Full ] in
    let point = List.map (fun (a, lo, _) -> (a, lo)) c.Service.Job.box in
    let spec =
      {
        (Service.Job.default_spec c.Service.Job.order) with
        Service.Job.property;
        degree = c.Service.Job.degree;
        robust = c.Service.Job.robust;
        point;
        bisect_steps = c.Service.Job.bisect_steps;
        advect_iters = c.Service.Job.advect_iters;
        psd_tol = c.Service.Job.psd_tol;
        eq_tol = c.Service.Job.eq_tol;
        deadline_s = c.Service.Job.budget_s;
      }
    in
    let* shuffled = shuffle_l point in
    let* deadline_s = option (map (fun f -> 1.0 +. f) (float_bound_inclusive 100.0)) in
    return (c, spec, { spec with Service.Job.point = shuffled; deadline_s }))

let prop_cell_line_roundtrip =
  QCheck.Test.make ~name:"cell line round-trips" ~count:300
    (QCheck.make
       ~print:(fun (c, spec, _) ->
         Service.Job.cell_to_line c ^ "\n" ^ Service.Job.cell_to_line (Service.Job.of_spec spec))
       gen_point)
    (fun (c, spec, moved) ->
      let point = Service.Job.of_spec spec in
      Service.Job.cell_of_line (Service.Job.cell_to_line c) = Ok c
      && Service.Job.cell_of_line (Service.Job.cell_to_line point) = Ok point
      && Service.Job.to_line spec = Service.Job.cell_to_line ~with_identity:false point
      && Service.Job.to_line moved = Service.Job.to_line spec)

(* A point is a one-cell job: degenerate intervals in canonical axis
   order, the nominal point as the empty box, axes absent at the order
   refused at admission. *)
let test_point_as_cell () =
  let spec = spec_with_point () in
  let c = Service.Job.of_spec { spec with Service.Job.point = [ (Pll.Kv, 0.9); (Pll.Ip, 1.05) ] } in
  Alcotest.(check bool) "degenerate box" true
    (c.Service.Job.box = [ (Pll.Ip, 1.05, 1.05); (Pll.Kv, 0.9, 0.9) ]);
  Alcotest.(check bool) "problem fields carried" true
    (c.Service.Job.degree = 4 && c.Service.Job.robust && c.Service.Job.property = Service.Job.P1
    && (not c.Service.Job.exact) && c.Service.Job.bisect_steps = 3
    && c.Service.Job.advect_iters = 25 && c.Service.Job.psd_tol = Some 1e-6
    && c.Service.Job.budget_s = Some 12.5);
  let full = Service.Job.of_spec { spec with Service.Job.property = Service.Job.Full } in
  Alcotest.(check bool) "full property" true (full.Service.Job.property = Service.Job.Full);
  let nominal = Service.Job.of_spec (Service.Job.default_spec Pll.Third) in
  Alcotest.(check bool) "nominal is the empty box" true (nominal.Service.Job.box = []);
  Alcotest.(check bool) "the empty box is valid" true
    (Service.Bulk.validate nominal = Ok ());
  (match Service.Job.cell_of_line (Service.Job.cell_to_line nominal) with
  | Ok c' -> Alcotest.(check bool) "empty box round-trips" true (c' = nominal)
  | Error e -> Alcotest.fail e);
  let absent =
    Service.Job.of_spec
      { (Service.Job.default_spec Pll.Third) with Service.Job.point = [ (Pll.C3, 1.1) ] }
  in
  (match Service.Bulk.validate absent with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "an axis absent at third order was admitted");
  let dup = { c with Service.Job.box = (Pll.Ip, 1.0, 1.0) :: c.Service.Job.box } in
  (match Service.Bulk.validate dup with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "a duplicate box axis was admitted");
  List.iter
    (fun b ->
      match Service.Bulk.validate { c with Service.Job.budget_s = Some b } with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "budget %g was admitted" b)
    [ 0.0; -1.0; Float.nan; Float.infinity ];
  Alcotest.(check bool) "the point line names its non-default fields" true
    (contains (Service.Job.cell_to_line c) " advect=25 psd-tol=")

(* A queue ledger whose complete [submit] line does not read as a cell
   is refused with a structured JSON diagnosis naming the line, and left
   byte for byte: compacting it would drop the job the line holds. *)
let refuses_ledger ~line_no contents =
  let dir = tmp_dir () in
  let file = Service.Jobqueue.path dir in
  Out_channel.with_open_bin file (fun oc -> output_string oc contents);
  (match Service.Jobqueue.open_ ~dir with
  | Ok (q, _, _) ->
      Service.Jobqueue.close q;
      Alcotest.fail "an unreadable submit line was accepted"
  | Error diag -> (
      match Service.Json.parse diag with
      | Error e -> Alcotest.failf "refusal is not JSON (%s): %s" e diag
      | Ok j ->
          Alcotest.(check (option string)) "error" (Some "queue-unreadable")
            (Service.Json.mem_str "error" j);
          Alcotest.(check (option (float 0.0))) "names its line" (Some (float_of_int line_no))
            (Service.Json.mem_num "line" j)));
  Alcotest.(check string) "ledger left byte for byte" contents
    (In_channel.with_open_bin file In_channel.input_all)

(* A pending point in the retired [pll-job v1] format, and a complete
   cell line naming an order that does not exist after a readable job. *)
let test_queue_unreadable_submit_refused () =
  refuses_ledger ~line_no:3
    "pll-queue v1\n\
     seq 0\n\
     submit j1 77179b9f31e7fa10c843fc5bf9ffa08e pll-job v1 order=third prop=full \
     degree=4 robust=false bisect=4 advect=25 point=ip:0x1.f333333333333p-1 \
     deadline=0x1.ep+4\n\
     start j1\n";
  let good = sample_cell () in
  refuses_ledger ~line_no:4
    (Printf.sprintf
       "pll-queue v1\nseq 0\nsubmit j1 %s %s\nsubmit j2 cafe pll-cell v1 order=fifth box=\n"
       (Service.Job.fingerprint good) (Service.Job.cell_to_line good))

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
  let policy = Service.Job.make_policy ~faults (Service.Job.of_spec spec) in
  let r = Service.Job.run ~policy spec in
  Alcotest.(check string) "verdict" "not-established"
    (Service.Job.verdict_to_string r.Service.Job.verdict);
  Alcotest.(check string) "kind" "level-collapse" r.Service.Job.kind;
  Alcotest.(check int) "exit code" 2 (Service.Job.exit_code r.Service.Job.verdict)

(* One storability rule, read off the kind table: every kind is stored
   exactly when its verdict is not a failure, and a probe's verdict is
   its kind's. *)
let test_storable_kinds () =
  List.iter
    (fun (kind, verdict) ->
      let p =
        {
          (Service.Bulk.probe_fail ~kind ~detail:"d") with
          Service.Bulk.ok = verdict = Service.Job.Verified;
        }
      in
      Alcotest.(check string)
        (Printf.sprintf "kind %S carries its verdict" kind)
        (Service.Job.verdict_to_string verdict)
        (Service.Job.verdict_to_string (Service.Bulk.verdict p));
      Alcotest.(check bool)
        (Printf.sprintf "kind %S stored iff not failed" kind)
        (verdict <> Service.Job.Failed) (Service.Bulk.storable p))
    Service.Job.kinds

(* lib/service certifies a cell on its own, with the beta the atlas
   reports for the same cell. *)
let test_cell_certification () =
  let cell =
    {
      (sample_cell ()) with
      Service.Job.bisect_steps = 6;
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

(* The one-cell job a point becomes certifies the model Job.run builds:
   same verdict, beta, kind and detail. (A robust point cell certifies
   its degenerate box itself, the same model; robust runs are too slow
   for this suite.) *)
let test_point_cell_same_outcome () =
  let spec =
    { (nominal_p1 ()) with Service.Job.bisect_steps = 4; point = [ (Pll.Ip, 0.975) ] }
  in
  let o = Service.Job.run ~policy:(Service.Job.make_policy (Service.Job.of_spec spec)) spec in
  let p = Service.Bulk.run ~ctx:(Supervise.create ~jobs:1 ()) (Service.Job.of_spec spec) in
  Alcotest.(check string) "same result core" (Service.Job.result_json o)
    (Service.Job.result_json
       {
         o with
         Service.Job.verdict = Service.Bulk.verdict p;
         beta = p.Service.Bulk.beta;
         kind = p.Service.Bulk.kind;
         detail = p.Service.Bulk.detail;
       })

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
    Alcotest.test_case "fingerprint-deadline-independent" `Quick
      test_fingerprint_deadline_independent;
    Alcotest.test_case "fingerprint-point-order" `Quick
      test_fingerprint_point_order_canonical;
    Alcotest.test_case "point-parse" `Quick test_point_parse;
    Alcotest.test_case "validate-refuses" `Quick test_validate_refuses;
    Alcotest.test_case "spec-cell-line-roundtrip" `Quick test_spec_cell_line_roundtrip;
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
    Alcotest.test_case "queue-unreadable-submit-refused" `Quick
      test_queue_unreadable_submit_refused;
    Alcotest.test_case "cell-fingerprints-pinned" `Quick test_cell_fingerprints_pinned;
    QCheck_alcotest.to_alcotest prop_cell_line_roundtrip;
    Alcotest.test_case "point-as-cell" `Quick test_point_as_cell;
    Alcotest.test_case "breaker-state-machine" `Quick test_breaker_state_machine;
    Alcotest.test_case "daemon-fault-parse" `Quick test_daemon_fault_parse;
    Alcotest.test_case "level-collapse" `Slow test_level_collapse;
    Alcotest.test_case "storable-kinds" `Quick test_storable_kinds;
    Alcotest.test_case "cell-certification" `Slow test_cell_certification;
    Alcotest.test_case "point-cell-same-outcome" `Slow test_point_cell_same_outcome;
  ]
