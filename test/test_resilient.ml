(* Tests of the resilient solve orchestration layer: fault-plan
   parsing, ladder recovery from injected failures, structured
   failure diagnoses when retries are off, deadlines, and probe mode. *)

module Ppoly = Sos.Ppoly

let p1 terms =
  Poly.of_terms 1 (List.map (fun (es, c) -> (Poly.Monomial.of_exponents es, c)) terms)

(* (x+1)^2: a certainly-SOS target so any failure is injected, not real. *)
let feasible_prob () =
  let prob = Sos.create ~nvars:1 in
  Sos.add_sos prob (Ppoly.of_poly (p1 [ ([ 2 ], 1.0); ([ 1 ], 2.0); ([ 0 ], 1.0) ]));
  prob

(* x^2 - 1: certainly not SOS, so "not certified" is the right answer. *)
let infeasible_prob () =
  let prob = Sos.create ~nvars:1 in
  Sos.add_sos prob (Ppoly.of_poly (p1 [ ([ 2 ], 1.0); ([ 0 ], -1.0) ]));
  prob

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let plan s =
  match Resilient.Faults.of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "fault plan %S rejected: %s" s e

(* ------------------------------------------------------------------ *)
(* Parsing *)

let test_fault_plan_parsing () =
  Alcotest.(check bool) "empty" true (Resilient.Faults.is_empty (plan ""));
  Alcotest.(check bool) "none" true (Resilient.Faults.is_empty (plan "none"));
  (* Token-level claims and refusals live in the shared fault table. *)
  Alcotest.(check string) "round trip" "fail@1:2,trunc@*:3,noise@2:1:0.5"
    (Resilient.Faults.to_string (plan "fail@1:2, trunc@*:3, noise@2:1:0.5"))

(* ------------------------------------------------------------------ *)
(* Ladder recovery: a forced Numerical_failure on the baseline attempt
   must be recovered by a later rung, firing the injection exactly once. *)

let test_ladder_recovers_injected_failure () =
  let faults = plan "fail@1:1" in
  let pol = Resilient.make ~faults () in
  let sol, diag = Resilient.solve_sos pol ~label:"recovery" (feasible_prob ()) in
  Alcotest.(check bool) "recovered to certified" true sol.Sos.certified;
  Alcotest.(check bool) "outcome Certified" true (diag.Resilient.outcome = Resilient.Certified);
  Alcotest.(check bool) "took more than one attempt" true
    (List.length diag.Resilient.attempts >= 2);
  (match diag.Resilient.attempts with
  | first :: _ ->
      Alcotest.(check bool) "baseline failed as injected" true
        (first.Resilient.status = Sdp.Numerical_failure);
      Alcotest.(check int) "fault fired on baseline" 1 first.Resilient.faults_fired
  | [] -> Alcotest.fail "no attempts recorded");
  (match diag.Resilient.accepted_rung with
  | Some r -> Alcotest.(check bool) "accepted above baseline" true (r <> Resilient.Baseline)
  | None -> Alcotest.fail "no accepted rung");
  (* First-attempt-only semantics: the retry must not be re-faulted. *)
  Alcotest.(check int) "injection fired exactly once" 1 (Resilient.Faults.fired faults);
  (* A certified recovery is not a failure — but it is journaled. *)
  Alcotest.(check int) "not a failure" 0 (List.length (Resilient.failures pol))

let test_fault_targets_logical_solve () =
  let faults = plan "fail@2:1" in
  let pol = Resilient.make ~faults () in
  let _, d1 = Resilient.solve_sos pol ~label:"first" (feasible_prob ()) in
  Alcotest.(check int) "solve 1 untouched" 1 (List.length d1.Resilient.attempts);
  let _, d2 = Resilient.solve_sos pol ~label:"second" (feasible_prob ()) in
  Alcotest.(check int) "solve index tracked" 2 d2.Resilient.solve_index;
  Alcotest.(check bool) "solve 2 hit" true (List.length d2.Resilient.attempts >= 2);
  Alcotest.(check int) "fired once" 1 (Resilient.Faults.fired faults)

(* ------------------------------------------------------------------ *)
(* Retries disabled: the same fault yields a structured failure report
   naming the condition and the attempt history. *)

let test_no_retries_structured_failure () =
  let pol = Resilient.make ~retries:false ~faults:(plan "fail@1:1") () in
  let _, diag = Resilient.solve_sos pol ~label:"multi-lyapunov" (feasible_prob ()) in
  Alcotest.(check bool) "failed" true (diag.Resilient.outcome = Resilient.Failed);
  Alcotest.(check int) "single attempt" 1 (List.length diag.Resilient.attempts);
  Alcotest.(check int) "journaled as failure" 1 (List.length (Resilient.failures pol));
  let json = Substrate.Json.to_string (Resilient.diagnosis_to_json diag) in
  Alcotest.(check bool) "names the condition" true (contains json "multi-lyapunov");
  Alcotest.(check bool) "names the status" true (contains json "numerical_failure");
  let report = Substrate.Json.to_string (Resilient.report_json pol) in
  Alcotest.(check bool) "report carries the diagnosis" true
    (contains report "multi-lyapunov")

(* ------------------------------------------------------------------ *)
(* Deadlines: an exhausted budget truncates the solve and is recorded. *)

let test_pipeline_deadline () =
  let pol = Resilient.make ~pipeline_deadline_s:0.0 () in
  Resilient.begin_pipeline pol;
  Alcotest.(check bool) "out of time" true (Resilient.out_of_time pol)

(* What an attempt's hook did reaches the ladder even when the attempt
   ran in the solver worker: the injected fault and the deadline stop
   read the same in-process and isolated. *)
let test_isolated_hook_effects () =
  let effects supervise =
    let faults = plan "fail@1:1" in
    let pol = Resilient.make ~faults ~supervise () in
    let _, d = Resilient.solve_sos pol ~label:"recovery" (feasible_prob ()) in
    let late = Resilient.make ~pipeline_deadline_s:0.0 ~supervise () in
    Resilient.begin_pipeline late;
    let _, d' = Resilient.solve_sos late ~label:"late" (feasible_prob ()) in
    Supervise.release supervise;
    let first = List.hd d.Resilient.attempts in
    ( first.Resilient.faults_fired,
      Resilient.Faults.fired faults,
      d.Resilient.deadline_hit,
      d'.Resilient.deadline_hit )
  in
  let show (a, b, c, e) = Printf.sprintf "fired %d, Faults.fired %d, deadline %b/%b" a b c e in
  let inline = effects (Supervise.in_process ()) in
  Alcotest.(check string) "in-process" (show (1, 1, false, true)) (show inline);
  Alcotest.(check string) "isolated as in-process" (show inline)
    (show (effects (Supervise.create ~jobs:1 ())))

(* ------------------------------------------------------------------ *)
(* Probe mode: an expected "no" is neither retried nor journaled. *)

let test_probe_is_quiet () =
  let pol = Resilient.make () in
  let probe = Resilient.probe pol in
  let sol, diag = Resilient.solve_sos probe ~label:"probe" (infeasible_prob ()) in
  Alcotest.(check bool) "honest no" false sol.Sos.certified;
  Alcotest.(check int) "no retries" 1 (List.length diag.Resilient.attempts);
  Alcotest.(check int) "nothing journaled" 0 (List.length (Resilient.journal pol));
  (* …but the probe still advances the shared logical solve counter. *)
  Alcotest.(check int) "solve counted" 1 (Resilient.solves pol)

(* Budget accounting: consumed counts every attempt of every solve —
   including quiet probe attempts that never reach the journal — so a
   sweep cell's true cost is visible to its orchestrator. *)

let test_consumed_budget () =
  (* An injected baseline failure forces one ladder retry (its first
     rung, equilibration, recovers), so the meter must show two attempts
     for one logical solve. *)
  let pol = Resilient.make ~faults:(plan "fail@1:1") () in
  let zero = Resilient.consumed pol in
  Alcotest.(check int) "fresh: no attempts" 0 zero.Resilient.attempts;
  Alcotest.(check int) "fresh: no solves" 0 zero.Resilient.solves;
  ignore (Resilient.solve_sos pol ~label:"budget" (feasible_prob ()));
  let b = Resilient.consumed pol in
  Alcotest.(check int) "attempts across rungs" 2 b.Resilient.attempts;
  Alcotest.(check int) "one logical solve" 1 b.Resilient.solves;
  Alcotest.(check bool) "time accumulated" true (b.Resilient.attempt_s >= 0.0);
  (* Quiet probes are not journaled but still cost attempts. *)
  let n_journal = List.length (Resilient.journal pol) in
  ignore (Resilient.solve_sos (Resilient.probe pol) ~label:"p" (infeasible_prob ()));
  let b' = Resilient.consumed pol in
  Alcotest.(check int) "probe attempt counted" 3 b'.Resilient.attempts;
  Alcotest.(check int) "probe solve counted" 2 b'.Resilient.solves;
  Alcotest.(check int) "probe not journaled" n_journal
    (List.length (Resilient.journal pol));
  (* begin_pipeline resets the meter. *)
  Resilient.begin_pipeline pol;
  Alcotest.(check int) "reset" 0 (Resilient.consumed pol).Resilient.attempts

(* ----------------------------------------------------------------- *)
(* Backoff: a pure function of (policy, key, attempt), so the ladder,
   the cap and the jitter are all checkable instantly. *)

let backoff_policy = { Resilient.Backoff.base_s = 0.25; max_s = 1.0 }

let test_lease_backoff () =
  let open Resilient.Backoff in
  (* Deterministic: the same (key, attempt) always waits the same time,
     and distinct keys decorrelate. *)
  let b1 = backoff_s backoff_policy ~key:"j1" ~attempt:1 in
  Alcotest.(check (float 1e-12)) "backoff is a pure function" b1
    (backoff_s backoff_policy ~key:"j1" ~attempt:1);
  (* Every attempt's wait lies in [ladder, ladder * 1.25]: doubling from
     the base, capped. *)
  List.iter
    (fun attempt ->
      let ladder =
        min backoff_policy.max_s (backoff_policy.base_s *. (2.0 ** float_of_int (attempt - 1)))
      in
      let b = backoff_s backoff_policy ~key:"j1" ~attempt in
      if b < ladder || b > ladder *. 1.25 then
        Alcotest.failf "attempt %d backoff %g outside [%g, %g]" attempt b ladder
          (ladder *. 1.25))
    [ 1; 2; 3; 4; 5; 6 ];
  (* The cap holds even when the exponential has overflowed it. *)
  let b9 = backoff_s backoff_policy ~key:"j1" ~attempt:9 in
  Alcotest.(check bool) "cap holds" true (b9 <= backoff_policy.max_s *. 1.25);
  (* Jitter is in [0,1) and stable. *)
  let j = jitter ~key:"k" ~attempt:2 in
  Alcotest.(check bool) "jitter in range" true (j >= 0.0 && j < 1.0);
  Alcotest.(check (float 1e-12)) "jitter stable" j (jitter ~key:"k" ~attempt:2)

(* The iteration hook is marshalled into every supervised request, so it
   must not capture the policy: a warm session alone outweighs the
   guard's 4 KiB. *)
let test_hook_captures_little () =
  let n = 40 in
  let warm =
    {
      Sdp.block_dims = [| n |];
      n_free = 0;
      constraints =
        Array.init n (fun i ->
            { Sdp.lhs = [ { Sdp.blk = 0; row = i; col = i; value = 1.0 } ]; free = []; rhs = 1.0 });
      obj_blocks =
        List.init (n - 1) (fun i -> { Sdp.blk = 0; row = i; col = i + 1; value = 1.0 });
      obj_free = [];
    }
  in
  let pol = Resilient.make ~faults:(plan "noise@1:3:0.5") ~pipeline_deadline_s:600.0 () in
  ignore (Sdp.Session.solve pol.Resilient.session warm);
  let bytes v = String.length (Marshal.to_string v [ Marshal.Closures ]) in
  Alcotest.(check bool) "the policy holds a warm session" true (bytes pol > 4096);
  let params =
    Resilient.iteration_hook pol ~solve_index:1 ~attempt:0 Sdp.default_params
  in
  Alcotest.(check bool) "a hook is installed" true (params.Sdp.on_iteration <> None);
  let hook_bytes = bytes params.Sdp.on_iteration in
  if hook_bytes >= 4096 then
    Alcotest.failf "the iteration hook marshals to %d bytes; it captures the policy" hook_bytes

let suite =
  [
    Alcotest.test_case "fault plan parsing" `Quick test_fault_plan_parsing;
    Alcotest.test_case "lease backoff ladder" `Quick test_lease_backoff;
    Alcotest.test_case "consumed budget" `Quick test_consumed_budget;
    Alcotest.test_case "ladder recovers injected failure" `Quick
      test_ladder_recovers_injected_failure;
    Alcotest.test_case "fault targets logical solve" `Quick test_fault_targets_logical_solve;
    Alcotest.test_case "no retries: structured failure" `Quick
      test_no_retries_structured_failure;
    Alcotest.test_case "pipeline deadline" `Quick test_pipeline_deadline;
    Alcotest.test_case "isolated hook effects" `Quick test_isolated_hook_effects;
    Alcotest.test_case "probe is quiet" `Quick test_probe_is_quiet;
    Alcotest.test_case "hook captures little" `Quick test_hook_captures_little;
  ]
