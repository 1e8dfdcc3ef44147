(* Resilient solve orchestration: retry ladders, deadlines, fault
   injection and graceful degradation around every SDP and SOS solve,
   each of which goes through the policy's supervision context. *)

let src = Logs.Src.create "resilient" ~doc:"Resilient SOS/SDP solve orchestration"

module Log = (val Logs.src_log src : Logs.LOG)
module Json = Substrate.Json

(* ------------------------------------------------------------------ *)
(* Time sources                                                       *)
(* ------------------------------------------------------------------ *)

(* Deadlines count wall-clock seconds: [Sys.time] is CPU seconds of THIS
   process, which neither advances while a forked worker burns cycles
   nor while the process sleeps in [waitpid], and a fork resets the
   child's CPU clock entirely. The wall source is injectable so deadline
   tests don't have to actually wait. *)

let wall_clock_source = ref Unix.gettimeofday

let set_wall_clock_source = function
  | Some f -> wall_clock_source := f
  | None -> wall_clock_source := Unix.gettimeofday

let wall_now () = !wall_clock_source ()

(* ------------------------------------------------------------------ *)
(* Backoff                                                            *)
(* ------------------------------------------------------------------ *)

(* Re-dispatch and reconnect waits: a capped exponential (factor 2),
   stretched by up to 25 % of jitter. The jitter is a hash of (key,
   attempt), so schedules are deterministic per key yet decorrelated
   across keys — reproducible chaos tests, no thundering herd. *)

module Backoff = struct
  type policy = { base_s : float; max_s : float }

  let default_policy = { base_s = 0.25; max_s = 10.0 }
  let factor = 2.0
  let jitter_frac = 0.25

  let jitter ~key ~attempt =
    float_of_int (Hashtbl.hash (key, attempt) land 0xFFFF) /. 65536.0

  let backoff_s policy ~key ~attempt =
    let a = max 1 attempt in
    let capped = Float.min policy.max_s (policy.base_s *. (factor ** float_of_int (a - 1))) in
    capped *. (1.0 +. (jitter_frac *. jitter ~key ~attempt))
end

(* ------------------------------------------------------------------ *)
(* Fault injection                                                    *)
(* ------------------------------------------------------------------ *)

module Faults = struct
  type kind = Fail | Truncate | Noise of float
  type spec = { kind : kind; solve : int; iter : int }

  type plan = {
    specs : spec list;
    procs : Supervise.Fault.spec list;
    mutable fired : int;
  }

  let none () = { specs = []; procs = []; fired = 0 }
  let of_specs ?(procs = []) specs = { specs; procs; fired = 0 }
  let is_empty p = p.specs = [] && p.procs = []
  let fired p = p.fired
  let proc_specs p = p.procs

  let union plans =
    {
      specs = List.concat_map (fun p -> p.specs) plans;
      procs = List.concat_map (fun p -> p.procs) plans;
      fired = 0;
    }

  (* Every kind here is a solve trigger [kind@S:I[:ARG]], S a logical
     solve index or [*] (0: every solve). The process-level kinds'
     specs are Supervise's, so that library stays independent of this
     one; they land in the separate [procs] list. *)
  let to_tokens p =
    let tok kind solve args =
      let key = if solve = 0 then "*" else string_of_int solve in
      { Substrate.Fault_plan.scope = None; kind; key = Some key; args }
    in
    List.map
      (fun s ->
        let iter = string_of_int s.iter in
        match s.kind with
        | Fail -> tok "fail" s.solve [ iter ]
        | Truncate -> tok "trunc" s.solve [ iter ]
        | Noise m -> tok "noise" s.solve [ iter; Printf.sprintf "%g" m ])
      p.specs
    @ List.map
        (fun (s : Supervise.Fault.spec) ->
          let iter = string_of_int s.iter in
          match s.kind with
          | Kill -> tok "kill" s.solve [ iter ]
          | Stall -> tok "stall" s.solve [ iter ]
          | Corrupt_cache -> tok "corrupt-cache" s.solve [])
        p.procs

  let to_string p =
    String.concat "," (List.map Substrate.Fault_plan.token_to_string (to_tokens p))

  let of_token (t : Substrate.Fault_plan.token) =
    let solve =
      match t.key with Some "*" -> Some 0 | Some s -> int_of_string_opt s | None -> None
    in
    let at iter mk =
      match (t.scope, solve, iter) with
      | None, Some solve, Some iter -> Some (mk solve iter)
      | _ -> None
    in
    let spec kind i = at (int_of_string_opt i) (fun solve iter -> of_specs [ { kind; solve; iter } ]) in
    let proc kind iter =
      at iter (fun solve iter -> of_specs ~procs:[ { Supervise.Fault.kind; solve; iter } ] [])
    in
    match
      match (t.kind, t.args) with
      | "fail", [ i ] -> spec Fail i
      | "trunc", [ i ] -> spec Truncate i
      | "noise", [ i; m ] -> Option.bind (float_of_string_opt m) (fun m -> spec (Noise m) i)
      | "kill", [ i ] -> proc Kill (int_of_string_opt i)
      | "stall", [ i ] -> proc Stall (int_of_string_opt i)
      | "corrupt-cache", ([] | [ _ ]) -> proc Corrupt_cache (Some 0)
      | _ -> None
    with
    | Some p -> Ok p
    | None ->
        Error
          (Printf.sprintf
             "bad fault spec %S (want fail@S:I, trunc@S:I, noise@S:I:MAG, kill@S:I, \
              stall@S:I or corrupt-cache@S)"
             (Substrate.Fault_plan.token_to_string t))

  let of_string s = Result.map union (Substrate.Fault_plan.claim_all of_token s)

  (* The triggers of one attempt. Faults fire only on the first attempt
     of their target solve, so the retry ladder gets a clean re-solve to
     recover with. *)
  let triggers plan ~solve_index ~attempt =
    if attempt > 0 then []
    else List.filter (fun s -> s.solve = 0 || s.solve = solve_index) plan.specs

  let hook triggers =
    if triggers = [] then None
    else
      Some
        (fun iter ->
          Option.map
            (fun s ->
              match s.kind with
              | Fail -> Sdp.Fail_now
              | Truncate -> Sdp.Stop_now
              | Noise m -> Sdp.Perturb m)
            (List.find_opt (fun s -> s.iter = iter) triggers))

  (* How many of [triggers] a solve fired, at most one per iteration.
     The hook runs at the top of every iteration, so a trigger at
     iteration [i] fired iff the solve reached it; a solve that never ran
     the hook (a cache hit, a crashed worker) fired none. *)
  let fired_in triggers (sol : Sdp.solution) =
    let iters = List.sort_uniq compare (List.map (fun s -> s.iter) triggers) in
    let reached = List.filter (fun i -> 1 <= i && i <= sol.Sdp.iterations) iters in
    min sol.Sdp.injected (List.length reached)

  let reset plan = plan.fired <- 0
end

(* ------------------------------------------------------------------ *)
(* Retry ladder                                                       *)
(* ------------------------------------------------------------------ *)

type rung = Baseline | Equilibrate | Jitter | Relax_tol | Bump_iters

let rung_name = function
  | Baseline -> "baseline"
  | Equilibrate -> "equilibrate"
  | Jitter -> "jitter:1"
  | Relax_tol -> "relax:10"
  | Bump_iters -> "bump:3"

(* The one retry ladder: every retried solve climbs these rungs. *)
let ladder = [ Equilibrate; Jitter; Relax_tol; Bump_iters ]

(* Rungs escalate cumulatively: each attempt's parameters build on the
   previous attempt's, so e.g. the Relax_tol attempt is still
   equilibrated and jittered. *)
let apply_rung (p : Sdp.params) = function
  | Baseline -> p
  | Equilibrate -> { p with Sdp.equilibrate = true }
  | Jitter -> { p with Sdp.init_scale = 0.25; step_frac = 0.95 }
  | Relax_tol -> { p with Sdp.tol_gap = p.Sdp.tol_gap *. 10.0; tol_res = p.Sdp.tol_res *. 10.0 }
  | Bump_iters -> { p with Sdp.max_iter = p.Sdp.max_iter * 3 }

(* ------------------------------------------------------------------ *)
(* Attempts, diagnoses, policy                                        *)
(* ------------------------------------------------------------------ *)

type attempt = {
  rung : rung;
  status : Sdp.status;
  iterations : int;
  gap : float;
  primal_res : float;
  dual_res : float;
  best_score : float;
  faults_fired : int;
  time_s : float;
}

type outcome = Certified | Degraded | Failed

type diagnosis = {
  label : string;
  solve_index : int;
  attempts : attempt list;
  outcome : outcome;
  accepted_rung : rung option;
  deadline_hit : bool;
}

type policy = {
  retries_enabled : bool;
  quiet : bool;
  pipeline_deadline_s : float option;
  faults : Faults.plan;
  supervise : Supervise.ctx;
  session : Sdp.Session.t;
  clock : clock;
}

and clock = {
  mutable started : float option;
  mutable solve_count : int;
  mutable journal_rev : diagnosis list;
  (* Budget accounting: every attempt is counted here, including quiet
     probe attempts that never enter the journal, so a fresh policy's
     consumption is the true cost of the pipeline it drove. *)
  mutable attempt_count : int;
  mutable attempt_s : float;
}

let fresh_clock () =
  { started = None; solve_count = 0; journal_rev = []; attempt_count = 0; attempt_s = 0.0 }

let make ?(retries = true) ?pipeline_deadline_s ?(faults = Faults.none ())
    ?(supervise = Supervise.in_process ()) () =
  {
    retries_enabled = retries;
    quiet = false;
    pipeline_deadline_s;
    faults;
    supervise;
    session = Sdp.Session.create ();
    clock = fresh_clock ();
  }

let default () = make ()
let probe p = { p with retries_enabled = false; quiet = true }
let supervisor p = p.supervise

(* Warm starts are withheld under a fault plan: the session's
   accept-or-re-solve discipline runs up to two interior-point passes
   for one logical attempt, which would double-fire iteration-indexed
   injected faults and skew the fired-fault accounting chaos tests
   assert on. *)
let session_of p = if Faults.is_empty p.faults then Some p.session else None

let begin_pipeline p =
  p.clock.started <- Some (wall_now ());
  p.clock.solve_count <- 0;
  p.clock.journal_rev <- [];
  p.clock.attempt_count <- 0;
  p.clock.attempt_s <- 0.0;
  Faults.reset p.faults

let ensure_started p = if p.clock.started = None then p.clock.started <- Some (wall_now ())

let elapsed_s p =
  match p.clock.started with None -> 0.0 | Some t0 -> wall_now () -. t0

let out_of_time p =
  match p.pipeline_deadline_s with
  | None -> false
  | Some d ->
      ensure_started p;
      elapsed_s p >= d

let solves p = p.clock.solve_count
let journal p = List.rev p.clock.journal_rev

type budget = { attempts : int; attempt_s : float; solves : int }

let consumed p =
  { attempts = p.clock.attempt_count; attempt_s = p.clock.attempt_s; solves = solves p }
let failures p = List.filter (fun d -> d.outcome = Failed) (journal p)

(* ------------------------------------------------------------------ *)
(* Reporting                                                          *)
(* ------------------------------------------------------------------ *)

let outcome_string = function
  | Certified -> "certified"
  | Degraded -> "degraded"
  | Failed -> "failed"

let attempt_to_json a =
  Json.(
    Obj
      [ ("rung", Str (rung_name a.rung)); ("status", Str (Supervise.status_string a.status));
        ("iterations", int a.iterations); ("gap", Num a.gap); ("primal_res", Num a.primal_res);
        ("dual_res", Num a.dual_res); ("best_score", Num a.best_score);
        ("faults_fired", int a.faults_fired); ("time_s", Num a.time_s) ])

let diagnosis_to_json d =
  Json.(
    Obj
      [ ("label", Str d.label); ("solve_index", int d.solve_index);
        ("outcome", Str (outcome_string d.outcome));
        ("accepted_rung", match d.accepted_rung with Some r -> Str (rung_name r) | None -> Null);
        ("deadline_hit", Bool d.deadline_hit);
        ("attempts", Arr (List.map attempt_to_json d.attempts)) ])

let pp_attempt fmt a =
  Format.fprintf fmt "%s: %s after %d iters (gap %.2e, pres %.2e, dres %.2e%s)"
    (rung_name a.rung) (Supervise.status_string a.status) a.iterations a.gap a.primal_res
    a.dual_res
    (if a.faults_fired > 0 then Printf.sprintf ", %d fault(s) fired" a.faults_fired else "")

let pp_diagnosis fmt d =
  Format.fprintf fmt "@[<v 2>solve #%d %S: %s%s%s@,%a@]" d.solve_index d.label
    (outcome_string d.outcome)
    (match d.accepted_rung with
    | Some r when d.outcome <> Failed -> Printf.sprintf " at rung %s" (rung_name r)
    | _ -> "")
    (if d.deadline_hit then " [deadline hit]" else "")
    (Format.pp_print_list pp_attempt)
    d.attempts

let report_json p =
  let js = journal p in
  let count o = Json.int (List.length (List.filter (fun d -> d.outcome = o) js)) in
  let uncertified = List.filter (fun d -> d.outcome <> Certified) js in
  Json.(
    Obj
      [ ("solves", int (solves p)); ("faults_fired", int (Faults.fired p.faults));
        ("elapsed_s", Num (elapsed_s p)); ("certified", count Certified);
        ("degraded", count Degraded); ("failed", count Failed);
        ("diagnoses", Arr (List.map diagnosis_to_json uncertified)) ])

(* ------------------------------------------------------------------ *)
(* The orchestration engine                                           *)
(* ------------------------------------------------------------------ *)

let conclusive = function
  | Sdp.Primal_infeasible | Sdp.Dual_infeasible -> true
  | _ -> false

(* The iteration hook of one ladder attempt: the fault plan's trigger,
   then the pipeline deadline. Under supervision it travels to the
   solver worker inside every request, so it captures only numbers and
   the fault hook, never the policy (whose session would ride along),
   and it changes nothing the caller reads: what it did is read off the
   returned solution. The deadline counts from the hook's first firing,
   on top of the time already spent when the attempt began, so it never
   compares clocks of two processes. *)
let iteration_hook policy ~solve_index ~attempt (params : Sdp.params) =
  let fault_hook = Faults.hook (Faults.triggers policy.faults ~solve_index ~attempt) in
  let pipeline_d = policy.pipeline_deadline_s in
  ensure_started policy;
  let spent = elapsed_s policy in
  let first = ref None in
  let inner = params.Sdp.on_iteration in
  let hook iter =
    match (match fault_hook with Some h -> h iter | None -> None) with
    | Some f -> Some f
    | None ->
        let over =
          match pipeline_d with
          | None -> false
          | Some d ->
              let t = wall_now () in
              let t0 =
                match !first with
                | Some t0 -> t0
                | None ->
                    first := Some t;
                    t
              in
              spent +. (t -. t0) >= d
        in
        if over then Some Sdp.Stop_now else match inner with Some h -> h iter | None -> None
  in
  { params with Sdp.on_iteration = Some hook }

(* Run one logical solve through the ladder. [attempt_solve] runs the
   underlying solver with the given parameters and returns the caller's
   payload plus the raw SDP solution; [certified] is the caller's
   acceptance check (a posteriori validation, not just solver status);
   [salvageable] decides whether a non-certified payload is still worth
   surfacing as Degraded. *)
let run_ladder policy ~label ?describe ?capsule ~attempt_solve ~certified ~salvageable
    (base_params : Sdp.params) =
  ensure_started policy;
  policy.clock.solve_count <- policy.clock.solve_count + 1;
  let solve_index = policy.clock.solve_count in
  let deadline_hit = ref false in
  let rungs = Baseline :: (if policy.retries_enabled then ladder else []) in
  let finish ~attempts_rev ~outcome ~accepted_rung payload =
    let d =
      {
        label;
        solve_index;
        attempts = List.rev attempts_rev;
        outcome;
        accepted_rung;
        deadline_hit = !deadline_hit;
      }
    in
    (* Probe solves (quiet policies) expect failure as an answer — they
       neither enter the journal nor warn, so bisection steps don't read
       as pipeline failures in the report. *)
    if not policy.quiet then policy.clock.journal_rev <- d :: policy.clock.journal_rev;
    (match outcome with
    | Certified ->
        if List.length d.attempts > 1 then
          Log.info (fun k ->
              k "solve #%d %S recovered at rung %s after %d attempt(s)" solve_index label
                (match accepted_rung with Some r -> rung_name r | None -> "?")
                (List.length d.attempts))
    | Degraded ->
        (if policy.quiet then Log.debug else Log.warn) (fun k ->
            k "solve #%d %S DEGRADED (rung %s) — acceptance requires exact validation"
              solve_index label
              (match accepted_rung with Some r -> rung_name r | None -> "?"))
    | Failed ->
        (if policy.quiet then Log.debug else Log.warn) (fun k ->
            k "solve #%d %S FAILED after %d attempt(s)%s: %a" solve_index label
              (List.length d.attempts)
              (match describe with None -> "" | Some f -> Printf.sprintf " (%s)" (f ()))
              pp_diagnosis d));
    (payload, d)
  in
  let rec go params attempt_idx rungs attempts_rev best last hint =
    match rungs with
    | [] -> (
        match best with
        | Some (rung, payload, _) ->
            finish ~attempts_rev ~outcome:Degraded ~accepted_rung:(Some rung) payload
        | _ -> (
            match last with
            | Some payload -> finish ~attempts_rev ~outcome:Failed ~accepted_rung:None payload
            | None -> invalid_arg "Resilient.run_ladder: empty ladder"))
    | rung :: rest ->
        let params = apply_rung params rung in
        let t0 = wall_now () in
        let payload, (sdp : Sdp.solution) =
          attempt_solve ~attempt:attempt_idx ~hint:(Option.map fst hint)
            (iteration_hook policy ~solve_index ~attempt:attempt_idx params)
        in
        (* Every intervention that was not a fault trigger was the
           deadline's. *)
        let fired =
          Faults.fired_in (Faults.triggers policy.faults ~solve_index ~attempt:attempt_idx) sdp
        in
        policy.faults.Faults.fired <- policy.faults.Faults.fired + fired;
        if sdp.Sdp.injected > fired then deadline_hit := true;
        let a =
          {
            rung;
            status = sdp.Sdp.status;
            iterations = sdp.Sdp.iterations;
            gap = sdp.Sdp.gap;
            primal_res = sdp.Sdp.primal_res;
            dual_res = sdp.Sdp.dual_res;
            best_score = sdp.Sdp.best_score;
            faults_fired = fired;
            time_s = wall_now () -. t0;
          }
        in
        policy.clock.attempt_count <- policy.clock.attempt_count + 1;
        policy.clock.attempt_s <- policy.clock.attempt_s +. a.time_s;
        let attempts_rev = a :: attempts_rev in
        if certified payload then
          finish ~attempts_rev ~outcome:Certified ~accepted_rung:(Some rung) payload
        else
          let best =
            if salvageable payload then
              match best with
              | Some (_, _, sc) when sc <= sdp.Sdp.best_score -> best
              | _ -> Some (rung, payload, sdp.Sdp.best_score)
            else best
          in
          (* Conclusive infeasibility is an answer, not a numerical
             accident — retrying with looser tolerances cannot make an
             infeasible program feasible. Out-of-time likewise stops the
             ladder: salvage what we have. *)
          let rest = if conclusive sdp.Sdp.status || out_of_time policy then [] else rest in
          (* Retry rungs warm-start from the best salvaged iterate seen
             so far: the capsule (when the caller supplies one, another
             rung will run and this attempt's iterate is the best yet)
             seeds the next rung. *)
          let hint =
            match capsule with
            | Some f when rest <> [] ->
                let better =
                  Float.is_finite sdp.Sdp.best_score
                  &&
                  match hint with None -> true | Some (_, sc) -> sdp.Sdp.best_score < sc
                in
                if better then
                  match f sdp with
                  | Some w -> Some (w, sdp.Sdp.best_score)
                  | None -> hint
                else hint
            | _ -> hint
          in
          go params (attempt_idx + 1) rest attempts_rev best (Some payload) hint
  in
  go base_params 0 rungs [] None None None

(* One ladder attempt's solve, through the policy's supervision context
   — the one place a solve gets its warm start (the policy's session and
   the ladder's capsule). Process-level faults (kill/stall/corrupt-cache)
   target the first attempt of their logical solve only, mirroring the
   in-process fault contract, so the retry ladder demonstrably recovers.
   The current logical solve index is read off the policy clock —
   [run_ladder] has already counted this solve when an attempt runs. *)
let attempt_solver policy ~label ~attempt ?hint ?params prob =
  let proc_fault =
    if attempt = 0 then
      Supervise.Fault.for_solve (Faults.proc_specs policy.faults) policy.clock.solve_count
    else None
  in
  Supervise.solve_sdp policy.supervise ~label ?proc_fault ?session:(session_of policy) ?hint
    ?params prob

let solve_sdp policy ~label ?(params = Sdp.default_params) prob =
  let attempt_solve ~attempt ~hint p =
    let sol = attempt_solver policy ~label ~attempt ?hint ~params:p prob in
    (sol, sol)
  in
  let certified (s : Sdp.solution) = s.Sdp.status = Sdp.Optimal in
  let salvageable (s : Sdp.solution) =
    s.Sdp.status = Sdp.Near_optimal || s.Sdp.best_score < 1e-6
  in
  let describe () =
    Printf.sprintf "%d constraints, %d blocks, %d free vars"
      (Array.length prob.Sdp.constraints)
      (Array.length prob.Sdp.block_dims)
      prob.Sdp.n_free
  in
  let capsule =
    Option.map (fun _ (s : Sdp.solution) -> Sdp.warm_start_of_solution prob s) (session_of policy)
  in
  run_ladder policy ~label ~describe ?capsule ~attempt_solve ~certified ~salvageable
    params

let solve_sos policy ~label ?(params = Sdp.default_params) ?(psd_tol = 1e-7)
    ?(eq_tol = 1e-5) ?accept prob =
  let sdp_prob = lazy (Sos.sdp_problem prob) in
  let attempt_solve ~attempt ~hint p =
    let solver = attempt_solver policy ~label ~attempt ?hint in
    let sol = Sos.solve ~options:(Sos.Options.make ~solver ~params:p ~psd_tol ~eq_tol ()) prob in
    (sol, sol.Sos.sdp)
  in
  let certified =
    match accept with Some f -> f | None -> fun (s : Sos.solution) -> s.Sos.certified
  in
  (* Salvage either a feasible-but-uncertified solve (Gram slightly
     indefinite) or a best iterate that got numerically close — both are
     only accepted downstream if exact validation re-proves them. *)
  let salvageable (s : Sos.solution) =
    s.Sos.feasible
    || (s.Sos.sdp.Sdp.best_score < 1e-3
       && s.Sos.min_gram_eig >= -.(1e3 *. psd_tol)
       && s.Sos.max_eq_residual <= 1e3 *. eq_tol)
  in
  let describe () =
    let p = Lazy.force sdp_prob in
    Printf.sprintf "%d constraints, %d blocks, %d free vars"
      (Array.length p.Sdp.constraints)
      (Array.length p.Sdp.block_dims)
      p.Sdp.n_free
  in
  let capsule =
    Option.map
      (fun _ (s : Sdp.solution) -> Sdp.warm_start_of_solution (Lazy.force sdp_prob) s)
      (session_of policy)
  in
  run_ladder policy ~label ~describe ?capsule ~attempt_solve ~certified ~salvageable
    params

(* ------------------------------------------------------------------ *)
(* Fan-out                                                            *)
(* ------------------------------------------------------------------ *)

(* What one fan-out item added to the policy. *)
type tally = {
  t_solves : int;
  t_attempts : int;
  t_attempt_s : float;
  t_journal_rev : diagnosis list;  (** newest first *)
  t_fired : int;
}

let fan_out policy ~f items =
  ensure_started policy;
  let c = policy.clock and plan = policy.faults in
  let solves0 = c.solve_count
  and attempts0 = c.attempt_count
  and attempt_s0 = c.attempt_s
  and journal0 = c.journal_rev
  and fired0 = plan.Faults.fired in
  let item i x =
    let solves = c.solve_count
    and attempts = c.attempt_count
    and attempt_s = c.attempt_s
    and journaled = List.length c.journal_rev
    and fired = plan.Faults.fired in
    let v = f i x in
    let fresh = List.length c.journal_rev - journaled in
    ( v,
      {
        t_solves = c.solve_count - solves;
        t_attempts = c.attempt_count - attempts;
        t_attempt_s = c.attempt_s -. attempt_s;
        t_journal_rev = List.filteri (fun k _ -> k < fresh) c.journal_rev;
        t_fired = plan.Faults.fired - fired;
      } )
  in
  let results = Supervise.Pool.map policy.supervise ~f:item items in
  (* An inline item ran on this very clock, a forked one on its child's
     copy: start again from the state before the fan-out and add every
     item's tally in item order, so both count alike. *)
  c.solve_count <- solves0;
  c.attempt_count <- attempts0;
  c.attempt_s <- attempt_s0;
  c.journal_rev <- journal0;
  plan.Faults.fired <- fired0;
  List.map
    (Result.map (fun (v, t) ->
         c.solve_count <- c.solve_count + t.t_solves;
         c.attempt_count <- c.attempt_count + t.t_attempts;
         c.attempt_s <- c.attempt_s +. t.t_attempt_s;
         c.journal_rev <- t.t_journal_rev @ c.journal_rev;
         plan.Faults.fired <- plan.Faults.fired + t.t_fired;
         v))
    results
