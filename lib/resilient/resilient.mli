(** Resilient solve orchestration for the SOS/SDP pipeline.

    Every result of the verification pipeline (Theorem-1 certificates,
    the Lemma-1 level bisection, Algorithm-1 advection, escape and
    barrier certificates) rests on a chain of interior-point SDP solves,
    and the from-scratch solver can return [Numerical_failure] or
    [Max_iterations] on ill-conditioned instances. This module turns a
    single fragile SOS or SDP solve into an orchestrated one:

    - a fixed {e retry ladder}: on a non-certified outcome,
      re-solve with escalating interventions — Jacobi equilibration of
      the problem data, deterministic jittered restarts, relaxed
      tolerances, bumped iteration limits (margin/degree adjustment for
      certificate searches lives in {!Certificates}, which composes with
      this ladder);
    - a {e pipeline deadline} with best-iterate salvage, enforced
      through the solver's [on_iteration] hook — a stuck solve degrades
      to its best iterate instead of hanging (a bound per solve is the
      supervisor's wall-clock timeout, [Supervise.create
      ~solve_timeout_s]);
    - a {e graceful degradation} contract: a non-certified but
      salvageable solution is surfaced as [Degraded]; callers must gate
      acceptance on the exact kernel ([Certificates.validate_exactly] /
      [Exact.Check]) re-proving it;
    - structured, machine-readable {e diagnoses}: which labelled
      condition failed, every rung attempted, and per-attempt status /
      residuals / iteration counts ({!journal}, {!report_json});
    - a deterministic {e fault-injection harness} ({!Faults}) that
      forces solver failures at chosen (solve, iteration) sites, so
      tests can prove each recovery path is actually exercised.

    A {!policy} value doubles as the pipeline context: it carries the
    (mutable) deadline clock, logical solve counter and diagnosis
    journal, so one policy threaded through a whole pipeline gives a
    shared deadline and a single chronological journal. Create a fresh
    policy per pipeline (or call {!begin_pipeline}). Deadlines are
    wall-clock seconds: CPU time neither advances while a supervised
    worker process solves nor survives a fork, so under {!Supervise}
    isolation wall clock is the only base that measures the pipeline
    truthfully.

    Every ladder attempt's interior-point solve goes through the
    policy's {!Supervise.ctx} ({!Supervise.solve_sdp}), which is also
    where its warm start is chosen. Without [make ~supervise] that is an
    in-process context ({!Supervise.in_process}): the solve runs inline,
    with no cache or journal. With a supervisor it runs in a forked
    worker under the supervisor's wall-clock timeout and memory cap,
    consults the content-addressed solve cache, and is journaled for
    [--resume]; worker crashes and timeouts come back as
    [Numerical_failure] / [Max_iterations] attempts that the ladder
    escalates exactly like in-process failures. *)

val set_wall_clock_source : (unit -> float) option -> unit
(** Replace (or with [None] restore) the wall-clock source
    ([Unix.gettimeofday]) — a test hook, so deadline behaviour is
    checkable without waiting. Global; affects every policy. *)

(** Backoff for re-dispatched and reconnecting work (the verification
    daemon's crashed jobs, the clients' retries): a capped exponential,
    doubling per attempt and stretched by at most 25 % of jitter. *)
module Backoff : sig
  type policy = {
    base_s : float;  (** wait before attempt 1 *)
    max_s : float;  (** cap (before jitter) *)
  }

  val default_policy : policy
  (** 0.25 s doubling to a 10 s cap. *)

  val jitter : key:string -> attempt:int -> float
  (** Deterministic in [0,1): a hash of [(key, attempt)] — stable
      across runs, decorrelated across keys. *)

  val backoff_s : policy -> key:string -> attempt:int -> float
  (** Seconds to wait before attempt [attempt] (1-based):
      [min max_s (base_s * 2^(attempt-1))], stretched by at most 25 %
      via {!jitter}. *)
end

(** Deterministic fault injection. A plan is a set of (kind, logical
    solve index, iteration) triggers; each fires on the {e first}
    attempt of its target solve only, so the retry ladder can
    demonstrably recover. Process-level kinds ([kill@S:I], [stall@S:I],
    [corrupt-cache@S] — see {!Supervise.Fault}) parse out of the same
    plan string and fire through the supervisor, under the same
    first-attempt-only contract. *)
module Faults : sig
  type kind =
    | Fail  (** force [Sdp.Numerical_failure] *)
    | Truncate  (** force an early stop with best-iterate salvage *)
    | Noise of float  (** inject symmetric Gram noise of this magnitude *)

  type spec = {
    kind : kind;
    solve : int;  (** 1-based logical solve index under the policy; 0 = every solve *)
    iter : int;  (** interior-point iteration at which the fault fires *)
  }

  type plan

  val none : unit -> plan
  val of_specs : ?procs:Supervise.Fault.spec list -> spec list -> plan

  val of_token : Substrate.Fault_plan.token -> (plan, string) result
  (** Claim one token as [fail@S:I], [trunc@S:I], [noise@S:I:MAG], or a
      process-level [kill@S:I], [stall@S:I], [corrupt-cache@S[:I]] (a
      {!Supervise.Fault.spec}), with [S] a solve index or [*]; any other
      token (scoped ones included) is an [Error]. *)

  val of_string : string -> (plan, string) result
  (** {!union} of every token's {!of_token}. [""] and ["none"] are the
      empty plan. *)

  val union : plan list -> plan
  (** All the triggers of [plans], in order, under a fresh fired count. *)

  val to_tokens : plan -> Substrate.Fault_plan.token list
  (** In-process triggers first, then process-level ones. *)

  val to_string : plan -> string
  (** The tokens of {!to_tokens}, comma-separated ([""] when empty). *)

  val is_empty : plan -> bool

  val proc_specs : plan -> Supervise.Fault.spec list
  (** The process-level triggers of the plan (effective only when the
      policy carries a supervisor). *)

  val fired : plan -> int
  (** How many {e in-process} injections have fired so far, in the
      process that ran the ladder or in the solver worker alike: the
      ladder counts them from each attempt's solution. Process-level
      faults are counted by {!Supervise.stats} instead. *)
end

(** One rung of the retry ladder. Every retried solve climbs the same
    ladder, [Equilibrate; Jitter; Relax_tol; Bump_iters], and rungs
    apply {e cumulatively} — each attempt escalates on top of the
    previous parameter set. *)
type rung =
  | Baseline  (** the caller's own parameters (always attempt 0) *)
  | Equilibrate  (** Jacobi preconditioning of the SDP data *)
  | Jitter  (** a deterministic restart: initial point scaled by 0.25
                and step fraction 0.95 *)
  | Relax_tol  (** [tol_gap] and [tol_res] times 10 *)
  | Bump_iters  (** [max_iter] times 3 *)

val rung_name : rung -> string
(** [baseline], [equilibrate], [jitter:1], [relax:10], [bump:3]. *)

(** Everything recorded about one solve attempt. *)
type attempt = {
  rung : rung;
  status : Sdp.status;
  iterations : int;
  gap : float;
  primal_res : float;
  dual_res : float;
  best_score : float;
  faults_fired : int;  (** injections that fired during this attempt *)
  time_s : float;
}

type outcome =
  | Certified  (** an attempt passed the caller's certification check *)
  | Degraded
      (** best attempt is salvageable ((near-)feasible with small
          best-iterate score) but not float-certified — only acceptable
          if the exact kernel re-proves it *)
  | Failed

(** The structured failure/recovery record of one logical solve. *)
type diagnosis = {
  label : string;  (** which condition this solve certifies *)
  solve_index : int;  (** 1-based logical solve index under the policy *)
  attempts : attempt list;  (** chronological: baseline first *)
  outcome : outcome;
  accepted_rung : rung option;  (** the rung whose attempt was accepted *)
  deadline_hit : bool;
}

val diagnosis_to_json : diagnosis -> Substrate.Json.t
(** The diagnosis as a value: a crashed attempt's infinite [gap],
    residuals and [best_score] print as ["inf"] ({!Substrate.Json}). *)

(** A salvageable-but-uncertified solution is always surfaced as
    [Degraded] rather than [Failed]; acceptance must then be gated by
    exact validation. *)
type policy = {
  retries_enabled : bool;
  quiet : bool;
      (** probe mode: non-certified outcomes are expected answers — they
          are not journaled and log at debug level only *)
  pipeline_deadline_s : float option;
      (** wall-clock budget for the whole pipeline sharing this policy *)
  faults : Faults.plan;
  supervise : Supervise.ctx;
      (** every ladder attempt solves through {!Supervise.solve_sdp} on
          this context (an in-process one unless [make ~supervise]) *)
  session : Sdp.Session.t;
      (** warm-start session shared by every solve under this policy:
          bisection rungs and sweep neighbours of the same problem
          structure resume from the previous clean iterate, and retry
          rungs warm-start from the best salvaged one. Withheld while a
          fault plan is active: the session's warm-attempt/cold-re-solve
          discipline can run two interior-point passes for one logical
          attempt, which would double-fire iteration-indexed injected
          faults. *)
  clock : clock;  (** mutable pipeline state (journal, counter, clock) *)
}

and clock

val make :
  ?retries:bool ->
  ?pipeline_deadline_s:float ->
  ?faults:Faults.plan ->
  ?supervise:Supervise.ctx ->
  unit ->
  policy
(** Fresh policy (fresh clock/journal, fresh warm-start session).
    Defaults: retries on (the one ladder), no deadline, no faults, a
    fresh {!Supervise.in_process} context. *)

val default : unit -> policy

val probe : policy -> policy
(** The same policy (sharing clock, journal, faults, deadlines and
    supervisor) with retries disabled and [quiet] set — for call sites
    where a solver failure is an expected {e answer} (feasibility
    probes, bisection steps) rather than an error worth escalating or
    journaling. *)

val supervisor : policy -> Supervise.ctx

val begin_pipeline : policy -> unit
(** Reset the clock, solve counter, journal and fault counters; start
    the pipeline deadline now. Implicit on the first solve otherwise. *)

val out_of_time : policy -> bool
val elapsed_s : policy -> float

val solves : policy -> int
(** Logical solves run under this policy so far. *)

val iteration_hook : policy -> solve_index:int -> attempt:int -> Sdp.params -> Sdp.params
(** [params] with the [on_iteration] hook that {!solve_sos} and
    {!solve_sdp} install for one attempt: the fault plan's trigger for
    [(solve_index, attempt)], then the pipeline deadline, then the
    caller's own hook. Under supervision the hook is marshalled into
    every worker request, so it captures no more than the deadline, the
    pipeline time spent so far and the fault trigger — never the policy
    itself — and it changes nothing in the caller's process: the ladder
    reads which faults fired, and whether the deadline stopped the
    solve, off the returned solution's [iterations] and [injected]. *)

(** Cumulative resource accounting for one policy/pipeline — the basis
    of per-cell budgets in the sweep orchestrator: an atlas cell gets a
    fresh policy, so [consumed] is exactly what that cell cost,
    including quiet probe solves that never enter the journal. *)
type budget = {
  attempts : int;  (** individual solver attempts, across all rungs *)
  attempt_s : float;  (** total attempt time, in wall-clock seconds *)
  solves : int;  (** logical solves (= {!solves}) *)
}

val consumed : policy -> budget
(** Resources consumed since policy creation / {!begin_pipeline}. *)

val journal : policy -> diagnosis list
(** All diagnoses, chronological. *)

val failures : policy -> diagnosis list

val report_json : policy -> Substrate.Json.t
(** Machine-readable pipeline report: solve/fault counters, elapsed
    time, and the full diagnosis of every failed (and degraded) solve
    with its attempt history. *)

val solve_sos :
  policy ->
  label:string ->
  ?params:Sdp.params ->
  ?psd_tol:float ->
  ?eq_tol:float ->
  ?accept:(Sos.solution -> bool) ->
  Sos.t ->
  Sos.solution * diagnosis
(** Orchestrated [Sos.solve], its SDP solved by {!Supervise.solve_sdp}
    on the policy's context: run the baseline attempt and then the
    ladder until an attempt is accepted — by default when the solution
    is [certified] (the a posteriori Gram PSD/residual checks pass);
    [accept] overrides the criterion (e.g. plain feasibility for
    multiplier re-solves whose soundness is established downstream by
    the exact kernel). Conclusive infeasibility
    ([Primal_infeasible]/[Dual_infeasible]) is an answer and is not
    retried. The returned solution is the accepted attempt's, or the
    best salvageable one, or the last attempt's; consult the diagnosis
    (also appended to the policy journal) before trusting it. *)

val solve_sdp :
  policy ->
  label:string ->
  ?params:Sdp.params ->
  Sdp.problem ->
  Sdp.solution * diagnosis
(** Orchestrated SDP solve through {!Supervise.solve_sdp};
    certification = [Optimal] status, salvage = [Near_optimal] or a
    small best-iterate score. *)

val fan_out : policy -> f:(int -> 'a -> 'b) -> 'a list -> ('b, string) result list
(** [f i item] for each independent item, as the items of a
    {!Supervise.Pool.map} on the policy's context: in forked children
    when the context forks, inline otherwise. Each item's solves,
    attempts, attempt time, diagnoses and fired in-process faults are
    added to [policy] in item order, so a forked item counts exactly as
    an inline one (forked items number their solves from the count at
    the fork). [f]'s result must be marshal-safe. An item that raises,
    crashes or is killed yields [Error] for itself only, and its work is
    not counted. *)
