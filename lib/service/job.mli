(** The library-level verify-job API shared by the [verify_pll] CLI and
    the [verifyd] daemon, so verdict and exit-code semantics are defined
    once.

    A {!spec} names everything that determines the verification problem:
    the PLL order, a relative parameter point (multiples of the Table-1
    nominals, empty = nominal model), the property (P1 attractive
    invariant only, or the full P1+P2 inevitability pipeline), the
    certificate degree and search knobs, plus a per-job pipeline
    deadline. A client sends a spec to the daemon as the line of the
    one-cell job {!Bulk.of_spec} makes of it, keyed by the cell's
    fingerprint.

    {!run} executes the job under a caller-supplied {!Resilient.policy}
    (so the CLI can wire its own retry ladder and the daemon can attach
    its per-worker supervision context) and returns a flat, marshal-free
    {!outcome} whose deterministic core ({!result_json}) is byte-stable:
    replaying the same spec against a warm solve cache reproduces it
    exactly. {!certify}, the pipeline under {!run}, is also what
    certifies sweep cells ({!Bulk.run}), so points and cells share one
    classification. *)

type property = P1 | Full

val property_of_name : string -> (property, string) result
(** ["p1"] or ["full"]. *)

val order_name : Pll.order -> string
val order_of_name : string -> (Pll.order, string) result

val paper_degree : Pll.order -> int
(** The paper's certificate degree for the order: 6 third, 4 fourth. *)

type spec = {
  order : Pll.order;
  property : property;
  degree : int;
  robust : bool;  (** vertex-robust decrease over the coefficient box *)
  point : (Pll.axis * float) list;
      (** relative parameter point; each value replaces that axis's
          Table-1 interval with the degenerate point [v * nominal] *)
  bisect_steps : int;  (** P1 level-maximization bisection steps *)
  advect_iters : int;  (** Full-pipeline advection iteration cap *)
  psd_tol : float option;  (** a-posteriori PSD tolerance override *)
  eq_tol : float option;  (** a-posteriori equality tolerance override *)
  deadline_s : float option;
      (** per-job pipeline deadline (excluded from the fingerprint) *)
}

val default_spec : Pll.order -> spec
(** P1 at the paper degree for the order (6/4), nominal point,
    non-robust, 6 bisection steps, 25 advection iterations, default
    tolerances, no deadline. *)

val sort_point : (Pll.axis * float) list -> (Pll.axis * float) list
(** Canonical point order: axis declaration order. *)

val to_line : spec -> string
(** Canonical one-line rendering, magic [pll-job v1] (floats in hex so
    the round-trip is exact; the deadline is not part of it). *)

val of_line : string -> (spec, string) result
(** Inverse of {!to_line}; also reads the [deadline=] field of the
    point lines older daemon queue ledgers hold. *)

val point_of_string : string -> ((Pll.axis * float) list, string) result
(** Parse a CLI point spec like ["ip=1.05,kv=0.9"]. Empty string is the
    nominal point. *)

(** The three verdicts of the established exit-code convention. *)
type verdict = Verified | Not_established | Failed

val verdict_to_string : verdict -> string
val verdict_of_string : string -> (verdict, string) result

val exit_code : verdict -> int
(** [0] verified, [2] not established, [1] failure — the shared
    CLI/daemon exit-code discipline (124 usage and 130 interrupted are
    decided by the drivers). *)

type outcome = {
  verdict : verdict;
  beta : float;  (** maximized invariant level when verified, else 0 *)
  kind : string;  (** deterministic diagnosis kind, one of {!kinds} *)
  detail : string;  (** deterministic short detail *)
  solves : int;  (** logical solves this run spent (0 on full replay) *)
  attempts : int;
  attempt_s : float;
  deadline_hit : bool;
}

val kinds : (string * verdict) list
(** Every diagnosis kind {!run} and {!certify} emit, with the verdict
    it carries: [""] (verified); [infeasible], [level-collapse] (the
    level search found no positive level), [not-established],
    [validation-failed], [exact-unproven] (not established); and
    [solver-failure], [budget-exhausted] (the one kind with
    [deadline_hit]), [crash], [bad-point] (failed). {!Bulk.storable}
    stores what is not [Failed]. *)

val result_json : outcome -> string
(** The deterministic core only — verdict, beta, kind, detail — no
    timings or counters, so a replayed job reproduces the bytes exactly.
    The daemon's [result] reply carries the same object, derived from
    the cell probe. *)

val make_policy :
  ?supervise:Supervise.ctx -> ?faults:Resilient.Faults.plan -> spec -> Resilient.policy
(** The policy for a job or cell: default ladder, the spec's deadline
    as the pipeline deadline, optional supervision context. *)

val raw_of_box : Pll.order -> (Pll.axis * float * float) list -> (Pll.raw, string) result
(** The Table-1 model of the order with each listed axis's interval
    replaced by [[lo, hi]] in relative units ({!Pll.set_axis_relative});
    a point is the degenerate box [(a, v, v)]. [Error] names an axis
    that does not exist at this order. *)

val certify :
  policy:Resilient.policy ->
  ?validate:(Pll_core.Inevitability.report -> bool) ->
  ?exact:string ->
  spec ->
  Pll.raw ->
  outcome
(** The one certification pipeline, shared by point jobs ({!run}) and
    sweep cells ({!Bulk.run}): P1 (attractive invariant + level
    maximization, [bisect_steps]) or the full P1+P2 pipeline (advection
    capped at [advect_iters]) on the given model, failures classified
    from the policy's journal. The spec's [point] is ignored — the
    caller built the model. [exact] gates certification on exact
    rational re-validation and names the artifact saved under
    [artifacts/] in the policy's run directory; a failed re-proof is
    [exact-unproven]. [validate] is as in {!run}. On return, normal or
    by exception, the policy's supervisor is {!Supervise.release}d. *)

val run :
  policy:Resilient.policy ->
  ?validate:(Pll_core.Inevitability.report -> bool) ->
  spec ->
  outcome
(** Execute the job: {!certify} on the model at the spec's point
    ([bad-point] when an axis does not exist at the order). [validate]
    (Full property only) is the CLI's hook for printing the pipeline
    report and running extra checks (e.g. Monte-Carlo simulation);
    returning [false] downgrades a verified run to [Not_established]
    with kind [validation-failed]. Catches everything except
    {!Supervise.Interrupted}, which is re-raised so drivers can
    checkpoint and exit 130. *)
