(** The library-level verify-job API shared by the [verify_pll] CLI, the
    [verifyd] daemon and the atlas, so verdict and exit-code semantics
    are defined once.

    What is certified, queued, stored and fingerprinted is a
    {!cell_spec}: a box of relative parameters with the certification
    configuration, one line ({!cell_to_line}, magic [pll-cell v1]) and
    one {!fingerprint}. A {!spec} is how the CLIs and the daemon client
    name a point job — the PLL order, a relative parameter point
    (multiples of the Table-1 nominals, empty = nominal model), the
    property (P1 attractive invariant only, or the full P1+P2
    inevitability pipeline), the certificate degree and search knobs,
    plus a per-job pipeline deadline — and {!of_spec} converts it once
    into the degenerate box it stands for.

    {!certify} is the one certification entry: {!run} calls it on a
    point's cell under a caller-supplied {!Resilient.policy} (so the CLI
    can wire its own retry ladder), and {!Bulk.run} on sweep and daemon
    cells. It returns a flat, marshal-free {!outcome} whose
    deterministic core ({!result_json}) is byte-stable: replaying the
    same cell against a warm solve cache reproduces it exactly. *)

type property = P1 | Full

val property_of_name : string -> (property, string) result
(** ["p1"] or ["full"]. *)

val order_name : Pll.order -> string

val paper_degree : Pll.order -> int
(** The paper's certificate degree for the order: 6 third, 4 fourth. *)

(** Everything that determines one cell's certification problem, plus
    its sweep identity (cell id, depth) and budget. Declared before
    {!spec}, whose labels callers read unqualified. *)
type cell_spec = {
  order : Pll.order;
  degree : int;
  robust : bool;  (** certify the whole box, not just its midpoint *)
  property : property;  (** [full=true|false] on the line *)
  exact : bool;  (** gate certification on exact re-validation *)
  bisect_steps : int;
  advect_iters : int;  (** advection cap of [Full] cells *)
  psd_tol : float option;  (** a-posteriori PSD tolerance override *)
  eq_tol : float option;  (** a-posteriori equality tolerance override *)
  budget_s : float option;  (** per-cell pipeline deadline *)
  cell_id : string;
  depth : int;
  box : (Pll.axis * float * float) list;  (** per-axis [lo, hi], relative *)
}

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
    tolerances, no deadline. These are the point defaults of every CLI
    and of the cell line; only the advection cap differs for cells
    ({!default_advect_iters}). *)

val point_of_string : string -> ((Pll.axis * float) list, string) result
(** Parse a CLI point spec like ["ip=1.05,kv=0.9"]. Empty string is the
    nominal point. *)

val default_advect_iters : int
(** 20, the advection cap sweep cells have always run with. *)

val cell_to_line : ?with_identity:bool -> cell_spec -> string
(** Canonical one-line rendering, magic [pll-cell v1], floats in hex.
    [advect_iters], [psd_tol] and [eq_tol] are rendered only when they
    differ from the cell defaults (20, none, none), so sweep cells keep
    their line and fingerprint. [with_identity:false] drops the cell id,
    depth and budget — the fingerprint input, so results are shared by
    box content, not by grid position or budget. *)

val cell_of_line : string -> (cell_spec, string) result
(** Inverse of {!cell_to_line}; absent fields take {!default_spec}'s
    degree and bisection steps and the cell advection cap. *)

val fingerprint : cell_spec -> string
(** Hex digest of [cell_to_line ~with_identity:false] — the dedup and
    result-store key. *)

val of_spec : spec -> cell_spec
(** A point job as a one-cell job: each point axis becomes a degenerate
    interval (in canonical axis order; the nominal point is the empty
    box), the deadline becomes the budget, [exact = false], cell id
    [point], depth 0. *)

val to_line : spec -> string
(** The identity-free line of the point's cell,
    [cell_to_line ~with_identity:false (of_spec spec)]: independent of
    the order the point lists its axes in and of the deadline. *)

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
    [deadline_hit]), [crash], [bad-cell] (failed). {!Bulk.storable}
    stores what is not [Failed]. *)

val result_json : outcome -> string
(** The deterministic core only — verdict, beta, kind, detail — no
    timings or counters, so a replayed job reproduces the bytes exactly.
    The daemon's [result] reply carries the same object, derived from
    the cell probe. *)

val make_policy :
  ?supervise:Supervise.ctx -> ?faults:Resilient.Faults.plan -> cell_spec -> Resilient.policy
(** The policy for a cell: default ladder, the cell's budget as the
    pipeline deadline, optional supervision context. *)

val raw_of_box : Pll.order -> (Pll.axis * float * float) list -> (Pll.raw, string) result
(** The Table-1 model of the order with each listed axis's interval
    replaced by [[lo, hi]] in relative units ({!Pll.set_axis_relative});
    a point is the degenerate box [(a, v, v)]. [Error] names an axis
    that does not exist at this order. *)

val certify :
  policy:Resilient.policy ->
  ?validate:(Pll_core.Inevitability.report -> bool) ->
  cell_spec ->
  outcome
(** The one certification entry, for point jobs ({!run}) and sweep and
    daemon cells ({!Bulk.run}): the model at the cell's midpoint (the
    whole box when [robust]; [bad-cell] when an axis does not exist at
    the order), then P1 (attractive invariant + level maximization,
    [bisect_steps]) or the full P1+P2 pipeline (advection capped at
    [advect_iters]), failures classified from the policy's journal. The
    cell's budget is not read: the policy carries the deadline. An
    [exact] cell is certified only when the exact rational re-validation
    proves it, and its artifact is saved as
    [artifacts/cell-<id>.artifact] in the policy's run directory; a
    failed re-proof is [exact-unproven]. [validate] (Full property only)
    is the CLI's hook for printing the pipeline report and running extra
    checks (e.g. Monte-Carlo simulation); returning [false] downgrades a
    verified run to [Not_established] with kind [validation-failed].
    Catches everything except {!Supervise.Interrupted}, which is
    re-raised so drivers can checkpoint and exit 130. On return, normal
    or by exception, the policy's supervisor is {!Supervise.release}d. *)

val run :
  policy:Resilient.policy ->
  ?validate:(Pll_core.Inevitability.report -> bool) ->
  spec ->
  outcome
(** [certify ~policy ?validate (of_spec spec)]. *)
