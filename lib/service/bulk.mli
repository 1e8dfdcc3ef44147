(** Cells: the daemon's one job type.

    A cell is a box of relative parameters; a verification point is the
    degenerate box ({!of_spec}). A bulk submission ships a list of sweep
    cells to the daemon and a [submit] ships one point; either way the
    daemon queues, runs, stores and dead-letters cells over the shared
    solve cache. This module defines the shared vocabulary: the
    {!cell_spec} wire format (a canonical one-line rendering with hex
    floats), its content {!fingerprint}, the {!probe} a completed cell
    answers with and its {!verdict} — and {!run}, the one cell
    certifier, used both by the local atlas pool and by the daemon's
    workers. *)

(** Everything that determines one cell's certification problem, plus
    its sweep identity (cell id, depth) and budget. *)
type cell_spec = {
  order : Pll.order;
  degree : int;
  robust : bool;  (** certify the whole box, not just its midpoint *)
  full : bool;  (** full P1+P2 pipeline instead of P1 only *)
  exact : bool;  (** gate certification on exact re-validation *)
  bisect_steps : int;
  advect_iters : int;  (** advection cap of [full] cells *)
  psd_tol : float option;  (** a-posteriori PSD tolerance override *)
  eq_tol : float option;  (** a-posteriori equality tolerance override *)
  budget_s : float option;  (** per-cell pipeline deadline *)
  cell_id : string;
  depth : int;
  box : (Pll.axis * float * float) list;  (** per-axis [lo, hi], relative *)
}

val default_advect_iters : int
(** 20, the advection cap sweep cells have always run with. *)

val to_line : ?with_identity:bool -> cell_spec -> string
(** Canonical one-line rendering, magic [pll-cell v1], floats in hex.
    [advect_iters], [psd_tol] and [eq_tol] are rendered only when they
    differ from the cell defaults (20, none, none), so sweep cells keep
    their line and fingerprint. [with_identity:false] drops the cell id,
    depth and budget — the fingerprint input, so results are shared by
    box content, not by grid position or budget. *)

val of_line : string -> (cell_spec, string) result

val fingerprint : cell_spec -> string
(** Hex digest of [to_line ~with_identity:false] — the dedup and
    result-store key. *)

val of_spec : Job.spec -> cell_spec
(** A point job as a one-cell job: each point axis becomes a degenerate
    interval (in canonical axis order; the nominal point is the empty
    box), [full] iff the property is [Full], the deadline becomes the
    budget, [exact = false], cell id [point], depth 0. {!run} on it
    builds the model {!Job.run} builds, robust or not. *)

val validate : cell_spec -> (unit, string) result
(** Structural sanity (positive degree and advection cap, non-negative
    bisection steps, a cell id, a positive finite budget if any, no axis
    twice, positive finite bounds with lo <= hi) and that every box axis
    exists at the order. The one validator: the daemon admits a job by
    it, and [verify_pll] and [verify_client] refuse a point [spec] as a
    usage error when [validate (of_spec spec)] does. The empty box (the
    nominal model) is valid. *)

(** A completed cell's answer, local or remote alike, so a daemon
    answer lands in the atlas quarantine format verbatim. *)
type probe = {
  ok : bool;
  beta : float;  (** maximized invariant level when [ok] *)
  kind : string;
      (** {!Job.kinds} entry (or [bad-cell], or an atlas-side [injected])
          when not [ok]; [""] when ok *)
  detail : string;
  journal : Json.t option;
      (** the full diagnosis ({!Resilient.report_json}), for quarantine
          forensics; a probe stored as a string journal reads back as
          [Some (Str _)] *)
  solves : int;
  attempts : int;
  attempt_s : float;
}

val probe_fail : kind:string -> detail:string -> probe
(** A not-ok probe with zero counters and journal [{"error":DETAIL}]. *)

val crashed : why:string -> probe
(** A cell whose worker died without an answer: kind [crash], detail
    [cell worker crashed], journal [{"error":WHY}]. *)

val budget_exhausted : probe
(** A cell whose worker was killed at its budget plus {!deadline_grace_s}
    (5 s): kind [budget-exhausted]. *)

val deadline_grace_s : float

val verdict : probe -> Job.verdict
(** [Verified] when [ok], else the {!Job.kinds} verdict of [kind];
    kinds outside that table ([bad-cell], [injected]) are [Failed]. *)

val storable : probe -> bool
(** [verdict p <> Failed]: whether the probe is a fact about the cell's
    problem (certified, or conclusively refuted) rather than an artifact
    of budgets or faults — the one rule for what enters the daemon's
    result store. *)

val probe_to_json : probe -> Json.t
val probe_of_json : Json.t -> (probe, string) result

val run : ctx:Supervise.ctx -> ?faults:Resilient.Faults.plan -> cell_spec -> probe
(** Certify one cell over [ctx]'s solve cache and journal: {!Job.certify}
    on the cell midpoint (the whole box when [robust]) under a fresh
    policy with the cell budget as pipeline deadline, advection capped
    at [advect_iters] for [full] cells, and the [exact] gate saving
    [artifacts/cell-<id>.artifact]. A not-ok probe carries
    the policy's diagnosis journal ([{"error":…}] for [bad-cell], an
    axis that does not exist at the order). Re-raises
    {!Supervise.Interrupted}. *)
