(** Cells in bulk, the daemon's and the atlas's side of a
    {!Job.cell_spec}: the one admission check ({!validate}), the {!probe}
    a completed cell answers with and its {!verdict}, and {!run}, the
    cell runner used both by the local atlas pool and by the daemon's
    workers. A bulk submission ships a list of sweep cells to the daemon
    and a [submit] ships one point's cell; either way the daemon queues,
    runs, stores and dead-letters cells over the shared solve cache. *)

val validate : Job.cell_spec -> (unit, string) result
(** Structural sanity (positive degree and advection cap, non-negative
    bisection steps, a cell id, a positive finite budget if any, no axis
    twice, positive finite bounds with lo <= hi) and that every box axis
    exists at the order. The one validator: the daemon admits a job by
    it, and [verify_pll] and [verify_client] refuse a point [spec] as a
    usage error when [validate (Job.of_spec spec)] does. The empty box (the
    nominal model) is valid. *)

(** A completed cell's answer, local or remote alike, so a daemon
    answer lands in the atlas quarantine format verbatim. *)
type probe = {
  ok : bool;
  beta : float;  (** maximized invariant level when [ok] *)
  kind : string;
      (** {!Job.kinds} entry (or an atlas-side [injected]) when not
          [ok]; [""] when ok *)
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
    a kind outside that table ([injected]) is [Failed]. *)

val storable : probe -> bool
(** [verdict p <> Failed]: whether the probe is a fact about the cell's
    problem (certified, or conclusively refuted) rather than an artifact
    of budgets or faults — the one rule for what enters the daemon's
    result store. *)

val probe_to_json : probe -> Json.t
val probe_of_json : Json.t -> (probe, string) result

val run : ctx:Supervise.ctx -> ?faults:Resilient.Faults.plan -> Job.cell_spec -> probe
(** Certify one cell over [ctx]'s solve cache and journal: {!Job.certify}
    under {!Job.make_policy} (the cell budget as pipeline deadline). A
    not-ok probe carries the policy's diagnosis journal. Re-raises
    {!Supervise.Interrupted}. *)
