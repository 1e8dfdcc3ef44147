(** Batch (atlas) cells as daemon jobs.

    A bulk submission ships a list of sweep cells to the daemon, which
    shards them into per-cell jobs over the shared solve cache and
    streams per-cell completions back. This module defines the shared
    vocabulary of that path: the {!cell_spec} wire format (a canonical
    one-line rendering with hex floats, like {!Job.to_line}), its
    content {!fingerprint}, the {!probe} payload a completed cell
    answers with — and {!run}, the one cell certifier, used both by the
    local atlas pool and by the daemon's workers. *)

(** Everything that determines one cell's certification problem, plus
    its sweep identity (cell id, depth) and budget. *)
type cell_spec = {
  order : Pll.order;
  degree : int;
  robust : bool;  (** certify the whole box, not just its midpoint *)
  full : bool;  (** full P1+P2 pipeline instead of P1 only *)
  exact : bool;  (** gate certification on exact re-validation *)
  bisect_steps : int;
  budget_s : float option;  (** per-cell pipeline deadline *)
  cell_id : string;
  depth : int;
  box : (Pll.axis * float * float) list;  (** per-axis [lo, hi], relative *)
}

val to_line : ?with_identity:bool -> cell_spec -> string
(** Canonical one-line rendering, magic [pll-cell v1], floats in hex.
    [with_identity:false] drops the cell id, depth and budget — the
    fingerprint input, so results are shared by box content, not by
    grid position or budget. *)

val of_line : string -> (cell_spec, string) result

val fingerprint : cell_spec -> string
(** Hex digest of [to_line ~with_identity:false] — the dedup and
    result-store key. *)

val validate : cell_spec -> (unit, string) result

(** A completed cell's answer, local or remote alike, so a daemon
    answer lands in the atlas quarantine format verbatim. *)
type probe = {
  ok : bool;
  beta : float;  (** maximized invariant level when [ok] *)
  kind : string;
      (** {!Job.kinds} entry (or [bad-cell], or an atlas-side [injected] /
          [crash]) when not [ok]; [""] when ok *)
  detail : string;
  journal : string option;  (** full diagnosis JSON for quarantine forensics *)
  solves : int;
  attempts : int;
  attempt_s : float;
}

val probe_fail : kind:string -> detail:string -> probe
(** A not-ok probe with zero counters and journal [{"error":DETAIL}]. *)

val probe_storable : probe -> bool
(** Whether the probe is a fact about the cell's problem (certified, or
    conclusively refuted) rather than an artifact of budgets or faults
    — only storable probes enter the daemon's result store. Agrees with
    {!Job.storable} on every kind a cell can produce; [bad-cell] is
    storable, unlike a point's [bad-point]. *)

val probe_to_json : probe -> Json.t
val probe_of_json : Json.t -> (probe, string) result

val run : ctx:Supervise.ctx -> ?faults:Resilient.Faults.plan -> cell_spec -> probe
(** Certify one cell over [ctx]'s solve cache and journal: {!Job.certify}
    on the cell midpoint (the whole box when [robust]) under a fresh
    policy with the cell budget as pipeline deadline, advection capped
    at 20 iterations for [full] cells, and the [exact] gate saving
    [artifacts/cell-<id>.artifact]. A not-ok probe carries
    the policy's diagnosis journal ([{"error":…}] for [bad-cell], an
    axis that does not exist at the order). Re-raises
    {!Supervise.Interrupted}. *)
