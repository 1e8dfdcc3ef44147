(** Fault-tolerant certification atlas: sweep the Table-1 circuit
    parameters over a grid of boxes and certify inevitability of
    phase-locking cell by cell, surviving solver failures, worker
    crashes and orchestrator kills.

    Each {e cell} of the grid is a box of circuit parameters in relative
    units (multiples of the Table-1 nominals, see
    {!Pll.set_axis_relative}). A cell is certified by
    {!Service.Bulk.run} — the attractive-invariant search (property P1)
    or the full inevitability pipeline, the same code that serves point
    jobs — on the model it induces, under a fresh {!Resilient} policy
    wired to a shared {!Supervise} context, so every
    interior-point solve is isolated, cached and journaled. When a cell
    cannot be certified the orchestrator {e subdivides} it (bisecting
    its widest axis, up to a depth limit): lock certificates often exist
    on parts of a box where the whole-box search fails. A cell that
    still fails at the depth limit is {e quarantined} with a structured
    diagnosis — and the sweep continues; one pathological corner of
    parameter space never takes down the atlas.

    Restartability is atlas-level, layered {e over} the per-solve cache:
    a write-ahead ledger ([ledger.log] in the run directory) records
    each cell's outcome, fsync'd before the sweep moves on. A run killed
    mid-sweep (kill -9 included) resumes with [--resume]: ledgered cells
    replay instantly, in-flight cells re-run against the solve cache
    (zero re-solves for anything that completed), and the final
    [atlas.json] is byte-identical to an uninterrupted run's — which is
    also independent of the job count, so [-j 1] and [-j N] agree. *)

(** The sweep grid: per-axis subdivided ranges in relative units. *)
module Grid : sig
  type range = {
    axis : Pll.axis;
    lo : float;  (** relative to the Table-1 nominal; > 0 *)
    hi : float;
    n : int;  (** number of grid cells along this axis; >= 1 *)
  }

  type t = range list
  (** Non-empty; axes distinct, in spec order. *)

  val parse : string -> (t, string) result
  (** Parse a spec like ["ip=0.8:1.2:3,kv=0.9:1.1:2"]: comma-separated
      [axis=LO:HI:N] entries ([N] optional, default 1; [LO:HI] may be a
      single value for a point range). *)

  val to_string : t -> string
  (** Canonical rendering; [parse] of it round-trips. *)

  val n_cells : t -> int
end

(** One cell of the atlas: a box in relative parameter units. *)
type cell = {
  id : string;
      (** Grid cells are [c<i>-<j>-...] (one index per grid axis, spec
          order); subdivision children append [.0] / [.1]. *)
  depth : int;  (** 0 for grid cells *)
  box : (Pll.axis * float * float) list;  (** per-axis [lo, hi], relative *)
}

val grid_cells : Grid.t -> cell list
(** The depth-0 cells, sorted by id. *)

val split : cell -> (cell * cell) option
(** Bisect the widest axis of the box (ties: first axis in box order)
    into children [<id>.0] (lower half) and [<id>.1]; [None] when every
    axis is (numerically) a point, in which case subdivision cannot make
    progress and the cell must be quarantined. *)

(** A quarantine diagnosis: a small, deterministic classification that
    goes into [atlas.json]. The full solver journal (with timings) is
    written separately to [quarantine/<id>.json] in the run directory. *)
type diagnosis = {
  kind : string;
      (** [infeasible] (solver conclusively refuted the relaxation),
          [solver-failure], [level-collapse] (certificate found but no
          positive level certifies), [budget-exhausted], [crash],
          [injected] (a [fail-cell] fault), [bad-cell] (the cell's box
          is invalid for this order — never subdivided),
          [not-established] (full pipeline completed but did not verify
          inevitability), [exact-unproven] (exact re-validation of a
          found certificate failed), [ledger-inconsistent] (resume
          found an entry that contradicts the grid) *)
  detail : string;
}

type cell_result =
  | Certified of { beta : float }  (** maximized invariant level *)
  | Subdivided
  | Quarantined of diagnosis

(** What the sweep certifies and how hard it may try. *)
type job = {
  order : Pll.order;
  degree : int;
  robust : bool;
      (** certify each cell's whole parameter {e box} (vertex
          enforcement); otherwise certify the cell's midpoint *)
  full : bool;  (** run the full P1+P2 pipeline instead of P1 only *)
  exact : bool;
      (** re-prove each certified cell in exact arithmetic and persist
          [artifacts/cell-<id>.artifact] for [check_cert] replay *)
  bisect_steps : int;  (** level-maximization bisection steps *)
  max_subdiv : int;  (** maximum subdivision depth *)
  cell_budget_s : float option;  (** per-cell pipeline deadline *)
}

val default_job : Pll.order -> job
(** Paper degree for the order, non-robust, P1 only, no exact replay,
    6 bisection steps, [max_subdiv = 2], no budget. *)

val fingerprint : job -> Grid.t -> string
(** Canonical one-line rendering of everything that determines the
    per-cell problems — the {!Supervise.Config_guard} fingerprint.
    Deliberately excludes the fault plan, job count and budgets: a
    chaos run is resumed by a plain run of the same problem. *)

(** Atlas-level fault plans, in the {!Substrate.Fault_plan} grammar. On
    top of the in-process and process-level kinds of {!Resilient.Faults}
    (which apply to every cell, or to one cell via a [CELL/tok] scope),
    two orchestrator-level kinds exercise the sweep's own crash
    recovery. *)
module Fault : sig
  type t =
    | Kill_at_cell of string
        (** [kill@CELL]: the orchestrator [_exit]s (as if SIGKILLed)
            immediately after ledgering CELL's completion — the resume
            chaos fault. A [kill@S:I] solve trigger stays a worker
            fault ([Global]). *)
    | Fail_cell of string
        (** [fail-cell@CELL]: CELL and its descendants fail without
            solving (diagnosis kind [injected]) — drives subdivision
            into quarantine deterministically *)
    | Cell_scoped of string * Resilient.Faults.plan
        (** [CELL/tok]: a {!Resilient.Faults} token applied to that
            cell's solves only *)
    | Global of Resilient.Faults.plan
        (** a bare {!Resilient.Faults} token: every cell *)

  type plan = t list

  val none : plan

  val of_string : string -> (plan, string) result
  val to_string : plan -> string
end

(** One row of the final atlas. *)
type record = {
  cell : cell;
  result : cell_result;
  replayed : bool;  (** satisfied from the ledger, not re-certified *)
  solves : int;  (** logical solves spent on this cell (0 when replayed) *)
  attempts : int;
  attempt_s : float;
}

type report = {
  job : job;
  grid : Grid.t;
  records : record list;  (** sorted by cell id *)
  certified : int;
  subdivided : int;
  quarantined : int;
  replayed_cells : int;
  wall_s : float;
}

val certified_fraction : report -> float
(** Certified leaves over all leaves (subdivided cells are interior). *)

val depth_histogram : report -> (int * int) list
(** [(depth, cells recorded at that depth)], ascending. *)

val quarantine_list : report -> (string * diagnosis) list

val report_json : report -> string
(** The [atlas.json] payload. Deterministic: independent of wall-clock,
    job count, replay history and run-directory paths, so interrupted+
    resumed and uninterrupted sweeps of the same job produce identical
    bytes. *)

val pp_summary : Format.formatter -> report -> unit
(** Human-readable sweep summary (this side includes timings). *)

val exit_code : report -> int
(** [0] fully certified, [2] completed with quarantined cells. *)

(** The write-ahead atlas ledger ([ledger.log]), a {!Substrate.Wal}
    with magic [pll-atlas-ledger v1], [start <id>] lines and
    [done <id> <depth> <status> <beta> <solves> <attempts> <attempt_s>
    <kind> <detail>] lines (floats in [%h]). Exposed for tests. *)
module Ledger : sig
  type entry = {
    id : string;
    depth : int;
    result : cell_result;
    solves : int;
    attempts : int;
    attempt_s : float;
  }

  val path : string -> string

  val read : string -> entry list * string list
  (** Completed cells of a run directory's ledger (last entry per id
      wins; insertion order preserved) plus one diagnosis per malformed
      or torn line. Missing ledger reads as [([], [])]. *)

  val append : string -> entry -> unit
  (** Fsync'd append of a [done] line; raises if the fsync fails. *)

  val mark_start : string -> string -> unit
  (** Fsync'd append of a [start CELL] line (crash forensics: which
      cells were in flight). *)
end

type exec = cell list -> (Service.Bulk.probe, string) result list
(** An execution backend for one wave of cells: same length and order
    as its input; [Error] quarantines the cell (kind [crash]). Cells are
    certified by {!Service.Bulk.run}, whichever backend runs them. *)

val exec_via_daemon :
  sock:string -> ?retries:int -> ?retry_base_s:float -> job -> exec
(** Bulk execution over a running daemon: ships each wave as one [bulk]
    request, collects streamed [cell-result] lines (keyed by content
    fingerprint, so daemon-side dedup still answers every cell),
    resubmits deferred cells after their [retry_after_s] hint, and
    survives daemon restarts by reconnecting with jittered exponential
    backoff ([retries] extra rounds, default 10, base [retry_base_s]
     0.5 s). Cells still unanswered when the budget exhausts return
    [Error] — quarantined by the sweep, never a wedge. *)

val run :
  ctx:Supervise.ctx ->
  ?faults:Fault.plan ->
  ?exec:exec ->
  resume:bool ->
  job ->
  Grid.t ->
  (report, string) result
(** Execute the sweep. The context's run directory (when present) holds
    the ledger, the per-solve cache/journal, quarantine diagnoses and
    proof artifacts; [run] also writes [atlas.json] and [summary.txt]
    there on completion. With [resume:false] a run directory whose
    ledger already has entries is refused (use [--resume], or a fresh
    directory); with [resume:true] ledgered cells are replayed.
    [exec] overrides the execution backend (default: the local
    {!Supervise.Pool} over the context's job count; pass
    {!exec_via_daemon} to run cells through a daemon — ledger, replay,
    subdivision and quarantine behave identically, and [atlas.json] is
    byte-identical across backends).
    [Error] is reserved for setup problems (bad grid/axis combinations,
    refused resume) — per-cell trouble is quarantine, not an error.
    Raises {!Supervise.Interrupted} on SIGINT/SIGTERM checkpoints. *)
