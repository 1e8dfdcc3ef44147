(** The verification daemon: a single-process [Unix.select] loop that
    accepts verify jobs over a Unix-domain socket (newline-delimited
    JSON), runs each job in a worker over the shared content-addressed
    solve cache, and survives crashes of either side. Workers are the
    items of one {!Supervise.Pool}: each answers its job's probe in one
    frame over a pipe, the loop selects on the pool's pipes next to the
    clients and lets the pool settle them, so an answer, or a worker's
    death (end of file with no answer), wakes it at once. The pool owns
    every worker's process, heartbeat lease ([lease_ttl_s]) and
    deadline; the daemon keeps the policy — queue, admission, breaker,
    re-dispatch with backoff, dead letters and the result store — and
    forks nothing itself. Each admitted, unsettled job is one in-flight
    record (queue entry, worker pid, waiters, detached flag, attempt
    count, backoff time, attempt history), held by id and by
    fingerprint; settling the job drops it from both.
    The daemon has one job type, the {!Job.cell_spec}, and one wire
    encoding for it, the canonical cell line: a [submit] carries the
    line of the one-cell job {!Job.of_spec} makes of a point, a [bulk]
    request a list of such lines, and both are parsed by {!Job.cell_of_line}
    and checked by {!Bulk.validate} (an axis absent at the order is an
    [error] reply). Workers certify every job with {!Bulk.run}, over
    the one solve context the daemon opens on its run directory at
    start (its cache, and its journal, which gains one [run] line per
    daemon lifetime). Each
    waiter is answered in its command's terms: a [result] for a submit,
    a [cell-result] for a bulk cell.

    Robustness surface (see DESIGN.md §6g):

    - {e durable queue}: every admission and state change is an fsync'd
      append to the {!Jobqueue} ledger before the daemon acts on it, so
      kill -9 never loses an admitted job; on restart with [--resume],
      terminal jobs are compacted away and in-flight ones re-dispatch
      against the warm solve cache (zero re-solves for completed work);
    - {e backpressure}: a bounded admission queue — beyond
      [queue_cap], submits receive a structured [overloaded] refusal
      with a retry-after hint instead of growing memory;
    - {e dedup}: jobs are keyed by {!Job.fingerprint}; a submit or
      bulk cell matching an in-flight job attaches to it instead of
      re-solving, and one matching the per-fingerprint result store
      (probes {!Bulk.storable} accepts) is answered immediately from
      disk;
    - {e per-job deadlines}: the cell budget (or [default_deadline_s])
      rides into the worker's pipeline policy; the pool SIGKILLs a
      wedged worker at budget + {!Bulk.deadline_grace_s} and the job is
      answered {!Bulk.budget_exhausted}, as a local atlas cell is;
    - {e cancellation}: a waiting client that disconnects cancels its
      job (pending jobs leave the queue; running workers are killed)
      unless another client shares it or it was submitted no-wait;
    - {e leases}: a worker whose heartbeats stop for [lease_ttl_s] is
      reclaimed by the pool and takes the crash path below;
    - {e supervision + circuit breaker}: a crashed worker is retried
      with exponential backoff, and dead-lettered and answered as a
      [crash] once [job_retries] run out (each attempt's line in the
      record gives the worker's exit reason or exception); repeated
      consecutive crashes open the breaker and the daemon degrades to cache-only serving
      (structured [degraded] refusals) until a cooldown and a
      successful probe close it again;
    - {e graceful drain}: SIGTERM (or a [stop] request) stops
      admission, lets running workers finish, checkpoints the pending
      queue in the ledger, notifies waiting clients, fsyncs and exits
      0; SIGINT kills workers and exits 130. SIGPIPE is ignored and
      [EPIPE] on a client socket is treated as that client
      disconnecting. *)

(** Daemon-level chaos faults in the {!Substrate.Fault_plan} grammar,
    the kinds of {!Resilient.Faults} / {!Supervise.Fault} one level up.
    [KEY] is the verbatim text after ['@']. Each fires
    once (except [kill-cell], which fires on every dispatch of its
    target). [KEY] matches a job's id or its cell id (job ids depend on
    submission order, sweep cell ids do not). *)
module Fault : sig
  type t =
    | Kill_worker of string
        (** [kill-worker@KEY]: SIGKILL KEY's worker right after launch —
            the retry/backoff path *)
    | Stall_worker of string
        (** [stall-worker@KEY]: KEY's worker stays alive but never
            heartbeats — the lease-expiry reclaim path *)
    | Kill_cell of string
        (** [kill-cell@KEY]: SIGKILL KEY's worker on {e every} dispatch
            attempt, so the re-dispatch budget exhausts and the job
            dead-letters deterministically *)
    | Drop_client of string
        (** [drop-client@KEY]: server-side close of the submitting
            client right after KEY is admitted — the
            cancellation-on-disconnect path *)
    | Wedge_queue
        (** [wedge-queue]: the dispatcher never starts a job, so the
            bounded queue fills and load-shedding is observable
            deterministically *)
    | Die_at of string
        (** [die@KEY]: the daemon [_exit 137]s immediately after
            ledgering KEY's start — a deterministic kill -9 mid-job for
            the crash-safe-restart test *)

  type plan = t list

  val none : plan

  val of_string : string -> (plan, string) result
  val to_string : plan -> string
end

type config = {
  run_dir : string;
  sock : string option;  (** default: [<run_dir>/verifyd.sock] *)
  workers : int;  (** max concurrent job workers *)
  queue_cap : int;  (** bounded admission queue length *)
  cache_max_mb : int option;
      (** size-capped LRU eviction of the solve cache after each
          completed job (and once at startup) *)
  default_deadline_s : float option;  (** budget of every job that carries none *)
  job_retries : int;  (** worker re-dispatches per job before dead-lettering *)
  lease_ttl_s : float;
      (** a worker that goes this long without a heartbeat is presumed
          wedged: SIGKILLed and its job re-dispatched *)
  faults : Fault.plan;
  resume : bool;
}

val default_config : run_dir:string -> config
(** 2 workers, queue cap 16, no cache cap, no default deadline, 2
    retries, 30 s lease TTL, no faults, fresh start. The breaker (3
    consecutive crashes, 30 s cooldown) and the heartbeat spacing (at
    most one a second) are constants. *)

val run : config -> int
(** Run the daemon until drained (exit 0), interrupted (130), or a
    setup failure (1: lock held, a non-empty queue ledger without
    [resume] — both refused by {!Supervise.claim} — or an unusable
    socket). Structured diagnoses go to stderr; operational
    lines to stdout. *)
