(** The verification daemon: a single-process [Unix.select] loop that
    accepts verify jobs over a Unix-domain socket (newline-delimited
    JSON), runs each job in a forked worker over the shared
    content-addressed solve cache, and survives crashes of either side.
    Workers certify point jobs with {!Job.run} and bulk cells with
    {!Bulk.run}, one pipeline under both.

    Robustness surface (see DESIGN.md §6g):

    - {e durable queue}: every admission and state change is an fsync'd
      append to the {!Jobqueue} ledger before the daemon acts on it, so
      kill -9 never loses an admitted job; on restart with [--resume],
      terminal jobs are compacted away and in-flight ones re-dispatch
      against the warm solve cache (zero re-solves for completed work);
    - {e backpressure}: a bounded admission queue — beyond
      [queue_cap], submits receive a structured [overloaded] refusal
      with a retry-after hint instead of growing memory;
    - {e dedup}: jobs are keyed by {!Job.fingerprint}; a submit
      matching an in-flight job attaches to it instead of re-solving,
      and one matching the per-fingerprint result store is answered
      immediately from disk, byte-identically;
    - {e per-job deadlines}: the spec deadline rides into the worker's
      pipeline policy; a wedged worker is SIGKILLed past
      deadline + grace and reported as a structured failure;
    - {e cancellation}: a waiting client that disconnects cancels its
      job (pending jobs leave the queue; running workers are killed)
      unless another client shares it or it was submitted no-wait;
    - {e supervision + circuit breaker}: a crashed worker is retried
      with exponential backoff; repeated consecutive crashes open the
      breaker and the daemon degrades to cache-only serving
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
    target). Point jobs are addressed by job id; cells also match
    their stable sweep cell id (job ids depend on submission order,
    cell ids do not). *)
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
  breaker_threshold : int;  (** consecutive crashes that open the breaker *)
  breaker_cooldown_s : float;
  default_deadline_s : float option;  (** for jobs that carry none *)
  job_retries : int;  (** worker re-dispatches per job before dead-lettering *)
  lease_ttl_s : float;
      (** a worker that goes this long without a heartbeat is presumed
          wedged: SIGKILLed and its job re-dispatched *)
  heartbeat_interval_s : float;
      (** minimum spacing of worker heartbeats (rate limit, not period:
          workers beat at solve entry and every solver iteration) *)
  lock_wait_s : float;
  faults : Fault.plan;
  resume : bool;
}

val default_config : run_dir:string -> config
(** 2 workers, queue cap 16, no cache cap, breaker 3 crashes / 30 s
    cooldown, no default deadline, 2 retries, 30 s lease TTL, 1 s
    heartbeat spacing, no faults, fresh start. *)

val run : config -> int
(** Run the daemon until drained (exit 0), interrupted (130), or a
    setup failure (1: lock held, un-resumed non-empty queue ledger,
    unusable socket). Structured diagnoses go to stderr; operational
    lines to stdout. *)
