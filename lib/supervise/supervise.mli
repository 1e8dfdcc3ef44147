(** Process-isolated solve supervision: a long-lived solver worker, a
    crash-safe run journal, and a content-addressed solve cache.

    The verification pipeline decomposes into many interior-point solves
    (per-mode Lyapunov certificates, bisection probes on the level β,
    advection, inclusion and escape checks). Run in one process, a
    single hung or segfaulting solve loses the whole run; the
    {!Resilient} retry ladder only recovers failures the solver itself
    reports. This module adds the process-level layer:

    - {e fault isolation}: every supervised [Sdp.solve] runs in the
      context's solver worker, a fork of the caller that serves one
      request at a time under a wall-clock timeout and an optional
      address-space rlimit. A worker that crashes (nonzero exit, signal,
      OOM-kill), raises, or stalls past its deadline is reaped with
      SIGKILL and reported as a failed attempt, which the retry ladder
      running in the parent can recover from; the next solve spawns a
      fresh worker;
    - {e one scheduler}: independent work items (escape searches,
      exact re-validation conditions, atlas cells, daemon jobs) run as
      the items of a {!Pool}, which owns their deadlines and leases;
    - {e crash-safe restartability}: every solve request is canonically
      serialized and hashed ({!Sdp.fingerprint}); clean results are
      written atomically (tmp + rename, fsync'd) into a content-
      addressed cache under the run directory, and a write-ahead journal
      records each solve's start and completion — so a killed run can be
      replayed with [--resume]: identical requests hash to cached
      results and are not re-solved;
    - {e process-level fault injection}: [kill@S:I] (worker SIGKILLs
      itself at interior-point iteration [I] of logical solve [S]),
      [stall@S:I] (worker wedges so the timeout reaper must act) and
      [corrupt-cache@S] (the entry stored for solve [S] is truncated
      after the write) exercise every recovery path deterministically.

    {b One fork.} This module forks in one place, and nothing else in
    the libraries or the command-line tools forks. That one primitive
    makes the answer pipe of every forked process (plus a request pipe
    for the solver worker), and its handle is finished by one kill and
    one reap: close this process's ends, [waitpid], name the exit
    reason. The solver worker and the one-answer {!Child}, which the
    {!Pool} spawns, are both made by it. The ends a process holds on its
    children's pipes (and a child's own answer end) and its run-directory
    {!Lock}s are kept in one per-process list, which every fork closes
    and clears in the child: no process keeps another's pipe open or
    lock held, so a child's death is end of file on its answer pipe at
    once, and a worker's request pipe has one writer. Every forked
    process is SIGKILLed when the process that forked it dies (Linux's
    parent-death signal), so a killed run leaves no process writing into
    its run directory.

    {b Worker protocol.} The solver worker is forked lazily, at the
    context's first isolated solve. Each request is one frame on its
    request pipe (an 8-byte big-endian length, then the [Marshal]led
    parameters, problem, warm-start hint and process fault); the answer
    is one frame on its answer pipe ([Ok solution] or
    [Error exception_text]). The request is marshalled with [Closures] —
    valid because the worker is a fork of the same image and is never
    exec'd — so the iteration hook crosses with it; with [No_sharing],
    so this process keeps no extern table. Whatever the hook changes, it
    changes in the worker: what the parent needs to know comes back in
    the answer. A {!Child} answers with the same framing.

    {b Lifetime.} {!release} kills and reaps the worker, so its CPU time
    lands in the caller's [cutime]; [Service.Job.certify] releases when
    a verdict returns. The worker exits on end of file on its request
    pipe and on a failed answer write, and is killed when its parent
    dies, so a worker nobody released leaves when its parent does. A
    {!Pool.run} item forgets its parent's worker: only the
    process that forked a child may kill or reap it. A closure given to
    {!Pool.submit} or {!Child.spawn} directly must not solve through,
    or {!release}, a context whose worker its parent spawned: it makes
    its own context.

    The run directory also reserves [artifacts/] for exact-certificate
    artifacts ({!save_artifact}), so SOS proofs found along the way
    survive crashes next to the solve cache that produced them.

    Only {e clean} results are cached: a solve in which any
    [on_iteration] intervention fired (injected fault, deadline
    interrupt) is machine- or plan-dependent and is always re-solved.

    Fork-based, Unix-only. Inside a pool child, nested supervision
    degrades gracefully: solves run inline (the child is already the
    isolation boundary) but still consult and populate the cache and
    append to the journal, and the child's counters reach the parent
    with its answer. *)

(** Process-level fault injection specs: what the [kill@S:I],
    [stall@S:I] and [corrupt-cache@S] tokens of a {!Resilient.Faults}
    plan mean to the supervisor. *)
module Fault : sig
  type kind =
    | Kill  (** worker SIGKILLs itself at the trigger iteration *)
    | Stall  (** worker wedges (sleeps forever) at the trigger iteration *)
    | Corrupt_cache
        (** the cache entry stored for the target solve is truncated
            immediately after the atomic write *)

  type spec = {
    kind : kind;
    solve : int;  (** 1-based logical solve index; 0 = every solve *)
    iter : int;  (** trigger iteration for [Kill]/[Stall] *)
  }

  val for_solve : spec list -> int -> spec option
  (** The first spec targeting the given logical solve index, if any. *)
end

(** The content-addressed solve cache. Entries are
    [cache/<fingerprint>.solve] files: a one-line header carrying the
    payload length and digest, then the marshalled [Sdp.solution].
    Writes go to a temp file, are fsync'd and renamed into place, so a
    crash mid-write never leaves a readable-but-wrong entry. The loader
    re-verifies length and digest and returns a structured diagnosis —
    never raises — on truncated, corrupted or unreadable entries; the
    supervisor logs the diagnosis and re-solves. *)
module Cache : sig
  type t

  type entry_error =
    | Missing
    | Bad_header of string  (** malformed or wrong-version header line *)
    | Truncated of { expected : int; got : int }
    | Digest_mismatch
    | Decode_failure of string  (** header OK but payload does not unmarshal *)
    | Io_error of string

  val error_to_string : entry_error -> string

  val create : dir:string -> t
  (** Creates [dir] if needed. *)

  val dir : t -> string
  val path : t -> key:string -> string
  val store : t -> key:string -> Sdp.solution -> (unit, string) result
  val load : t -> key:string -> (Sdp.solution, entry_error) result

  val corrupt : t -> key:string -> bool
  (** Truncate the entry for [key] in place (deliberately non-atomic) —
      the [corrupt-cache] fault. [false] when no entry exists. *)

  (** What a {!gc} pass did. *)
  type gc_stats = {
    entries : int;  (** entries remaining after the pass *)
    bytes : int;  (** payload bytes remaining *)
    evicted : int;
    evicted_bytes : int;
  }

  val usage : t -> int * int
  (** [(entries, bytes)] currently stored. *)

  val gc : t -> max_bytes:int -> gc_stats
  (** Size-capped LRU eviction: entries are deleted oldest-access first
      (every {!load} hit refreshes its entry's mtime) until the cache
      fits in [max_bytes]; the directory is fsync'd afterwards so the
      deletions are as durable as the atomic stores were. Stale
      [*.tmp.*] droppings left by writers that crashed mid-store are
      removed too. Safe to run concurrently with readers and writers:
      eviction is per-entry unlink, and a racing store simply
      re-creates its entry. This is what keeps a long-running daemon's
      content-addressed cache bounded ([verifyd --cache-max-mb]). *)
end

(** The write-ahead run journal, [journal.log] in the run directory: a
    {!Substrate.Wal} (magic [pll-run-journal v1]) with one
    [run <ts> <pid>] line per opening, one [start <seq> <key> <label>]
    line fsync'd before each solve launches and one
    [done <seq> <key> <source> <status> <wall_s> <label>] line after it
    completes (source: [solved], [cache], [crash], [timeout]). A
    {!Pool.run} item appends the lines of its own solves, through the
    journal it inherited, numbered on from its parent's [seq] at the
    fork: a [seq] is unique within one process only, and may repeat
    across sibling items (nothing reads it across processes). Appends
    follow the {!Substrate.Wal} fsync policy: a failed fsync raises.
    Malformed lines and a torn final line — the crash that killed the
    run — are skipped with a structured diagnosis, never a raise. *)
module Journal : sig
  type entry = {
    seq : int;  (** supervised-solve sequence number within the process *)
    key : string;  (** solve-request fingerprint *)
    source : string;  (** [solved] or [cache] *)
    status : string;  (** final [Sdp.status] of the recorded solution *)
    wall_s : float;
    label : string;
  }

  val path : string -> string
  (** Journal file path for a run directory. *)

  val read : string -> entry list * string list
  (** [read run_dir] is the completed ([done]) entries of the journal,
      oldest first, plus one diagnosis per unparseable line. Missing
      journal reads as ([[], []]). *)
end

(** Advisory lock on a run directory, guarding its solve cache. Two
    processes sharing a [--run-dir] would interleave tmp+rename writes
    and journal appends; the lock makes the second fail fast with a
    structured JSON diagnosis. The lock is an exclusive kernel lock
    ([flock]) on [cache.lock], held on one descriptor for the life of
    the process that took it, so it ends with that process however it
    ends (kill -9, OOM) and a crashed run never wedges its successors.
    The file carries the holder's pid, for the refusal and for the next
    holder's report. The lock belongs to the process that took it: the
    processes this module forks do not inherit it. Purely advisory: only
    cooperating callers (the CLIs) consult it. *)
module Lock : sig
  type acquisition =
    | Acquired  (** fresh lock taken *)
    | Reentrant  (** this process already holds it *)
    | Stolen_stale of int
        (** taken over from this pid, which left without releasing *)

  val path : string -> string
  (** Lock-file path for a run directory. *)

  val acquire : dir:string -> unit -> (acquisition, string) result
  (** Take the lock, or fail at once while another process holds it:
      [Error] carries a machine-readable JSON diagnosis naming the
      holder pid ([null] while the holder has yet to write it). *)

  val release : dir:string -> unit
  (** Clear the pid and unlock if this process holds the lock; no-op
      otherwise. *)

  val holder : dir:string -> int option
  (** Pid recorded in the lock file, if any. *)
end

(** Run-configuration drift guard. A run directory's cache keys are
    problem fingerprints; resuming with CLI arguments that change the
    problems (order, degree, grid, tolerances…) would silently mix cache
    entries from different sweeps. The guard stores a fingerprint of the
    problem-determining configuration in the run directory on first use
    and refuses — with a structured JSON diagnosis showing both
    configurations — when a later run's fingerprint differs. *)
module Config_guard : sig
  type verdict =
    | Fresh  (** no stored config: this run's fingerprint was recorded *)
    | Matched  (** stored config identical: safe to share the cache *)

  val path : string -> string
  (** Fingerprint-file path ([config.fp]) for a run directory. *)

  val check :
    run_dir:string -> fingerprint:string -> summary:string -> (verdict, string) result
  (** [fingerprint] is any canonical single-line rendering of the
      problem-determining configuration; [summary] a human-readable
      version stored alongside for diagnostics. *)
end

type stats = {
  mutable supervised : int;  (** supervised solve requests *)
  mutable forked : int;  (** processes forked: solver workers spawned plus pool children *)
  mutable inline_solves : int;
      (** solves run inline: inside a pool worker, in an {!in_process}
          context, or with [isolate] off *)
  mutable cache_hits : int;
  mutable cache_stores : int;
  mutable cache_rejects : int;  (** corrupt/truncated entries rejected, then re-solved *)
  mutable crashes : int;  (** workers that died by signal or nonzero exit *)
  mutable timeouts : int;  (** workers reaped past the wall-clock budget *)
  mutable pool_tasks : int;  (** items executed through {!Pool.run} *)
}

type ctx
(** A supervision context: settings, counters, and (optionally) the run
    directory holding cache + journal + artifacts. *)

exception Interrupted
(** Raised at the next supervision point after {!interrupt} (or a
    SIGINT/SIGTERM once {!install_signal_handlers} ran): in-flight
    workers are SIGKILLed first, and everything already completed is on
    disk — the run can be resumed. *)

val ncpus : unit -> int
(** Best-effort available-core count (the [--jobs] default). *)

val create :
  ?run_dir:string ->
  ?jobs:int ->
  ?solve_timeout_s:float ->
  ?mem_limit_mb:int ->
  ?isolate:bool ->
  unit ->
  ctx
(** Fresh context. [run_dir], when given, is created along with its
    [cache/] and [artifacts/] subdirectories and write-ahead journal;
    without it there is no persistence (isolation and pooling still
    work). [jobs] defaults to {!ncpus}; [isolate] (default [true])
    controls whether individual solves run in the solver worker — with
    [false] only the cache/journal layer is active. *)

val in_process : unit -> ctx
(** A context that never forks: no run directory, so no cache, journal
    or artifacts; every solve and every {!Pool} item runs inline, as
    inside a pool child. What a [Resilient] policy made without a
    supervisor carries. *)

(** {2 Opening a run directory}

    The one front door of [verify_pll], [atlas_pll] and [verifyd]: the
    {!Lock}, the {!Config_guard} fingerprint, then the [--resume]
    decision. *)

(** A tool's record of completed work in a run directory: [name] names
    the refusal ([<name>-not-resumed]), [entries dir] counts the work. *)
type ledger = { name : string; entries : string -> int }

val journal : ledger
(** The {!Journal}'s completed solves (solved or answered from cache):
    [verify_pll]'s work. *)

val check_resume : ledger -> run_dir:string -> resume:bool -> (unit, string) result
(** The one [--resume] decision: [Error] with the JSON diagnosis
    [{"error":"<name>-not-resumed","run_dir":…,"entries":N,"hint":…}]
    when the ledger holds [N > 0] entries and [resume] is [false].
    [--resume] on a fresh directory starts a run. *)

val claim :
  run_dir:string ->
  ?fingerprint:string ->
  ledger:ledger ->
  resume:bool ->
  unit ->
  (unit, string) result
(** Lock the directory, check [fingerprint] (when given) against the
    one stored there, then {!check_resume}. The first refusal's JSON
    diagnosis is the [Error]. *)

val open_run :
  ?run_dir:string ->
  ?resume:string ->
  ?jobs:int ->
  ?solve_timeout_s:float ->
  ?mem_limit_mb:int ->
  ledger:ledger ->
  fingerprint:string ->
  unit ->
  (ctx, string) result
(** {!claim} the run directory — [resume], the [--resume DIR] value,
    names it in place of [run_dir] and continues it — then {!create}
    the context. Without a directory there is nothing to claim. *)

val jobs : ctx -> int
val run_dir : ctx -> string option
val cache : ctx -> Cache.t option
val stats : ctx -> stats

val replayed : ctx -> int
(** Completed solves already on record in the journal when this context
    opened the run directory — what [--resume] will replay from cache. *)

val release : ctx -> unit
(** Kill and reap the context's solver worker, if one is running;
    idempotent. The context stays usable: the next isolated
    solve spawns a fresh worker. Call it when a verdict is done, so the
    worker's CPU time is accounted to the caller's reaped children. *)

val interrupt : ctx -> unit
(** Request a graceful checkpoint-and-exit: the next supervision point
    kills in-flight workers and raises {!Interrupted}. Safe from a
    signal handler. *)

val install_signal_handlers : ctx -> unit
(** Route SIGINT/SIGTERM to {!interrupt}. *)

val solve_sdp :
  ctx ->
  label:string ->
  ?proc_fault:Fault.spec ->
  ?session:Sdp.Session.t ->
  ?hint:Sdp.warm_start ->
  ?params:Sdp.params ->
  Sdp.problem ->
  Sdp.solution
(** The supervised [Sdp.solve]: with a cache, return the cached
    solution on a hit (rejecting corrupt entries with a logged
    diagnosis); otherwise journal the start (with a journal), run the
    solve in the solver worker under the timeout/rlimit (inline when
    [isolate] is off or inside a pool child or an {!in_process}
    context), store a clean result atomically, and journal completion.
    The request's fingerprint ({!Sdp.fingerprint}) is computed only
    when the context has a cache or a journal. A crashed worker yields
    a synthetic [Numerical_failure] solution, a timed-out one
    [Max_iterations] — with [best_score = infinity] so they are never
    salvaged — letting the caller's retry ladder escalate exactly as
    for in-process failures. Never raises on worker trouble; raises
    {!Interrupted} only after {!interrupt}.

    [session]/[hint] are the one place warm starts are chosen, without
    touching the cache identity: the fingerprint is computed from
    [(params, problem)] alone, so whether a result was produced warm or
    cold never changes which cache entry answers the request — [-jN]
    and [--resume] determinism are preserved. The hint (explicit, or
    the session's remembered capsule for this structure) travels in the
    request; the solve, in the worker or inline, applies the standard
    session discipline, and the caller's process feeds the result
    (solved or replayed from cache) into [session]'s memory once. *)

val status_string : Sdp.status -> string
(** The one printed name of a solve status ([optimal], [near_optimal],
    [primal_infeasible], …), as the journal and the resilience reports
    write it. *)

val save_artifact : ctx -> name:string -> string -> string option
(** Atomically persist serialized proof-artifact text under
    [artifacts/<name>] in the run directory (the {!Exact.Artifact}
    integration point). Returns the path written, or [None] without a
    run directory. *)

val report_json : ctx -> Substrate.Json.t
(** Machine-readable supervision report: jobs, counters, replay count. *)

(** A forked child that runs one closure and answers once: the
    closure's result, or the text of the exception it raised, travels
    back as one frame on a pipe. The write end of that pipe is closed in
    every process this module forks below the child, so the child's
    death is end of file on {!fd} at once, even while processes it
    spawned (pool items, a solver worker) still run. Made by the same
    fork primitive as the solver worker. *)
module Child : sig
  type 'a t

  val spawn : (unit -> 'a) -> 'a t
  (** Fork a child that runs the closure. Its result must be
      marshal-safe (plain data, no closures). The child inherits
      everything the caller set up; the closure closes what it must
      not hold. *)

  val fd : 'a t -> Unix.file_descr
  (** Readable once the child has answered or died: what to [select]
      on. *)

  val pid : 'a t -> int

  val collect : 'a t -> ('a, string) result
  (** Read the child's frame, then reap it; blocks until both happen.
      [Error] carries the exception text, or the reason the child ended
      without an answer (its exit code or signal). Call it exactly
      once. *)

  val kill : 'a t -> unit
  (** SIGKILL the child. It still has to be {!collect}ed. *)
end

(** The one scheduler: a bounded set of {!Child}ren, one per item. A
    pool takes new items while others run and kills an item at its
    wall-clock deadline. Given a lease TTL it also gives each child a
    heartbeat pipe and beat sink (every supervised solve beats at entry
    and at each interior-point iteration, at most once per [beat_s]) and
    kills an item that stays silent past the TTL; without a TTL no pipe
    is made. The caller [select]s on {!fds}, next to any descriptors of
    its own, and calls {!settle}. *)
module Pool : sig
  type ('k, 'a) t
  (** Items keyed by ['k] (compared with [=]), answering ['a]. *)

  (** How an item ended; an answer that beat the pool's kill counts. *)
  type 'a outcome =
    | Answered of 'a
    | Died of string  (** the exception text, or the exit reason (after {!kill} too) *)
    | Timed_out  (** killed at its deadline *)
    | Lease_expired of string  (** killed after missing its lease; the exit reason *)

  val create : ?ttl_s:float -> ?beat_s:float -> cap:int -> unit -> ('k, 'a) t
  (** [beat_s] defaults to 1 s. *)

  val submit : ('k, 'a) t -> key:'k -> ?deadline_s:float -> (unit -> 'a) -> int
  (** Fork a child running the closure, with a deadline [deadline_s]
      from now, and return its pid. The child holds none of its
      siblings' pipes. Raises [Invalid_argument] without {!room}. *)

  val room : ('k, 'a) t -> int
  val running : ('k, 'a) t -> int

  val kill : ('k, 'a) t -> 'k -> unit
  (** SIGKILL the item; it is still settled. *)

  val fds : ('k, 'a) t -> Unix.file_descr list
  (** The running items' answer pipes: readable once one has ended. *)

  val settle : ?wait_s:float -> ('k, 'a) t -> ('k * 'a outcome) list
  (** Renew leases, kill items past their lease or deadline, wait up to
      [wait_s] (default 0) for an answer pipe, and collect the items
      that ended, oldest first. *)

  val shutdown : ('k, 'a) t -> unit
  (** Kill and collect every running item. *)

  val run :
    ctx ->
    ?deadline_s:float ->
    ?on_start:(int -> 'a -> unit) ->
    f:(int -> 'a -> 'b) ->
    on_settle:(int -> 'a -> 'b outcome -> unit) ->
    'a list ->
    unit
  (** Run [f i item] for each item in a pool of {!jobs} children (inline
      inside a pool worker or an {!in_process} context), calling [on_start] just before an item is
      forked and [on_settle] as soon as it ends. [f]'s result must be
      marshal-safe. The fork is taken even for [jobs = 1], so [-j 1] and
      [-j N] traverse the same code path. Counts each item in
      [pool_tasks] and [forked]. A forked item's answer carries what it
      did through the context: it journals its solves itself, and its
      counters are added to this context's {!stats} when it answers; an
      item that dies takes its counters with it. Raises {!Interrupted} on an interrupt;
      that and any exception of a callback kill and collect the running
      children first. *)

  val map : ctx -> f:(int -> 'a -> 'b) -> 'a list -> ('b, string) result list
  (** {!run} with the results in item order. A worker that raises,
      crashes or is killed yields [Error] for its item only. *)
end
