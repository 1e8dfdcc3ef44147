module Fs = Substrate.Fs
module Log = (val Logs.src_log (Logs.Src.create "service.daemon") : Logs.LOG)

(* ----------------------------------------------------------------- *)
(* Daemon-level fault plans *)

module Fault = struct
  module Fp = Substrate.Fault_plan

  type t =
    | Kill_worker of string
    | Stall_worker of string
    | Kill_cell of string
    | Drop_client of string
    | Wedge_queue
    | Die_at of string

  type plan = t list

  let none = []

  let to_token f =
    let kind, key =
      match f with
      | Kill_worker k -> ("kill-worker", Some k)
      | Stall_worker k -> ("stall-worker", Some k)
      | Kill_cell k -> ("kill-cell", Some k)
      | Drop_client k -> ("drop-client", Some k)
      | Wedge_queue -> ("wedge-queue", None)
      | Die_at k -> ("die", Some k)
    in
    { Fp.scope = None; kind; key; args = [] }

  (* The printer is the one list of kind names: a token means the fault
     that prints back as it, keyed by the token's whole site. *)
  let of_token (t : Fp.token) =
    let candidates =
      match Fp.site t with
      | Some k -> [ Kill_worker k; Stall_worker k; Kill_cell k; Drop_client k; Die_at k ]
      | None -> [ Wedge_queue ]
    in
    match List.find_opt (fun f -> t.scope = None && (to_token f).kind = t.kind) candidates with
    | Some f -> Ok f
    | None ->
        Error
          (Printf.sprintf
             "unknown daemon fault %S (kill-worker@JOB, stall-worker@JOB, kill-cell@KEY, \
              drop-client@JOB, wedge-queue, die@JOB)"
             (Fp.token_to_string t))

  let of_string = Fp.claim_all of_token
  let to_string plan = Fp.to_string (List.map to_token plan)
end

(* ----------------------------------------------------------------- *)
(* Configuration *)

type config = {
  run_dir : string;
  sock : string option;
  workers : int;
  queue_cap : int;
  cache_max_mb : int option;
  default_deadline_s : float option;
  job_retries : int;
  lease_ttl_s : float;
  faults : Fault.plan;
  resume : bool;
}

let default_config ~run_dir =
  {
    run_dir;
    sock = None;
    workers = 2;
    queue_cap = 16;
    cache_max_mb = None;
    default_deadline_s = None;
    job_retries = 2;
    lease_ttl_s = 30.0;
    faults = Fault.none;
    resume = false;
  }

let socket_path cfg =
  match cfg.sock with
  | Some s -> s
  | None -> Filename.concat cfg.run_dir "verifyd.sock"

(* ----------------------------------------------------------------- *)
(* Daemon state *)

type client = { cfd : Unix.file_descr; cbuf : Buffer.t }

(* Which command a waiter came from: each completion is rendered as that
   command's reply, a [result] or a [cell-result]. *)
type reply = Result | Cell_result

type waiter = { wfd : Unix.file_descr; reply : reply }

(* Everything the daemon holds for one admitted, unsettled job. *)
type job = {
  e : Jobqueue.entry;
  mutable pid : int;  (* its latest worker, for the log *)
  mutable waiters : waiter list;
  mutable detached : bool;
      (* runs to completion without waiters: submitted no-wait, or recovered *)
  mutable attempts : int;  (* worker crashes so far *)
  mutable not_before : float;  (* no re-dispatch before this time *)
  mutable history : string list;
      (* attempt forensics (newest first) for the dead-letter diagnosis *)
}

type counters = {
  mutable submits : int;
  mutable accepted : int;
  mutable shed : int;
  mutable deduped : int;
  mutable cache_served : int;
  mutable breaker_rejects : int;
  mutable completed : int;
  mutable crashes : int;
  mutable timeouts : int;
  mutable cancelled : int;
  mutable leases_reclaimed : int;
  mutable redispatched : int;
  mutable dead_lettered : int;
}

type st = {
  cfg : config;
  sock : string;
  q : Jobqueue.t;
  ctx : Supervise.ctx;
      (* the run dir's solve context, opened once: every job's worker
         certifies over its cache and journal *)
  listen : Unix.file_descr;
  mutable clients : client list;
  pending : job Queue.t;
  pool : (string, Bulk.probe) Supervise.Pool.t;
      (* the running jobs' workers, keyed by job id: their processes,
         leases and deadlines *)
  jobs : (string, job) Hashtbl.t;  (* every unsettled job, by id *)
  by_fp : (string, job) Hashtbl.t;  (* the same jobs by fingerprint, for dedup *)
  breaker : Breaker.t;
  c : counters;
  mutable fired : Fault.t list;  (* one-shot faults already fired *)
  draining : bool ref;
  interrupted : bool ref;
}

let cache st = Option.get (Supervise.cache st.ctx)
let results_dir st = Filename.concat st.cfg.run_dir "results"
let dead_letter_dir st = Filename.concat st.cfg.run_dir "dead-letter"
let result_path st fp = Filename.concat (results_dir st) (fp ^ ".json")

let dead_letter_path st id = Filename.concat (dead_letter_dir st) (id ^ ".json")

let fault_fires st f =
  if List.mem f st.cfg.faults && not (List.mem f st.fired) then begin
    st.fired <- f :: st.fired;
    true
  end
  else false

(* A one-shot fault aimed at a job fires on its job id or on its cell id
   (job ids depend on submission order, sweep cell ids do not). *)
let fires_for st (e : Jobqueue.entry) fault =
  fault_fires st (fault e.Jobqueue.id) || fault_fires st (fault e.Jobqueue.cell.Job.cell_id)

let wedged st = List.mem Fault.Wedge_queue st.cfg.faults

(* ----------------------------------------------------------------- *)
(* Client I/O *)

let send_raw cl line =
  let line = line ^ "\n" in
  let n = String.length line in
  let rec go off =
    if off >= n then true
    else
      match Unix.write_substring cl.cfd line off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          (* A vanished client is a structured diagnosis on our side,
             never a daemon-killing SIGPIPE. *)
          Log.info (fun k -> k "client gone mid-write (EPIPE): dropping it");
          false
      | exception Unix.Unix_error (err, _, _) ->
          Log.warn (fun k -> k "client write failed: %s" (Unix.error_message err));
          false
  in
  go 0

let send cl v = send_raw cl (Json.to_string v)

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Admit [e] to the in-flight tables and the dispatch queue. *)
let track st (e : Jobqueue.entry) ~detached =
  let j =
    { e; pid = 0; waiters = []; detached; attempts = 0; not_before = 0.0; history = [] }
  in
  Queue.add j st.pending;
  Hashtbl.replace st.jobs e.Jobqueue.id j;
  Hashtbl.replace st.by_fp e.Jobqueue.fp j;
  j

(* A cancelled job stops answering for its fingerprint; a newer job with
   the same fingerprint keeps its dedup entry. *)
let release_fp st j =
  match Hashtbl.find_opt st.by_fp j.e.Jobqueue.fp with
  | Some j' when j' == j -> Hashtbl.remove st.by_fp j.e.Jobqueue.fp
  | _ -> ()

(* Settle a job: it leaves both tables. *)
let forget st j =
  Hashtbl.remove st.jobs j.e.Jobqueue.id;
  release_fp st j

(* Forget a client everywhere. Jobs it was the last waiter of are
   cancelled — unless detached, which run to completion regardless. *)
let rec drop_client st fd =
  st.clients <- List.filter (fun c -> c.cfd != fd) st.clients;
  close_fd fd;
  let orphaned = ref [] in
  Hashtbl.iter
    (fun _ j ->
      if List.exists (fun w -> w.wfd == fd) j.waiters then begin
        j.waiters <- List.filter (fun w -> w.wfd != fd) j.waiters;
        if j.waiters = [] && not j.detached then orphaned := j :: !orphaned
      end)
    st.jobs;
  List.iter (cancel_job st) !orphaned

and cancel_job st j =
  let id = j.e.Jobqueue.id in
  match j.e.Jobqueue.state with
  | Jobqueue.Pending ->
      (* Remove from the in-memory queue; the ledger gets a cancel
         line so a crash right now does not resurrect the job. *)
      let keep = Queue.create () in
      Queue.iter (fun x -> if x != j then Queue.add x keep) st.pending;
      Queue.clear st.pending;
      Queue.transfer keep st.pending;
      Jobqueue.cancel st.q j.e;
      forget st j;
      st.c.cancelled <- st.c.cancelled + 1;
      Log.info (fun k -> k "job %s cancelled (client gone, still pending)" id)
  | Jobqueue.Running ->
      (* The pool still settles the killed worker; [finish] sees the
         job cancelled and only forgets it. *)
      Supervise.Pool.kill st.pool id;
      Jobqueue.cancel st.q j.e;
      release_fp st j;
      st.c.cancelled <- st.c.cancelled + 1;
      Log.info (fun k -> k "job %s cancelled (client gone, worker %d killed)" id j.pid)
  | _ -> ()

(* Answer every waiter of [j], each in its own command's terms. *)
let notify st j render =
  let ws = j.waiters in
  j.waiters <- [];
  List.iter
    (fun w ->
      match List.find_opt (fun c -> c.cfd == w.wfd) st.clients with
      | Some cl -> if not (send cl (render w.reply)) then drop_client st w.wfd
      | None -> ())
    ws

(* ----------------------------------------------------------------- *)
(* Result store and answers *)

let stored_probe st fp =
  match Fs.read_file (result_path st fp) with
  | exception Sys_error _ -> None
  | bytes -> Result.to_option (Result.bind (Json.parse bytes) Bulk.probe_of_json)

(* A cell's answer as one waiter sees it. A [submit] gets a [result]:
   the verdict, its exit code and the deterministic
   {verdict,beta,kind,detail} core. A [bulk] gets a [cell-result] with
   the whole probe, keyed by the content fingerprint [fp] so two grid
   cells with identical boxes (deduped onto one worker) both resolve
   from a single line. *)
let answer ~id ~fp ~cell_id ~cached ?(degraded = false) ?(dead_letter = false)
    (p : Bulk.probe) = function
  | Result ->
      let verdict = Json.Str (Job.verdict_to_string (Bulk.verdict p)) in
      Json.Obj
        [
          ("type", Json.Str "result");
          ("id", Json.Str id);
          ("verdict", verdict);
          ("exit", Json.Num (float_of_int (Job.exit_code (Bulk.verdict p))));
          ("cached", Json.Bool cached);
          ("solves", Json.Num (float_of_int (if cached then 0 else p.Bulk.solves)));
          ( "result",
            Json.Obj
              [
                ("verdict", verdict);
                ("beta", Json.Num p.Bulk.beta);
                ("kind", Json.Str p.Bulk.kind);
                ("detail", Json.Str p.Bulk.detail);
              ] );
        ]
  | Cell_result ->
      Json.Obj
        [
          ("type", Json.Str "cell-result");
          ("id", Json.Str id);
          ("fp", Json.Str fp);
          ("cell_id", Json.Str cell_id);
          ("cached", Json.Bool cached);
          ("degraded", Json.Bool degraded);
          ("dead_letter", Json.Bool dead_letter);
          ("probe", Bulk.probe_to_json p);
        ]

(* The one completion path: ledger the verdict and answer the waiters. *)
let complete st j ?dead_letter probe =
  let e = j.e in
  Jobqueue.finish st.q e (Bulk.verdict probe);
  notify st j
    (answer ~id:e.Jobqueue.id ~fp:e.Jobqueue.fp ~cell_id:e.Jobqueue.cell.Job.cell_id
       ~cached:false ?dead_letter probe)

(* ----------------------------------------------------------------- *)
(* Workers *)

(* The worker body: certify the cell, store the probe when it is a fact
   about the problem, and answer it to the daemon. *)
let run_job st (e : Jobqueue.entry) =
  let probe = Bulk.run ~ctx:st.ctx e.Jobqueue.cell in
  if Bulk.storable probe then
    Fs.write_atomic (result_path st e.Jobqueue.fp)
      (Json.to_string (Bulk.probe_to_json probe));
  probe

let spawn_worker st j =
  let e = j.e in
  let id = e.Jobqueue.id in
  let key = e.Jobqueue.cell.Job.cell_id in
  Jobqueue.start st.q e;
  if fires_for st e (fun k -> Fault.Die_at k) then begin
    (* Deterministic kill -9 mid-job: the start line is ledgered and
       fsync'd, the worker never runs, the daemon dies like the OOM
       killer got it. --resume recovers the job. *)
    Format.printf "verifyd: fault die@%s firing — simulating kill -9@." id;
    Format.pp_print_flush Format.std_formatter ();
    Unix._exit 137
  end;
  let stall = fires_for st e (fun k -> Fault.Stall_worker k) in
  (* kill-cell is NOT one-shot: it fires on every dispatch attempt of
     its target, so the re-dispatch budget demonstrably exhausts and
     the job dead-letters deterministically. *)
  let kill_always =
    List.mem (Fault.Kill_cell key) st.cfg.faults
    || List.mem (Fault.Kill_cell id) st.cfg.faults
  in
  let pid =
    Supervise.Pool.submit st.pool ~key:id
      ?deadline_s:
        (Option.map (fun b -> b +. Bulk.deadline_grace_s) e.Jobqueue.cell.Job.budget_s)
      (fun () ->
        (* Worker. Shed the inherited daemon fds so client EOF detection
           keeps working in the parent, then run the job over the shared
           run-dir cache/journal. The pool has installed the heartbeat
           that renews our lease. *)
        Sys.set_signal Sys.sigterm Sys.Signal_default;
        Sys.set_signal Sys.sigint Sys.Signal_default;
        close_fd st.listen;
        List.iter (fun c -> close_fd c.cfd) st.clients;
        if stall then
          (* Injected wedge: alive but silent — exactly the failure mode
             leases exist for. *)
          while true do
            Unix.sleepf 3600.0
          done;
        run_job st e)
  in
  j.pid <- pid;
  Log.info (fun k -> k "job %s started in worker %d" id pid);
  if fires_for st e (fun k -> Fault.Kill_worker k) || kill_always then begin
    Format.printf "verifyd: fault kill-worker@%s firing on pid %d@." key pid;
    Format.pp_print_flush Format.std_formatter ();
    Supervise.Pool.kill st.pool id
  end

let maybe_cache_gc st =
  match st.cfg.cache_max_mb with
  | None -> ()
  | Some mb ->
      let stats = Supervise.Cache.gc (cache st) ~max_bytes:(mb * 1024 * 1024) in
      if stats.Supervise.Cache.evicted > 0 then
        Log.info (fun k ->
            k "cache gc: evicted %d entries (%d bytes); %d entries (%d bytes) remain"
              stats.Supervise.Cache.evicted stats.Supervise.Cache.evicted_bytes
              stats.Supervise.Cache.entries stats.Supervise.Cache.bytes)

(* A worker died without an answer (killed, OOM'd, raised, or reclaimed
   after its lease expired): re-dispatch with backoff, or dead-letter
   once the retry budget is spent. *)
let crash st j how =
  let e = j.e in
  let id = e.Jobqueue.id in
  st.c.crashes <- st.c.crashes + 1;
  Breaker.failure st.breaker;
  j.attempts <- j.attempts + 1;
  let attempt = j.attempts in
  j.history <- Printf.sprintf "attempt %d: %s" attempt how :: j.history;
  if attempt <= st.cfg.job_retries then begin
    j.not_before <-
      Unix.gettimeofday ()
      +. Resilient.Backoff.backoff_s Resilient.Backoff.default_policy ~key:id ~attempt;
    e.Jobqueue.state <- Jobqueue.Pending;
    Queue.add j st.pending;
    st.c.redispatched <- st.c.redispatched + 1;
    Format.printf
      "verifyd: job %s worker crashed (%s); redispatch %d/%d with backoff@." id how
      attempt st.cfg.job_retries;
    Format.pp_print_flush Format.std_formatter ()
  end
  else begin
    (* Re-dispatch budget exhausted: dead-letter with the full
       attempt history. The diagnosis shape matches the atlas
       quarantine record, so a remote cell and a locally
       quarantined one read identically. *)
    st.c.dead_lettered <- st.c.dead_lettered + 1;
    let probe = Bulk.crashed ~why:how in
    let dl =
      Json.Obj
        [
          ("id", Json.Str id);
          ("fp", Json.Str e.Jobqueue.fp);
          ("cell_id", Json.Str e.Jobqueue.cell.Job.cell_id);
          ("kind", Json.Str probe.Bulk.kind);
          ("detail", Json.Str probe.Bulk.detail);
          ("attempts", Json.Arr (List.rev_map (fun s -> Json.Str s) j.history));
        ]
    in
    (try Fs.write_atomic (dead_letter_path st id) (Json.to_string dl) with _ -> ());
    complete st j ~dead_letter:true
      { probe with Bulk.journal = Some dl; Bulk.attempts = attempt };
    Format.printf "verifyd: job %s dead-lettered after %d attempt(s)@." id attempt;
    Format.pp_print_flush Format.std_formatter ();
    forget st j
  end

(* The pool settled a worker: it answered, died, was killed at its
   deadline or missed its lease. Settle its job: done, timed out,
   re-dispatched after a crash, or dead-lettered. *)
let finish st (id, outcome) =
  match (Hashtbl.find_opt st.jobs id, outcome) with
  | None, _ -> ()
  | Some j, _ when j.e.Jobqueue.state = Jobqueue.Cancelled -> forget st j
  | Some j, Supervise.Pool.Answered probe ->
      complete st j probe;
      Format.printf "verifyd: job %s (cell %s) done: %s (%d solves)@." id
        j.e.Jobqueue.cell.Job.cell_id
        (Job.verdict_to_string (Bulk.verdict probe))
        probe.Bulk.solves;
      st.c.completed <- st.c.completed + 1;
      Breaker.success st.breaker;
      Format.pp_print_flush Format.std_formatter ();
      maybe_cache_gc st;
      forget st j
  | Some j, Supervise.Pool.Timed_out ->
      st.c.timeouts <- st.c.timeouts + 1;
      complete st j Bulk.budget_exhausted;
      forget st j
  | Some j, Supervise.Pool.Died how -> crash st j how
  | Some j, Supervise.Pool.Lease_expired how ->
      (* No heartbeat for a full TTL: the pool presumed the worker wedged
         and reclaimed it with SIGKILL. The death takes the crash path, so
         a silent wedge and a hard crash converge on the same recovery. *)
      st.c.leases_reclaimed <- st.c.leases_reclaimed + 1;
      Format.printf
        "verifyd: job %s lease expired (no heartbeat within %.3gs); reclaimed worker %d@." id
        st.cfg.lease_ttl_s j.pid;
      Format.pp_print_flush Format.std_formatter ();
      crash st j (how ^ " (lease expired; reclaimed)")

let dispatch st =
  if (not (wedged st)) && not !(st.draining) then begin
    let now = Unix.gettimeofday () in
    let progress = ref true in
    while
      !progress
      && Supervise.Pool.room st.pool > 0
      && not (Queue.is_empty st.pending)
    do
      progress := false;
      let j = Queue.peek st.pending in
      if j.e.Jobqueue.state <> Jobqueue.Pending then begin
        ignore (Queue.pop st.pending);
        progress := true
      end
      else if now >= j.not_before && Breaker.allow st.breaker then begin
        ignore (Queue.pop st.pending);
        spawn_worker st j;
        progress := true
      end
    done
  end

(* ----------------------------------------------------------------- *)
(* Requests *)

let status_json st =
  let entries, bytes = Supervise.Cache.usage (cache st) in
  let hit_rate =
    if st.c.submits = 0 then 0.0
    else float_of_int st.c.cache_served /. float_of_int st.c.submits
  in
  Json.Obj
    [
      ("type", Json.Str "status");
      ("accepted", Json.Num (float_of_int st.c.accepted));
      ("shed", Json.Num (float_of_int st.c.shed));
      ("deduped", Json.Num (float_of_int st.c.deduped));
      ("cache_served", Json.Num (float_of_int st.c.cache_served));
      ("submits", Json.Num (float_of_int st.c.submits));
      ("hit_rate", Json.Num hit_rate);
      ("completed", Json.Num (float_of_int st.c.completed));
      ("crashes", Json.Num (float_of_int st.c.crashes));
      ("timeouts", Json.Num (float_of_int st.c.timeouts));
      ("cancelled", Json.Num (float_of_int st.c.cancelled));
      ("leases_reclaimed", Json.Num (float_of_int st.c.leases_reclaimed));
      ("redispatched", Json.Num (float_of_int st.c.redispatched));
      ("dead_lettered", Json.Num (float_of_int st.c.dead_lettered));
      ("breaker_rejects", Json.Num (float_of_int st.c.breaker_rejects));
      ("breaker", Json.Str (Breaker.state_name st.breaker));
      ("breaker_trips", Json.Num (float_of_int (Breaker.trips st.breaker)));
      ("queue_depth", Json.Num (float_of_int (Queue.length st.pending)));
      ("running", Json.Num (float_of_int (Supervise.Pool.running st.pool)));
      ("queue_cap", Json.Num (float_of_int st.cfg.queue_cap));
      ("workers", Json.Num (float_of_int st.cfg.workers));
      ("draining", Json.Bool !(st.draining));
      ("cache_entries", Json.Num (float_of_int entries));
      ("cache_bytes", Json.Num (float_of_int bytes));
    ]

let error_response fmt =
  Printf.ksprintf
    (fun msg ->
      Json.Obj [ ("type", Json.Str "error"); ("message", Json.Str msg) ])
    fmt

type refusal = Draining | Degraded | Overloaded

(* Where admission put a cell. *)
type admission =
  | Stored of Bulk.probe  (* answered from the result store *)
  | Joined of string  (* attached to the in-flight job with this id *)
  | Queued of string * bool  (* new job id; the drop-client fault fired *)
  | Refused of refusal * float  (* with a retry-after hint, seconds *)

(* The one admission path, for a submitted point and for each cell of a
   bulk request: result-store hit, in-flight dedup, drain, breaker,
   queue cap, then enqueue. A waiting client is attached to the job with
   the reply it asked for; a no-wait submit leaves it detached. *)
let admit st cl ~reply ~wait (cell : Job.cell_spec) =
  st.c.submits <- st.c.submits + 1;
  let cell =
    match (cell.Job.budget_s, st.cfg.default_deadline_s) with
    | None, Some d -> { cell with Job.budget_s = Some d }
    | _ -> cell
  in
  let fp = Job.fingerprint cell in
  let attach j =
    if not (List.exists (fun w -> w.wfd == cl.cfd && w.reply = reply) j.waiters) then
      j.waiters <- { wfd = cl.cfd; reply } :: j.waiters
  in
  let pending = Queue.length st.pending in
  let admission =
    match stored_probe st fp with
    | Some p ->
        (* Replay from the durable result store: the same answer as the
           run that produced it, zero solves. *)
        st.c.cache_served <- st.c.cache_served + 1;
        Stored p
    | None -> (
        match Hashtbl.find_opt st.by_fp fp with
        | Some j ->
            (* In-flight dedup: N clients asking the same cell share one
               worker. *)
            st.c.deduped <- st.c.deduped + 1;
            if wait then attach j;
            Joined j.e.Jobqueue.id
        | None ->
            if !(st.draining) then Refused (Draining, 1.0)
            else if Breaker.state st.breaker = Breaker.Open then begin
              (* Circuit open: degrade to cache-only serving. *)
              st.c.breaker_rejects <- st.c.breaker_rejects + 1;
              st.c.shed <- st.c.shed + 1;
              Refused (Degraded, Breaker.retry_after_s st.breaker)
            end
            else if pending >= st.cfg.queue_cap then begin
              (* Bounded admission: shed load with a structured refusal
                 instead of growing without bound. *)
              st.c.shed <- st.c.shed + 1;
              Refused (Overloaded, 2.0 *. float_of_int pending)
            end
            else begin
              let e = Jobqueue.submit st.q cell in
              let id = e.Jobqueue.id in
              let j = track st e ~detached:(not wait) in
              st.c.accepted <- st.c.accepted + 1;
              if wait then attach j;
              let drop = fires_for st e (fun k -> Fault.Drop_client k) in
              if drop then begin
                Format.printf "verifyd: fault drop-client@%s firing@." id;
                Format.pp_print_flush Format.std_formatter ()
              end;
              Queued (id, drop)
            end)
  in
  (fp, admission)

(* The one way a job arrives: its canonical cell line, parsed and
   validated. *)
let cell_of_json = function
  | Json.Str line ->
      Result.bind (Job.cell_of_line line) (fun c -> Result.map (fun () -> c) (Bulk.validate c))
  | _ -> Error "cells travel as canonical cell lines (strings)"

(* A [submit]: one point, as the line of the one-cell job it converts to. *)
let handle_submit st cl req =
  match
    Option.fold ~none:(Error "submit request missing \"cell\"") ~some:cell_of_json
      (Json.member "cell" req)
  with
  | Error why -> ignore (send cl (error_response "%s" why))
  | Ok cell -> (
      let wait = Json.mem_bool "wait" req <> Some false in
      let fp, admission = admit st cl ~reply:Result ~wait cell in
      let accepted id deduped =
        Json.Obj
          [
            ("type", Json.Str "accepted");
            ("id", Json.Str id);
            ("fp", Json.Str fp);
            ("deduped", Json.Bool deduped);
          ]
      in
      match admission with
      | Stored p ->
          ignore
            (send cl
               (answer ~id:("cached-" ^ fp) ~fp ~cell_id:cell.Job.cell_id ~cached:true p
                  Result))
      | Joined id -> ignore (send cl (accepted id true))
      | Queued (id, drop) ->
          ignore (send cl (accepted id false));
          if drop then drop_client st cl.cfd
      | Refused (Draining, _) ->
          ignore
            (send cl
               (Json.Obj
                  [
                    ("type", Json.Str "draining");
                    ("message", Json.Str "daemon is draining; resubmit after restart");
                  ]))
      | Refused (Degraded, retry_after_s) ->
          ignore
            (send cl
               (Json.Obj
                  [
                    ("type", Json.Str "degraded");
                    ( "message",
                      Json.Str "worker fleet unhealthy; serving cached results only" );
                    ("retry_after_s", Json.Num retry_after_s);
                  ]))
      | Refused (Overloaded, retry_after_s) ->
          ignore
            (send cl
               (Json.Obj
                  [
                    ("type", Json.Str "overloaded");
                    ("queue_depth", Json.Num (float_of_int (Queue.length st.pending)));
                    ("retry_after_s", Json.Num retry_after_s);
                  ])))

(* A bulk submission: the atlas client ships a wave of sweep cells in
   one request, and each is admitted like a submit. Cells with a stored
   result are answered inline (tagged [degraded] when the fleet is
   unhealthy and cache-only service is all we offer); the rest are
   queued or deduped against in-flight work and answered by streamed
   [cell-result] lines, or — when draining, breaker-open, or at the
   queue cap — deferred with a [retry_after_s] the client honours
   before resubmitting just those cells. *)
let handle_bulk st cl req =
  let parsed =
    match Json.member "cells" req with
    | Some (Json.Arr lines) ->
        List.fold_left
          (fun acc v ->
            Result.bind acc (fun cs -> Result.map (fun c -> c :: cs) (cell_of_json v)))
          (Ok []) lines
        |> Result.map List.rev
    | _ -> Error "bulk request missing \"cells\" array"
  in
  match parsed with
  | Error why -> ignore (send cl (error_response "%s" why))
  | Ok cells ->
      let degraded = Breaker.state st.breaker = Breaker.Open || !(st.draining) in
      let admitted =
        List.map
          (fun c ->
            let fp, a = admit st cl ~reply:Cell_result ~wait:true c in
            (c, fp, a))
          cells
      in
      let count f = List.length (List.filter (fun (_, _, a) -> f a) admitted) in
      ignore
        (send cl
           (Json.Obj
              [
                ("type", Json.Str "bulk-accepted");
                ("total", Json.Num (float_of_int (List.length cells)));
                ( "queued",
                  Json.Num (float_of_int (count (function Queued _ -> true | _ -> false))) );
                ( "cached",
                  Json.Num (float_of_int (count (function Stored _ -> true | _ -> false))) );
                ( "deduped",
                  Json.Num (float_of_int (count (function Joined _ -> true | _ -> false))) );
                ("degraded", Json.Bool degraded);
                ( "deferred",
                  Json.Arr
                    (List.filter_map
                       (fun ((c : Job.cell_spec), _, a) ->
                         match a with
                         | Refused (_, r) ->
                             Some
                               (Json.Obj
                                  [
                                    ("cell_id", Json.Str c.Job.cell_id);
                                    ("retry_after_s", Json.Num r);
                                  ])
                         | _ -> None)
                       admitted) );
              ]));
      List.iter
        (fun ((c : Job.cell_spec), fp, a) ->
          match a with
          | Stored p ->
              ignore
                (send cl
                   (answer ~id:("cached-" ^ fp) ~fp ~cell_id:c.Job.cell_id ~cached:true
                      ~degraded p Cell_result))
          | _ -> ())
        admitted;
      if List.exists (function _, _, Queued (_, true) -> true | _ -> false) admitted then
        drop_client st cl.cfd

let handle_request st cl line =
  match Json.parse line with
  | Error why -> ignore (send cl (error_response "bad request: %s" why))
  | Ok req -> (
      match Json.mem_str "cmd" req with
      | Some "submit" -> handle_submit st cl req
      | Some "bulk" -> handle_bulk st cl req
      | Some "status" -> ignore (send cl (status_json st))
      | Some "cache-gc" -> (
          let max_mb =
            match Json.mem_num "max_mb" req with
            | Some f when f >= 0.0 -> Some (int_of_float f)
            | _ -> st.cfg.cache_max_mb
          in
          match max_mb with
          | None ->
              ignore
                (send cl
                   (error_response
                      "cache-gc needs max_mb (or start verifyd with --cache-max-mb)"))
          | Some mb ->
              let s = Supervise.Cache.gc (cache st) ~max_bytes:(mb * 1024 * 1024) in
              ignore
                (send cl
                   (Json.Obj
                      [
                        ("type", Json.Str "cache-gc");
                        ("entries", Json.Num (float_of_int s.Supervise.Cache.entries));
                        ("bytes", Json.Num (float_of_int s.Supervise.Cache.bytes));
                        ("evicted", Json.Num (float_of_int s.Supervise.Cache.evicted));
                        ( "evicted_bytes",
                          Json.Num (float_of_int s.Supervise.Cache.evicted_bytes) );
                      ])))
      | Some "stop" ->
          st.draining := true;
          ignore
            (send cl
               (Json.Obj [ ("type", Json.Str "stopping"); ("draining", Json.Bool true) ]))
      | Some c -> ignore (send cl (error_response "unknown command %S" c))
      | None -> ignore (send cl (error_response "request without \"cmd\"")))

(* Consume complete lines out of a client's receive buffer. *)
let feed_client st cl n chunk =
  Buffer.add_subbytes cl.cbuf chunk 0 n;
  let rec go () =
    let s = Buffer.contents cl.cbuf in
    match String.index_opt s '\n' with
    | None -> ()
    | Some i ->
        Buffer.clear cl.cbuf;
        Buffer.add_string cl.cbuf (String.sub s (i + 1) (String.length s - i - 1));
        let line = String.sub s 0 i in
        if String.trim line <> "" then handle_request st cl line;
        (* The client may have been dropped by its own request
           (drop-client fault); stop feeding it then. *)
        if List.exists (fun c -> c.cfd == cl.cfd) st.clients then go ()
  in
  go ()

(* ----------------------------------------------------------------- *)
(* The main loop *)

(* Close the ledger, the clients and the socket, say why, and exit. *)
let leave st code why =
  Jobqueue.close st.q;
  List.iter (fun c -> close_fd c.cfd) st.clients;
  close_fd st.listen;
  (try Unix.unlink st.sock with Unix.Unix_error _ -> ());
  Format.printf "verifyd: %s@." why;
  Format.pp_print_flush Format.std_formatter ();
  code

let drain_exit st =
  (* Pending jobs stay checkpointed in the fsync'd ledger; tell anyone
     still waiting on one, then flush and leave cleanly. *)
  let checkpointed = Queue.length st.pending in
  Queue.iter
    (fun j ->
      notify st j (fun _ ->
          Json.Obj
            [
              ("type", Json.Str "draining");
              ("id", Json.Str j.e.Jobqueue.id);
              ( "message",
                Json.Str "job checkpointed in the queue ledger; resubmit after restart" );
            ]))
    st.pending;
  leave st 0
    (Printf.sprintf "drained — 0 jobs in flight, %d pending checkpointed; exit 0" checkpointed)

let interrupt_exit st =
  Supervise.Pool.shutdown st.pool;
  leave st 130 "interrupted — checkpoint saved; resume with --resume"

let loop st =
  let chunk = Bytes.create 4096 in
  let rec go () =
    List.iter (finish st) (Supervise.Pool.settle st.pool);
    dispatch st;
    if !(st.interrupted) then interrupt_exit st
    else if !(st.draining) && Supervise.Pool.running st.pool = 0 then drain_exit st
    else begin
      let fds = (st.listen :: Supervise.Pool.fds st.pool) @ List.map (fun c -> c.cfd) st.clients in
      (match Unix.select fds [] [] 0.05 with
      | readable, _, _ ->
          List.iter
            (fun fd ->
              if fd == st.listen then (
                  match Unix.accept st.listen with
                  | cfd, _ -> st.clients <- { cfd; cbuf = Buffer.create 256 } :: st.clients
                  | exception Unix.Unix_error _ -> ())
              else (
                  match List.find_opt (fun c -> c.cfd == fd) st.clients with
                  | None -> ()
                  | Some cl -> (
                      match Unix.read fd chunk 0 (Bytes.length chunk) with
                      | 0 -> drop_client st fd
                      | n -> feed_client st cl n chunk
                      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                      | exception Unix.Unix_error _ -> drop_client st fd)))
            readable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ()
    end
  in
  go ()

(* ----------------------------------------------------------------- *)
(* Startup *)

let run cfg =
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("verifyd: " ^ m); 1) fmt in
  match Supervise.claim ~run_dir:cfg.run_dir ~ledger:Jobqueue.ledger ~resume:cfg.resume () with
  | Error diag -> fail "%s" diag
  | Ok () -> (
      match Jobqueue.open_ ~dir:cfg.run_dir with
      | Error why -> fail "%s" why
      | Ok (q, recovered, diags) -> (
          List.iter (fun d -> Log.warn (fun k -> k "%s" d)) diags;
          let sock = socket_path cfg in
          (try Unix.unlink sock with Unix.Unix_error _ -> ());
          let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          match
            Unix.bind listen (Unix.ADDR_UNIX sock);
            Unix.listen listen 64
          with
          | exception Unix.Unix_error (err, _, _) ->
              close_fd listen;
              fail "cannot listen on %s: %s" sock (Unix.error_message err)
          | () ->
              Fs.mkdir_p (Filename.concat cfg.run_dir "results");
              Fs.mkdir_p (Filename.concat cfg.run_dir "dead-letter");
              let ctx = Supervise.create ~run_dir:cfg.run_dir ~isolate:false ~jobs:1 () in
              let draining = ref false and interrupted = ref false in
              Sys.set_signal Sys.sigterm
                (Sys.Signal_handle (fun _ -> draining := true));
              Sys.set_signal Sys.sigint
                (Sys.Signal_handle (fun _ -> interrupted := true));
              (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
               with Invalid_argument _ -> ());
              let st =
                {
                  cfg;
                  sock;
                  q;
                  ctx;
                  listen;
                  clients = [];
                  pending = Queue.create ();
                  (* Heartbeats at most once a second; the breaker opens
                     after 3 consecutive crashes and probes again after
                     30 s (the [Pool] and [Breaker] defaults). *)
                  pool = Supervise.Pool.create ~ttl_s:cfg.lease_ttl_s ~cap:cfg.workers ();
                  jobs = Hashtbl.create 16;
                  by_fp = Hashtbl.create 16;
                  breaker = Breaker.create ~now:Unix.gettimeofday ();
                  c =
                    {
                      submits = 0;
                      accepted = 0;
                      shed = 0;
                      deduped = 0;
                      cache_served = 0;
                      breaker_rejects = 0;
                      completed = 0;
                      crashes = 0;
                      timeouts = 0;
                      cancelled = 0;
                      leases_reclaimed = 0;
                      redispatched = 0;
                      dead_lettered = 0;
                    };
                  fired = [];
                  draining;
                  interrupted;
                }
              in
              (* Recovered jobs re-dispatch detached: their original
                 clients are gone; completed solves replay from the
                 cache, so recovery costs zero re-solves. *)
              List.iter (fun e -> ignore (track st e ~detached:true)) recovered;
              maybe_cache_gc st;
              Format.printf
                "verifyd: listening on %s (run dir %s, %d workers, queue cap %d%s)@."
                sock cfg.run_dir cfg.workers cfg.queue_cap
                (if recovered <> [] then
                   Printf.sprintf "; recovered %d in-flight job(s)"
                     (List.length recovered)
                 else "");
              Format.pp_print_flush Format.std_formatter ();
              loop st))
