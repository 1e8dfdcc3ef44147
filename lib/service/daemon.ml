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
  breaker_threshold : int;
  breaker_cooldown_s : float;
  default_deadline_s : float option;
  job_retries : int;
  lease_ttl_s : float;
  heartbeat_interval_s : float;
  lock_wait_s : float;
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
    breaker_threshold = 3;
    breaker_cooldown_s = 30.0;
    default_deadline_s = None;
    job_retries = 2;
    lease_ttl_s = 30.0;
    heartbeat_interval_s = 1.0;
    lock_wait_s = 0.0;
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

type worker = {
  w_id : string;
  key : string;  (* fault-matching key: job id for points, cell id for cells *)
  pid : int;
  kill_after : float option;  (* absolute wall deadline + grace *)
  hb_r : Unix.file_descr;  (* heartbeat pipe, read end *)
  mutable hb_open : bool;
  mutable lease : Resilient.Lease.t;
  mutable killed : bool;
  mutable timed_out : bool;
  mutable lease_expired : bool;
  mutable cancelled : bool;
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
  cache : Supervise.Cache.t;
  listen : Unix.file_descr;
  mutable clients : client list;
  pending : string Queue.t;
  mutable workers : worker list;
  waiters : (string, Unix.file_descr list ref) Hashtbl.t;
  detached : (string, unit) Hashtbl.t;
  by_fp : (string, string) Hashtbl.t;
  retries : (string, int) Hashtbl.t;
  not_before : (string, float) Hashtbl.t;
  history : (string, string list) Hashtbl.t;
      (* per-job attempt forensics (newest first) for the dead-letter diagnosis *)
  lease_policy : Resilient.Lease.policy;
  breaker : Breaker.t;
  c : counters;
  mutable fired : Fault.t list;  (* one-shot faults already fired *)
  draining : bool ref;
  interrupted : bool ref;
}

let results_dir st = Filename.concat st.cfg.run_dir "results"
let outbox_dir st = Filename.concat st.cfg.run_dir "outbox"
let dead_letter_dir st = Filename.concat st.cfg.run_dir "dead-letter"
let result_path st fp = Filename.concat (results_dir st) (fp ^ ".json")
let outbox_path st id = Filename.concat (outbox_dir st) (id ^ ".json")

let dead_letter_path st id = Filename.concat (dead_letter_dir st) (id ^ ".json")

(* Fault-matching key: points are addressed by job id, cells by their
   stable sweep id (job ids depend on submission order, cell ids do
   not). *)
let entry_key (e : Jobqueue.entry) =
  match e.Jobqueue.payload with
  | Jobqueue.Point _ -> e.Jobqueue.id
  | Jobqueue.Cell c -> c.Bulk.cell_id

let entry_deadline (e : Jobqueue.entry) =
  match e.Jobqueue.payload with
  | Jobqueue.Point spec -> spec.Job.deadline_s
  | Jobqueue.Cell c -> c.Bulk.budget_s

let fault_fires st f =
  if List.mem f st.cfg.faults && not (List.mem f st.fired) then begin
    st.fired <- f :: st.fired;
    true
  end
  else false

let wedged st = List.mem Fault.Wedge_queue st.cfg.faults

(* ----------------------------------------------------------------- *)
(* Client I/O *)

let send_raw st cl line =
  let line = line ^ "\n" in
  let n = String.length line in
  let rec go off =
    if off >= n then true
    else
      match Unix.write_substring cl.cfd line off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          (* Satellite: a vanished client is a structured diagnosis on
             our side, never a daemon-killing SIGPIPE. *)
          Log.info (fun k -> k "client gone mid-write (EPIPE): dropping it");
          false
      | exception Unix.Unix_error (err, _, _) ->
          Log.warn (fun k -> k "client write failed: %s" (Unix.error_message err));
          false
  in
  ignore st;
  go 0

let send st cl v = send_raw st cl (Json.to_string v)

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Forget a client everywhere. Jobs it was the last waiter of are
   cancelled — unless detached (submitted no-wait, or recovered from the
   ledger), which run to completion regardless. *)
let rec drop_client st fd =
  (match List.find_opt (fun c -> c.cfd == fd) st.clients with
  | Some _ -> ()
  | None -> ());
  st.clients <- List.filter (fun c -> c.cfd != fd) st.clients;
  close_fd fd;
  let orphaned = ref [] in
  Hashtbl.iter
    (fun id fds ->
      if List.memq fd !fds then begin
        fds := List.filter (fun f -> f != fd) !fds;
        if !fds = [] then orphaned := id :: !orphaned
      end)
    st.waiters;
  List.iter
    (fun id ->
      Hashtbl.remove st.waiters id;
      if not (Hashtbl.mem st.detached id) then cancel_job st id)
    !orphaned

and cancel_job st id =
  match Jobqueue.find st.q id with
  | None -> ()
  | Some e -> (
      match e.Jobqueue.state with
      | Jobqueue.Pending ->
          (* Remove from the in-memory queue; the ledger gets a cancel
             line so a crash right now does not resurrect the job. *)
          let keep = Queue.create () in
          Queue.iter (fun i -> if i <> id then Queue.add i keep) st.pending;
          Queue.clear st.pending;
          Queue.transfer keep st.pending;
          Jobqueue.cancel st.q e;
          Hashtbl.remove st.by_fp e.Jobqueue.fp;
          st.c.cancelled <- st.c.cancelled + 1;
          Log.info (fun k -> k "job %s cancelled (client gone, still pending)" id)
      | Jobqueue.Running -> (
          match List.find_opt (fun w -> w.w_id = id) st.workers with
          | Some w ->
              w.cancelled <- true;
              (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
              Jobqueue.cancel st.q e;
              Hashtbl.remove st.by_fp e.Jobqueue.fp;
              st.c.cancelled <- st.c.cancelled + 1;
              Log.info (fun k ->
                  k "job %s cancelled (client gone, worker %d killed)" id w.pid)
          | None -> ())
      | _ -> ())

let notify st id v =
  (match Hashtbl.find_opt st.waiters id with
  | Some fds ->
      List.iter
        (fun fd ->
          match List.find_opt (fun c -> c.cfd == fd) st.clients with
          | Some cl -> if not (send st cl v) then drop_client st fd
          | None -> ())
        !fds
  | None -> ());
  Hashtbl.remove st.waiters id

(* ----------------------------------------------------------------- *)
(* Result store *)

let stored_result st fp =
  match Fs.read_file (result_path st fp) with
  | exception Sys_error _ -> None
  | bytes -> (
      match Json.parse bytes with Ok v -> Some v | Error _ -> None)

let result_response ~id ~cached ?(solves = 0) result_obj =
  let verdict = Option.value (Json.mem_str "verdict" result_obj) ~default:"failed" in
  let exit_code =
    match Job.verdict_of_string verdict with
    | Ok v -> Job.exit_code v
    | Error _ -> 1
  in
  Json.Obj
    [
      ("type", Json.Str "result");
      ("id", Json.Str id);
      ("verdict", Json.Str verdict);
      ("exit", Json.Num (float_of_int exit_code));
      ("cached", Json.Bool cached);
      ("solves", Json.Num (float_of_int solves));
      ("result", result_obj);
    ]

let synthetic_result ~verdict ~kind ~detail =
  Json.Obj
    [
      ("verdict", Json.Str (Job.verdict_to_string verdict));
      ("beta", Json.Num 0.0);
      ("kind", Json.Str kind);
      ("detail", Json.Str detail);
    ]

(* [fp] is the cell's content fingerprint: the batch client keys
   answers by it, so two grid cells with identical boxes (deduped
   daemon-side onto one worker) both resolve from a single line. *)
let cell_result_response ~id ~fp ~cell_id ~cached ?(degraded = false)
    ?(dead_letter = false) probe_obj =
  Json.Obj
    [
      ("type", Json.Str "cell-result");
      ("id", Json.Str id);
      ("fp", Json.Str fp);
      ("cell_id", Json.Str cell_id);
      ("cached", Json.Bool cached);
      ("degraded", Json.Bool degraded);
      ("dead_letter", Json.Bool dead_letter);
      ("probe", probe_obj);
    ]

(* ----------------------------------------------------------------- *)
(* Workers *)

let deadline_grace_s = 5.0

let run_cell st ctx (e : Jobqueue.entry) (c : Bulk.cell_spec) =
  let probe = Bulk.run ~ctx c in
  let outbox =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Str e.Jobqueue.id);
           ("fp", Json.Str e.Jobqueue.fp);
           ("cell_id", Json.Str c.Bulk.cell_id);
           ("probe", Bulk.probe_to_json probe);
           ("solves", Json.Num (float_of_int probe.Bulk.solves));
         ])
  in
  Fs.write_atomic (outbox_path st e.Jobqueue.id) outbox;
  (* Only conclusive probes enter the result store — a budget- or
     fault-shaped answer is not a fact about the cell. *)
  if Bulk.probe_storable probe then
    Fs.write_atomic (result_path st e.Jobqueue.fp)
      (Json.to_string (Bulk.probe_to_json probe));
  if probe.Bulk.ok then 0 else 2

let run_point st ctx (e : Jobqueue.entry) (spec : Job.spec) =
  let policy = Job.make_policy ~supervise:ctx spec in
  let r = Job.run ~policy spec in
  let stable = Job.result_json r in
  let outbox =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Str e.Jobqueue.id);
           ("fp", Json.Str e.Jobqueue.fp);
           ( "result",
             match Json.parse stable with Ok v -> v | Error _ -> Json.Null );
           ("solves", Json.Num (float_of_int r.Job.solves));
           ("attempts", Json.Num (float_of_int r.Job.attempts));
           ("attempt_s", Json.Num r.Job.attempt_s);
           ("deadline_hit", Json.Bool r.Job.deadline_hit);
         ])
  in
  Fs.write_atomic (outbox_path st e.Jobqueue.id) outbox;
  (* Only clean completions enter the result store: a Failed or
     deadline-cut run is budget-dependent, not a fact about the
     problem, so it must not be replayed as one. (This is also
     why the fingerprint may soundly exclude the deadline.) *)
  if Job.storable r then
    Fs.write_atomic (result_path st e.Jobqueue.fp) stable;
  Job.exit_code r.Job.verdict

let spawn_worker st (e : Jobqueue.entry) =
  let id = e.Jobqueue.id in
  let key = entry_key e in
  Jobqueue.start st.q e;
  if fault_fires st (Fault.Die_at id) || fault_fires st (Fault.Die_at key) then begin
    (* Deterministic kill -9 mid-job: the start line is ledgered and
       fsync'd, the worker never runs, the daemon dies like the OOM
       killer got it. --resume recovers the job. *)
    Format.printf "verifyd: fault die@%s firing — simulating kill -9@." id;
    Format.pp_print_flush Format.std_formatter ();
    Unix._exit 137
  end;
  let stall =
    fault_fires st (Fault.Stall_worker id) || fault_fires st (Fault.Stall_worker key)
  in
  (* kill-cell is NOT one-shot: it fires on every dispatch attempt of
     its target, so the re-dispatch budget demonstrably exhausts and
     the job dead-letters deterministically. *)
  let kill_always =
    List.mem (Fault.Kill_cell key) st.cfg.faults
    || List.mem (Fault.Kill_cell id) st.cfg.faults
  in
  let hb_r, hb_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      (* Worker. Shed every inherited daemon fd so client EOF detection
         keeps working in the parent, then run the job over the shared
         run-dir cache/journal and exit with the verdict's code. *)
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      Sys.set_signal Sys.sigint Sys.Signal_default;
      close_fd st.listen;
      close_fd hb_r;
      List.iter (fun c -> close_fd c.cfd) st.clients;
      (* Liveness: every supervised solve (and each interior-point
         iteration) writes a byte up the heartbeat pipe; the daemon
         renews our lease on drain. A worker that stops beating past
         the TTL is reclaimed with SIGKILL and re-dispatched. *)
      let hb_byte = Bytes.make 1 'h' in
      Supervise.Heartbeat.install ~min_interval_s:st.cfg.heartbeat_interval_s
        (fun () ->
          try ignore (Unix.write hb_w hb_byte 0 1) with Unix.Unix_error _ -> ());
      Supervise.Heartbeat.beat ();
      if stall then
        (* Injected wedge: alive but silent — exactly the failure mode
           leases exist for. *)
        while true do
          Unix.sleepf 3600.0
        done;
      let code =
        try
          let ctx = Supervise.create ~run_dir:st.cfg.run_dir ~isolate:false ~jobs:1 () in
          match e.Jobqueue.payload with
          | Jobqueue.Point spec -> run_point st ctx e spec
          | Jobqueue.Cell c -> run_cell st ctx e c
        with
        | Supervise.Interrupted -> 130
        | e ->
            prerr_endline ("verifyd worker: " ^ Printexc.to_string e);
            1
      in
      Unix._exit code
  | pid ->
      close_fd hb_w;
      Unix.set_nonblock hb_r;
      let kill_after =
        Option.map
          (fun d -> Unix.gettimeofday () +. d +. deadline_grace_s)
          (entry_deadline e)
      in
      let lease =
        Resilient.Lease.grant st.lease_policy ~holder:id ~now:(Resilient.wall_now ())
      in
      st.workers <-
        {
          w_id = id;
          key;
          pid;
          kill_after;
          hb_r;
          hb_open = true;
          lease;
          killed = false;
          timed_out = false;
          lease_expired = false;
          cancelled = false;
        }
        :: st.workers;
      Log.info (fun k -> k "job %s started in worker %d" id pid);
      if
        fault_fires st (Fault.Kill_worker id)
        || fault_fires st (Fault.Kill_worker key)
        || kill_always
      then begin
        Format.printf "verifyd: fault kill-worker@%s firing on pid %d@." key pid;
        Format.pp_print_flush Format.std_formatter ();
        try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()
      end

let maybe_cache_gc st =
  match st.cfg.cache_max_mb with
  | None -> ()
  | Some mb ->
      let stats = Supervise.Cache.gc st.cache ~max_bytes:(mb * 1024 * 1024) in
      if stats.Supervise.Cache.evicted > 0 then
        Log.info (fun k ->
            k "cache gc: evicted %d entries (%d bytes); %d entries (%d bytes) remain"
              stats.Supervise.Cache.evicted stats.Supervise.Cache.evicted_bytes
              stats.Supervise.Cache.entries stats.Supervise.Cache.bytes)

let job_done st (e : Jobqueue.entry) (w : worker) =
  match Fs.read_file (outbox_path st e.Jobqueue.id) with
  | bytes when not w.cancelled -> (
      match Json.parse bytes with
      | Ok outbox ->
          let solves =
            match Json.mem_num "solves" outbox with
            | Some f -> int_of_float f
            | None -> 0
          in
          (match e.Jobqueue.payload with
          | Jobqueue.Point _ ->
              let result_obj =
                Option.value (Json.member "result" outbox) ~default:Json.Null
              in
              let verdict =
                match
                  Option.bind (Json.mem_str "verdict" result_obj) (fun v ->
                      Result.to_option (Job.verdict_of_string v))
                with
                | Some v -> v
                | None -> Job.Failed
              in
              Jobqueue.finish st.q e verdict;
              notify st e.Jobqueue.id
                (result_response ~id:e.Jobqueue.id ~cached:false ~solves result_obj);
              Format.printf "verifyd: job %s done: %s (%d solves)@." e.Jobqueue.id
                (Job.verdict_to_string verdict)
                solves
          | Jobqueue.Cell c ->
              let probe_obj =
                Option.value (Json.member "probe" outbox) ~default:Json.Null
              in
              let verdict =
                match Bulk.probe_of_json probe_obj with
                | Ok p when p.Bulk.ok -> Job.Verified
                | Ok p when Bulk.probe_storable p -> Job.Not_established
                | _ -> Job.Failed
              in
              Jobqueue.finish st.q e verdict;
              notify st e.Jobqueue.id
                (cell_result_response ~id:e.Jobqueue.id ~fp:e.Jobqueue.fp
                   ~cell_id:c.Bulk.cell_id ~cached:false probe_obj);
              Format.printf "verifyd: cell %s (job %s) done: %s (%d solves)@."
                c.Bulk.cell_id e.Jobqueue.id
                (Job.verdict_to_string verdict)
                solves);
          st.c.completed <- st.c.completed + 1;
          Breaker.success st.breaker;
          Format.pp_print_flush Format.std_formatter ();
          maybe_cache_gc st;
          true
      | Error why ->
          Log.warn (fun k ->
              k "job %s outbox unparseable (%s); treating as crash" e.Jobqueue.id why);
          false)
  | _ | (exception Sys_error _) -> false

let reap st =
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | 0, _ -> ()
    | pid, status -> (
        match List.find_opt (fun w -> w.pid = pid) st.workers with
        | None -> go ()
        | Some w ->
            st.workers <- List.filter (fun x -> x.pid <> pid) st.workers;
            if w.hb_open then begin
              w.hb_open <- false;
              close_fd w.hb_r
            end;
            (match Jobqueue.find st.q w.w_id with
            | None -> ()
            | Some e ->
                let id = e.Jobqueue.id in
                let cleanup () =
                  Hashtbl.remove st.by_fp e.Jobqueue.fp;
                  Hashtbl.remove st.detached id;
                  Hashtbl.remove st.retries id;
                  Hashtbl.remove st.not_before id;
                  Hashtbl.remove st.history id
                in
                if w.cancelled then cleanup ()
                else if job_done st e w then cleanup ()
                else if w.timed_out then begin
                  st.c.timeouts <- st.c.timeouts + 1;
                  Jobqueue.finish st.q e Job.Failed;
                  notify st id
                    (result_response ~id ~cached:false
                       (synthetic_result ~verdict:Job.Failed ~kind:"deadline"
                          ~detail:"worker exceeded the job deadline and was killed"));
                  cleanup ()
                end
                else begin
                  (* Crash: the worker died without an outbox (killed,
                     OOM'd, or SIGKILLed by us after its lease expired). *)
                  st.c.crashes <- st.c.crashes + 1;
                  Breaker.failure st.breaker;
                  let how =
                    match status with
                    | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
                    | Unix.WEXITED c -> Printf.sprintf "exit %d" c
                    | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s
                  in
                  let how =
                    if w.lease_expired then how ^ " (lease expired; reclaimed)"
                    else how
                  in
                  let attempt =
                    1 + Option.value (Hashtbl.find_opt st.retries id) ~default:0
                  in
                  Hashtbl.replace st.history id
                    (Printf.sprintf "attempt %d: worker died by %s" attempt how
                    :: Option.value (Hashtbl.find_opt st.history id) ~default:[]);
                  if attempt <= st.cfg.job_retries then begin
                    Hashtbl.replace st.retries id attempt;
                    Hashtbl.replace st.not_before id
                      (Unix.gettimeofday ()
                      +. Resilient.Lease.backoff_s st.lease_policy ~key:id ~attempt);
                    e.Jobqueue.state <- Jobqueue.Pending;
                    Queue.add id st.pending;
                    st.c.redispatched <- st.c.redispatched + 1;
                    Format.printf
                      "verifyd: job %s worker crashed (%s); redispatch %d/%d with backoff@."
                      id how attempt st.cfg.job_retries;
                    Format.pp_print_flush Format.std_formatter ()
                  end
                  else begin
                    (* Re-dispatch budget exhausted: dead-letter with the
                       full attempt history. The diagnosis shape matches
                       the atlas quarantine record, so a remote cell and
                       a locally quarantined one read identically. *)
                    st.c.dead_lettered <- st.c.dead_lettered + 1;
                    let attempts_json =
                      Json.Arr
                        (List.rev_map
                           (fun s -> Json.Str s)
                           (Option.value (Hashtbl.find_opt st.history id) ~default:[]))
                    in
                    let detail = "cell worker crashed" in
                    let dl_fields cell_id =
                      [
                        ("id", Json.Str id);
                        ("fp", Json.Str e.Jobqueue.fp);
                      ]
                      @ (match cell_id with
                        | Some c -> [ ("cell_id", Json.Str c) ]
                        | None -> [])
                      @ [
                          ("kind", Json.Str "crash");
                          ("detail", Json.Str detail);
                          ("attempts", attempts_json);
                        ]
                    in
                    (match e.Jobqueue.payload with
                    | Jobqueue.Point _ ->
                        (try
                           Fs.write_atomic (dead_letter_path st id)
                             (Json.to_string (Json.Obj (dl_fields None)))
                         with _ -> ());
                        Jobqueue.finish st.q e Job.Failed;
                        notify st id
                          (result_response ~id ~cached:false
                             (synthetic_result ~verdict:Job.Failed
                                ~kind:"worker-crash"
                                ~detail:
                                  (Printf.sprintf "worker died %d time(s), last by %s"
                                     attempt how)))
                    | Jobqueue.Cell c ->
                        let dl =
                          Json.to_string
                            (Json.Obj (dl_fields (Some c.Bulk.cell_id)))
                        in
                        (try
                           Fs.write_atomic (dead_letter_path st id) dl
                         with _ -> ());
                        Jobqueue.finish st.q e Job.Failed;
                        let probe =
                          {
                            (Bulk.probe_fail ~kind:"crash" ~detail) with
                            Bulk.journal = Some dl;
                            Bulk.attempts = attempt;
                          }
                        in
                        notify st id
                          (cell_result_response ~id ~fp:e.Jobqueue.fp
                             ~cell_id:c.Bulk.cell_id ~cached:false
                             ~dead_letter:true (Bulk.probe_to_json probe)));
                    Format.printf
                      "verifyd: job %s dead-lettered after %d attempt(s)@." id
                      attempt;
                    Format.pp_print_flush Format.std_formatter ();
                    cleanup ()
                  end
                end);
            go ())
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let enforce_deadlines st =
  let now = Unix.gettimeofday () in
  List.iter
    (fun w ->
      match w.kill_after with
      | Some t when now > t && not w.killed ->
          w.killed <- true;
          w.timed_out <- true;
          Log.warn (fun k ->
              k "job %s worker %d past deadline + grace; SIGKILL" w.w_id w.pid);
          (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ())
      | _ -> ())
    st.workers

(* Drain each worker's heartbeat pipe (non-blocking); any byte renews
   its lease. EOF means the worker is gone — reap will collect it. *)
let drain_heartbeats st =
  let now = Resilient.wall_now () in
  let buf = Bytes.create 256 in
  List.iter
    (fun w ->
      if w.hb_open then begin
        let beat = ref false in
        let rec drain () =
          match Unix.read w.hb_r buf 0 (Bytes.length buf) with
          | 0 ->
              w.hb_open <- false;
              close_fd w.hb_r
          | _ ->
              beat := true;
              drain ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
          | exception Unix.Unix_error _ ->
              w.hb_open <- false;
              close_fd w.hb_r
        in
        drain ();
        if !beat then Resilient.Lease.renew st.lease_policy w.lease ~now
      end)
    st.workers

(* A worker whose lease expired (no heartbeat for a full TTL) is
   presumed wedged: reclaim it with SIGKILL. Reap then routes the death
   through the ordinary crash path — bounded re-dispatch with backoff,
   then dead-letter — so a silent wedge and a hard crash converge on
   the same recovery machinery. *)
let enforce_leases st =
  let now = Resilient.wall_now () in
  List.iter
    (fun w ->
      if (not w.killed) && Resilient.Lease.expired w.lease ~now then begin
        w.killed <- true;
        w.lease_expired <- true;
        st.c.leases_reclaimed <- st.c.leases_reclaimed + 1;
        Format.printf
          "verifyd: job %s lease expired (no heartbeat within %.3gs); reclaiming \
           worker %d@."
          w.w_id st.lease_policy.Resilient.Lease.ttl_s w.pid;
        Format.pp_print_flush Format.std_formatter ();
        try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ()
      end)
    st.workers

let dispatch st =
  if (not (wedged st)) && not !(st.draining) then begin
    let now = Unix.gettimeofday () in
    let progress = ref true in
    while
      !progress
      && List.length st.workers < st.cfg.workers
      && not (Queue.is_empty st.pending)
    do
      progress := false;
      let id = Queue.peek st.pending in
      let due =
        match Hashtbl.find_opt st.not_before id with
        | Some t -> now >= t
        | None -> true
      in
      match Jobqueue.find st.q id with
      | None ->
          ignore (Queue.pop st.pending);
          progress := true
      | Some e when e.Jobqueue.state <> Jobqueue.Pending ->
          ignore (Queue.pop st.pending);
          progress := true
      | Some e ->
          if due && Breaker.allow st.breaker then begin
            ignore (Queue.pop st.pending);
            spawn_worker st e;
            progress := true
          end
    done
  end

(* ----------------------------------------------------------------- *)
(* Requests *)

let status_json st =
  let entries, bytes = Supervise.Cache.usage st.cache in
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
      ("running", Json.Num (float_of_int (List.length st.workers)));
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

let handle_submit st cl req =
  st.c.submits <- st.c.submits + 1;
  match
    match Json.member "job" req with
    | Some j -> Job.spec_of_json j
    | None -> Error "submit request missing \"job\""
  with
  | Error why -> ignore (send st cl (error_response "%s" why))
  | Ok spec -> (
      let spec =
        match (spec.Job.deadline_s, st.cfg.default_deadline_s) with
        | None, Some d -> { spec with Job.deadline_s = Some d }
        | _ -> spec
      in
      let wait = Json.mem_bool "wait" req <> Some false in
      let fp = Job.fingerprint spec in
      match stored_result st fp with
      | Some stored ->
          (* Replay from the durable result store: byte-identical to the
             run that produced it, zero solves. *)
          st.c.cache_served <- st.c.cache_served + 1;
          ignore (send st cl (result_response ~id:("cached-" ^ fp) ~cached:true stored))
      | None -> (
          match Hashtbl.find_opt st.by_fp fp with
          | Some id ->
              (* In-flight dedup: N clients asking the same point share
                 one worker. *)
              st.c.deduped <- st.c.deduped + 1;
              if wait then begin
                let fds =
                  match Hashtbl.find_opt st.waiters id with
                  | Some fds -> fds
                  | None ->
                      let fds = ref [] in
                      Hashtbl.replace st.waiters id fds;
                      fds
                in
                if not (List.memq cl.cfd !fds) then fds := cl.cfd :: !fds
              end;
              ignore
                (send st cl
                   (Json.Obj
                      [
                        ("type", Json.Str "accepted");
                        ("id", Json.Str id);
                        ("fp", Json.Str fp);
                        ("deduped", Json.Bool true);
                      ]))
          | None ->
              if !(st.draining) then
                ignore
                  (send st cl
                     (Json.Obj
                        [
                          ("type", Json.Str "draining");
                          ( "message",
                            Json.Str "daemon is draining; resubmit after restart" );
                        ]))
              else if Breaker.state st.breaker = Breaker.Open then begin
                (* Circuit open: degrade to cache-only serving. *)
                st.c.breaker_rejects <- st.c.breaker_rejects + 1;
                st.c.shed <- st.c.shed + 1;
                ignore
                  (send st cl
                     (Json.Obj
                        [
                          ("type", Json.Str "degraded");
                          ( "message",
                            Json.Str
                              "worker fleet unhealthy; serving cached results only" );
                          ("retry_after_s", Json.Num (Breaker.retry_after_s st.breaker));
                        ]))
              end
              else if Queue.length st.pending >= st.cfg.queue_cap then begin
                (* Bounded admission: shed load with a structured
                   refusal instead of growing without bound. *)
                st.c.shed <- st.c.shed + 1;
                ignore
                  (send st cl
                     (Json.Obj
                        [
                          ("type", Json.Str "overloaded");
                          ("queue_depth", Json.Num (float_of_int (Queue.length st.pending)));
                          ( "retry_after_s",
                            Json.Num (2.0 *. float_of_int (Queue.length st.pending)) );
                        ]))
              end
              else begin
                let e = Jobqueue.submit st.q (Jobqueue.Point spec) in
                let id = e.Jobqueue.id in
                Queue.add id st.pending;
                Hashtbl.replace st.by_fp fp id;
                st.c.accepted <- st.c.accepted + 1;
                if wait then Hashtbl.replace st.waiters id (ref [ cl.cfd ])
                else Hashtbl.replace st.detached id ();
                ignore
                  (send st cl
                     (Json.Obj
                        [
                          ("type", Json.Str "accepted");
                          ("id", Json.Str id);
                          ("fp", Json.Str fp);
                          ("deduped", Json.Bool false);
                        ]));
                if fault_fires st (Fault.Drop_client id) then begin
                  Format.printf "verifyd: fault drop-client@%s firing@." id;
                  Format.pp_print_flush Format.std_formatter ();
                  drop_client st cl.cfd
                end
              end))

(* A bulk submission: the atlas client ships a wave of sweep cells in
   one request; the daemon shards them into per-cell jobs over the
   shared solve cache and streams [cell-result] lines back as each
   completes. Cells with a stored result are answered inline (tagged
   [degraded] when the fleet is unhealthy and cache-only service is all
   we offer); unknown cells are queued, deduped against in-flight
   work, or — when draining, breaker-open, or at the queue cap —
   deferred with a [retry_after_s] the client honours before
   resubmitting just those cells. *)
let handle_bulk st cl req =
  let parsed =
    match Json.member "cells" req with
    | Some (Json.Arr lines) ->
        List.fold_left
          (fun acc v ->
            Result.bind acc (fun cs ->
                match v with
                | Json.Str line ->
                    Result.bind (Bulk.of_line line) (fun c ->
                        Result.map (fun () -> c :: cs) (Bulk.validate c))
                | _ -> Error "bulk cells must be canonical cell lines (strings)"))
          (Ok []) lines
        |> Result.map List.rev
    | _ -> Error "bulk request missing \"cells\" array"
  in
  match parsed with
  | Error why -> ignore (send st cl (error_response "%s" why))
  | Ok cells ->
      let queued = ref 0 and cached = ref 0 and deduped = ref 0 in
      let deferred = ref [] in
      let cached_replies = ref [] in
      let drop_after = ref false in
      (* Cache-only degradation: when the breaker is open or the daemon
         is draining, stored answers still flow but are tagged so the
         client knows the batch ran degraded, not healthy. *)
      let degraded_now =
        Breaker.state st.breaker = Breaker.Open || !(st.draining)
      in
      let defer c retry_after_s =
        deferred := (c.Bulk.cell_id, retry_after_s) :: !deferred
      in
      List.iter
        (fun c ->
          st.c.submits <- st.c.submits + 1;
          let fp = Bulk.fingerprint c in
          match stored_result st fp with
          | Some probe_obj ->
              st.c.cache_served <- st.c.cache_served + 1;
              incr cached;
              cached_replies :=
                cell_result_response ~id:("cached-" ^ fp) ~fp
                  ~cell_id:c.Bulk.cell_id ~cached:true ~degraded:degraded_now
                  probe_obj
                :: !cached_replies
          | None -> (
              match Hashtbl.find_opt st.by_fp fp with
              | Some id ->
                  st.c.deduped <- st.c.deduped + 1;
                  incr deduped;
                  let fds =
                    match Hashtbl.find_opt st.waiters id with
                    | Some fds -> fds
                    | None ->
                        let fds = ref [] in
                        Hashtbl.replace st.waiters id fds;
                        fds
                  in
                  if not (List.memq cl.cfd !fds) then fds := cl.cfd :: !fds
              | None ->
                  if !(st.draining) then defer c 1.0
                  else if Breaker.state st.breaker = Breaker.Open then begin
                    st.c.breaker_rejects <- st.c.breaker_rejects + 1;
                    st.c.shed <- st.c.shed + 1;
                    defer c (Breaker.retry_after_s st.breaker)
                  end
                  else if Queue.length st.pending >= st.cfg.queue_cap then begin
                    st.c.shed <- st.c.shed + 1;
                    defer c (2.0 *. float_of_int (Queue.length st.pending))
                  end
                  else begin
                    let e = Jobqueue.submit st.q (Jobqueue.Cell c) in
                    let id = e.Jobqueue.id in
                    Queue.add id st.pending;
                    Hashtbl.replace st.by_fp fp id;
                    Hashtbl.replace st.waiters id (ref [ cl.cfd ]);
                    st.c.accepted <- st.c.accepted + 1;
                    incr queued;
                    if
                      fault_fires st (Fault.Drop_client id)
                      || fault_fires st (Fault.Drop_client c.Bulk.cell_id)
                    then begin
                      Format.printf "verifyd: fault drop-client@%s firing@."
                        c.Bulk.cell_id;
                      Format.pp_print_flush Format.std_formatter ();
                      drop_after := true
                    end
                  end))
        cells;
      ignore
        (send st cl
           (Json.Obj
              [
                ("type", Json.Str "bulk-accepted");
                ("total", Json.Num (float_of_int (List.length cells)));
                ("queued", Json.Num (float_of_int !queued));
                ("cached", Json.Num (float_of_int !cached));
                ("deduped", Json.Num (float_of_int !deduped));
                ("degraded", Json.Bool degraded_now);
                ( "deferred",
                  Json.Arr
                    (List.rev_map
                       (fun (cid, r) ->
                         Json.Obj
                           [
                             ("cell_id", Json.Str cid);
                             ("retry_after_s", Json.Num r);
                           ])
                       !deferred) );
              ]));
      List.iter (fun r -> ignore (send st cl r)) (List.rev !cached_replies);
      if !drop_after then drop_client st cl.cfd

let handle_request st cl line =
  match Json.parse line with
  | Error why -> ignore (send st cl (error_response "bad request: %s" why))
  | Ok req -> (
      match Json.mem_str "cmd" req with
      | Some "submit" -> handle_submit st cl req
      | Some "bulk" -> handle_bulk st cl req
      | Some "status" -> ignore (send st cl (status_json st))
      | Some "cache-gc" -> (
          let max_mb =
            match Json.mem_num "max_mb" req with
            | Some f when f >= 0.0 -> Some (int_of_float f)
            | _ -> st.cfg.cache_max_mb
          in
          match max_mb with
          | None ->
              ignore
                (send st cl
                   (error_response
                      "cache-gc needs max_mb (or start verifyd with --cache-max-mb)"))
          | Some mb ->
              let s = Supervise.Cache.gc st.cache ~max_bytes:(mb * 1024 * 1024) in
              ignore
                (send st cl
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
            (send st cl
               (Json.Obj [ ("type", Json.Str "stopping"); ("draining", Json.Bool true) ]))
      | Some c -> ignore (send st cl (error_response "unknown command %S" c))
      | None -> ignore (send st cl (error_response "request without \"cmd\"")))

(* Consume complete lines out of a client's receive buffer. *)
let feed_client st cl bytes n chunk =
  Buffer.add_subbytes cl.cbuf chunk 0 n;
  ignore bytes;
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

let drain_exit st =
  (* Pending jobs stay checkpointed in the fsync'd ledger; tell anyone
     still waiting on one, then flush and leave cleanly. *)
  let checkpointed = Queue.length st.pending in
  Queue.iter
    (fun id ->
      notify st id
        (Json.Obj
           [
             ("type", Json.Str "draining");
             ("id", Json.Str id);
             ( "message",
               Json.Str "job checkpointed in the queue ledger; resubmit after restart"
             );
           ]))
    st.pending;
  Jobqueue.close st.q;
  List.iter (fun c -> close_fd c.cfd) st.clients;
  close_fd st.listen;
  (try Unix.unlink st.sock with Unix.Unix_error _ -> ());
  Format.printf
    "verifyd: drained — 0 jobs in flight, %d pending checkpointed; exit 0@."
    checkpointed;
  Format.pp_print_flush Format.std_formatter ();
  0

let interrupt_exit st =
  List.iter
    (fun w -> try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ())
    st.workers;
  List.iter
    (fun w -> try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ())
    st.workers;
  Jobqueue.close st.q;
  List.iter (fun c -> close_fd c.cfd) st.clients;
  close_fd st.listen;
  (try Unix.unlink st.sock with Unix.Unix_error _ -> ());
  Format.printf "verifyd: interrupted — checkpoint saved; resume with --resume@.";
  Format.pp_print_flush Format.std_formatter ();
  130

let loop st =
  let chunk = Bytes.create 4096 in
  let rec go () =
    drain_heartbeats st;
    enforce_leases st;
    reap st;
    enforce_deadlines st;
    dispatch st;
    if !(st.interrupted) then interrupt_exit st
    else if !(st.draining) && st.workers = [] then drain_exit st
    else begin
      let fds = st.listen :: List.map (fun c -> c.cfd) st.clients in
      (match Unix.select fds [] [] 0.05 with
      | readable, _, _ ->
          List.iter
            (fun fd ->
              if fd == st.listen then (
                match Unix.accept st.listen with
                | cfd, _ ->
                    st.clients <- { cfd; cbuf = Buffer.create 256 } :: st.clients
                | exception Unix.Unix_error _ -> ())
              else
                match List.find_opt (fun c -> c.cfd == fd) st.clients with
                | None -> ()
                | Some cl -> (
                    match Unix.read fd chunk 0 (Bytes.length chunk) with
                    | 0 -> drop_client st fd
                    | n -> feed_client st cl 0 n chunk
                    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
                      ->
                        drop_client st fd
                    | exception Unix.Unix_error _ -> drop_client st fd))
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
  Fs.mkdir_p cfg.run_dir;
  match Supervise.Lock.acquire ~dir:cfg.run_dir ~wait_s:cfg.lock_wait_s () with
  | Error diag -> fail "%s" diag
  | Ok _ -> (
      match Jobqueue.open_ ~dir:cfg.run_dir with
      | Error why -> fail "%s" why
      | Ok (q, recovered, diags) ->
          List.iter (fun d -> Log.warn (fun k -> k "%s" d)) diags;
          if Jobqueue.had_entries q && not cfg.resume then
            fail
              "{\"error\":\"queue-not-resumed\",\"message\":\"run directory %s has a \
               job-queue ledger; restart with --resume (or use a fresh directory)\"}"
              (String.concat "" [ cfg.run_dir ])
          else begin
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
                Fs.mkdir_p (Filename.concat cfg.run_dir "outbox");
                Fs.mkdir_p (Filename.concat cfg.run_dir "dead-letter");
                let cache =
                  Supervise.Cache.create ~dir:(Filename.concat cfg.run_dir "cache")
                in
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
                    cache;
                    listen;
                    clients = [];
                    pending = Queue.create ();
                    workers = [];
                    waiters = Hashtbl.create 16;
                    detached = Hashtbl.create 16;
                    by_fp = Hashtbl.create 16;
                    retries = Hashtbl.create 16;
                    not_before = Hashtbl.create 16;
                    history = Hashtbl.create 16;
                    lease_policy =
                      {
                        Resilient.Lease.default_policy with
                        Resilient.Lease.ttl_s = cfg.lease_ttl_s;
                        Resilient.Lease.max_attempts = cfg.job_retries + 1;
                      };
                    breaker =
                      Breaker.create ~threshold:cfg.breaker_threshold
                        ~cooldown_s:cfg.breaker_cooldown_s ~now:Unix.gettimeofday ();
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
                List.iter
                  (fun (e : Jobqueue.entry) ->
                    Queue.add e.Jobqueue.id st.pending;
                    Hashtbl.replace st.by_fp e.Jobqueue.fp e.Jobqueue.id;
                    Hashtbl.replace st.detached e.Jobqueue.id ())
                  recovered;
                maybe_cache_gc st;
                Format.printf
                  "verifyd: listening on %s (run dir %s, %d workers, queue cap %d%s)@."
                  sock cfg.run_dir cfg.workers cfg.queue_cap
                  (if recovered <> [] then
                     Printf.sprintf "; recovered %d in-flight job(s)"
                       (List.length recovered)
                   else "");
                Format.pp_print_flush Format.std_formatter ();
                loop st
          end)
