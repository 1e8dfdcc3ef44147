(* Process-isolated solve supervision: one long-lived solver worker per
   context with wall-clock timeouts and rlimit caps, a forked pool for
   independent work items, a content-addressed solve cache with atomic
   writes, and a write-ahead journal for crash-safe resume. *)

let src = Logs.Src.create "supervise" ~doc:"Process-isolated solve supervision"

module Log = (val Logs.src_log src : Logs.LOG)

external set_mem_limit_mb : int -> int = "pll_supervise_set_mem_limit_mb"
external die_with_parent : unit -> int = "pll_supervise_die_with_parent"

module Fs = Substrate.Fs
module Json = Substrate.Json

(* A run-directory refusal: one JSON object, its error kind first. *)
let refusal error fields = Json.(to_string (Obj (("error", Str error) :: fields)))

(* ------------------------------------------------------------------ *)
(* Process-level fault specs                                          *)
(* ------------------------------------------------------------------ *)

module Fault = struct
  type kind = Kill | Stall | Corrupt_cache
  type spec = { kind : kind; solve : int; iter : int }

  let for_solve specs idx =
    List.find_opt (fun s -> s.solve = 0 || s.solve = idx) specs
end

(* ------------------------------------------------------------------ *)
(* Content-addressed solve cache                                      *)
(* ------------------------------------------------------------------ *)

module Cache = struct
  type t = { dir : string }

  type entry_error =
    | Missing
    | Bad_header of string
    | Truncated of { expected : int; got : int }
    | Digest_mismatch
    | Decode_failure of string
    | Io_error of string

  let error_to_string = function
    | Missing -> "missing"
    | Bad_header h -> Printf.sprintf "bad header %S" h
    | Truncated { expected; got } ->
        Printf.sprintf "truncated (expected %d payload bytes, found %d)" expected got
    | Digest_mismatch -> "payload digest mismatch"
    | Decode_failure m -> Printf.sprintf "payload does not decode: %s" m
    | Io_error m -> Printf.sprintf "io error: %s" m

  let magic = "pll-solve-cache v1"

  let create ~dir =
    Fs.mkdir_p dir;
    { dir }

  let dir t = t.dir
  let path t ~key = Filename.concat t.dir (key ^ ".solve")

  let store t ~key (sol : Sdp.solution) =
    let payload = Marshal.to_string sol [] in
    let header =
      Printf.sprintf "%s %d %s\n" magic (String.length payload)
        (Digest.to_hex (Digest.string payload))
    in
    match Fs.write_atomic (path t ~key) (header ^ payload) with
    | () -> Ok ()
    | exception (Unix.Unix_error _ | Sys_error _) ->
        Error (Printf.sprintf "cannot write cache entry %s" key)

  let load t ~key =
    let file = path t ~key in
    if not (Sys.file_exists file) then Error Missing
    else
      match Fs.read_file file with
      | exception Sys_error m -> Error (Io_error m)
      | content -> (
          match String.index_opt content '\n' with
          | None -> Error (Bad_header content)
          | Some nl -> (
              let header = String.sub content 0 nl in
              match String.split_on_char ' ' header with
              | [ m1; m2; len_s; digest ] when m1 ^ " " ^ m2 = magic -> (
                  match int_of_string_opt len_s with
                  | None -> Error (Bad_header header)
                  | Some expected ->
                      let got = String.length content - nl - 1 in
                      if got <> expected then Error (Truncated { expected; got })
                      else
                        let payload = String.sub content (nl + 1) expected in
                        if Digest.to_hex (Digest.string payload) <> digest then
                          Error Digest_mismatch
                        else begin
                          match (Marshal.from_string payload 0 : Sdp.solution) with
                          | sol ->
                              (* Touch on hit: [gc]'s LRU order is entry
                                 mtime, so reads must refresh it. *)
                              (try Unix.utimes file 0.0 0.0
                               with Unix.Unix_error _ -> ());
                              Ok sol
                          | exception (Failure m | Invalid_argument m) ->
                              Error (Decode_failure m)
                        end)
              | _ -> Error (Bad_header header)))

  let corrupt t ~key =
    let file = path t ~key in
    match Fs.read_file file with
    | exception Sys_error _ -> false
    | content ->
        let keep = String.length content / 2 in
        let oc = open_out_bin file in
        output_string oc (String.sub content 0 keep);
        close_out oc;
        true

  (* ---- size-capped LRU eviction (the long-running-daemon story) ---- *)

  type gc_stats = {
    entries : int;
    bytes : int;
    evicted : int;
    evicted_bytes : int;
  }

  let entry_suffix = ".solve"

  let scan t =
    let names = try Sys.readdir t.dir with Sys_error _ -> [||] in
    let acc = ref [] in
    Array.iter
      (fun name ->
        if Filename.check_suffix name entry_suffix then begin
          let file = Filename.concat t.dir name in
          match Unix.stat file with
          | st -> acc := (name, st.Unix.st_mtime, st.Unix.st_size) :: !acc
          | exception Unix.Unix_error _ -> ()
        end)
      names;
    !acc

  let usage t =
    List.fold_left (fun (n, b) (_, _, sz) -> (n + 1, b + sz)) (0, 0) (scan t)

  let gc t ~max_bytes =
    (* Leftover tmp files (writers that crashed mid-store) age out too:
       they are invisible to the loader but not to the disk. *)
    let now = Unix.gettimeofday () in
    let is_stale_tmp name =
      (* Fs.write_atomic temp names are <key>.solve.tmp.<pid>. *)
      let marker = entry_suffix ^ ".tmp." in
      let nm = String.length marker and nn = String.length name in
      let rec has i = i + nm <= nn && (String.sub name i nm = marker || has (i + 1)) in
      has 0
    in
    Array.iter
      (fun name ->
        if is_stale_tmp name then
          let file = Filename.concat t.dir name in
          match Unix.stat file with
          | st when now -. st.Unix.st_mtime > 600.0 -> (
              try Sys.remove file with Sys_error _ -> ())
          | _ | (exception Unix.Unix_error _) -> ())
      (try Sys.readdir t.dir with Sys_error _ -> [||]);
    (* Oldest-mtime-first eviction, name as a deterministic tiebreak. *)
    let entries =
      List.sort
        (fun (n1, m1, _) (n2, m2, _) -> if m1 <> m2 then compare m1 m2 else compare n1 n2)
        (scan t)
    in
    let total = List.fold_left (fun b (_, _, sz) -> b + sz) 0 entries in
    let rec evict kept_rev over = function
      | [] -> (List.rev kept_rev, over)
      | (name, _, sz) :: rest when over > 0 ->
          let file = Filename.concat t.dir name in
          let gone = try Sys.remove file; true with Sys_error _ -> false in
          if gone then evict kept_rev (over - sz) rest
          else evict ((name, sz) :: kept_rev) over rest
      | (name, _, sz) :: rest -> evict ((name, sz) :: kept_rev) over rest
    in
    let kept, remaining_over = evict [] (total - max_bytes) entries in
    ignore remaining_over;
    (* Make the deletions durable the same way stores are. *)
    Fs.fsync_dir t.dir;
    let bytes = List.fold_left (fun b (_, sz) -> b + sz) 0 kept in
    {
      entries = List.length kept;
      bytes;
      evicted = List.length entries - List.length kept;
      evicted_bytes = total - bytes;
    }
end

(* ------------------------------------------------------------------ *)
(* Write-ahead journal                                                *)
(* ------------------------------------------------------------------ *)

module Journal = struct
  module Wal = Substrate.Wal

  type entry = {
    seq : int;
    key : string;
    source : string;
    status : string;
    wall_s : float;
    label : string;
  }

  type t = Wal.t

  let magic = "pll-run-journal v1"
  let path dir = Filename.concat dir "journal.log"

  let read dir =
    let file = path dir in
    let r = Wal.replay ~magic file in
    let entries, diags =
      List.fold_left
        (fun (entries, diags) ((_, line) as numbered) ->
          let bad why = (entries, Wal.diagnosis file numbered why :: diags) in
          match String.split_on_char ' ' line with
          | ("run" | "start") :: _ -> (entries, diags)
          | "done" :: seq :: key :: source :: status :: wall :: label_words -> (
              match (int_of_string_opt seq, float_of_string_opt wall) with
              | Some seq, Some wall_s ->
                  let label = String.concat " " label_words in
                  ({ seq; key; source; status; wall_s; label } :: entries, diags)
              | _ -> bad "malformed done line")
          | _ -> bad "unrecognized line")
        ([], []) r.Wal.records
    in
    (List.rev entries, List.rev diags @ r.Wal.diags)

  let open_ dir =
    let t = Wal.open_ ~magic (path dir) in
    Wal.append t (Printf.sprintf "run %.3f %d" (Unix.gettimeofday ()) (Unix.getpid ()));
    t

  (* Each append is fsync'd before the solve it records proceeds: the
     [start] line is durable before the worker launches. *)
  let record_start t ~seq ~key ~label =
    Wal.append t (Printf.sprintf "start %d %s %s" seq key label)

  let record_done t e =
    Wal.append t
      (Printf.sprintf "done %d %s %s %s %.6f %s" e.seq e.key e.source e.status e.wall_s e.label)
end

(* ------------------------------------------------------------------ *)
(* Descriptors a fork must not pass on                                *)
(* ------------------------------------------------------------------ *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* The descriptors of this process's run-directory locks, the ends it
   holds on the pipes of the processes it forked and, in a forked
   process, its own answer end. Every fork closes them in the child and
   starts the child's list afresh, so no process keeps another's lock
   or pipe: a child's death is end of file on its answer pipe at once,
   whatever it leaves running, and a solver worker's request pipe has
   one writer. *)
let held : Unix.file_descr list ref = ref []

let hold fd = held := fd :: !held

(* Close one of [held]'s descriptors, and forget it: its number may be
   reused. *)
let let_go fd =
  held := List.filter (fun fd' -> fd' <> fd) !held;
  close_quietly fd

(* ------------------------------------------------------------------ *)
(* Advisory run-directory lock                                        *)
(* ------------------------------------------------------------------ *)

module Lock = struct
  type acquisition = Acquired | Reentrant | Stolen_stale of int

  external flock : Unix.file_descr -> bool -> bool = "pll_supervise_flock"

  let path dir = Filename.concat dir "cache.lock"

  (* Each lock this process took: its file, the descriptor that holds it
     and the pid that took it. A forked child inherits the table but not
     the lock ([held] closes the child's copy), so an entry is this
     process's only if the pids match. *)
  let locks : (string, Unix.file_descr * int) Hashtbl.t = Hashtbl.create 4

  let mine file =
    match Hashtbl.find_opt locks file with
    | Some (fd, pid) when pid = Unix.getpid () -> Some fd
    | _ -> None

  let holder ~dir =
    match Fs.read_file (path dir) with
    | exception Sys_error _ -> None
    | content -> int_of_string_opt (String.trim content)

  (* Clear the pid before unlocking, so it never erases a successor's;
     unlock before closing, so a forked process that still shares the
     descriptor cannot keep the lock. *)
  let release ~dir =
    let file = path dir in
    Option.iter
      (fun fd ->
        (try Unix.ftruncate fd 0 with Unix.Unix_error _ -> ());
        (try ignore (flock fd false) with Unix.Unix_error _ -> ());
        let_go fd;
        Hashtbl.remove locks file)
      (mine file)

  let diagnosis ~dir ~pid =
    refusal "run-dir-locked"
      Json.
        [
          ("dir", Str dir);
          ("lock", Str (path dir));
          ("holder_pid", match pid with Some p -> int p | None -> Null);
          ( "hint",
            Str
              "another process is using this run directory's solve cache; wait for it or pick \
               a fresh --run-dir" );
        ]

  (* The kernel lock is the claim; the pid it writes only names the
     holder. A pid already there is a holder that left without
     releasing: its lock went with its last descriptor. *)
  let acquire ~dir () =
    Fs.mkdir_p dir;
    let file = path dir in
    let io_error e =
      Error (refusal "lock-io" Json.[ ("lock", Str file); ("detail", Str (Unix.error_message e)) ])
    in
    if mine file <> None then Ok Reentrant
    else
      match Unix.openfile file [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644 with
      | exception Unix.Unix_error (e, _, _) -> io_error e
      | fd -> (
          match flock fd true with
          | exception Unix.Unix_error (e, _, _) ->
              Unix.close fd;
              io_error e
          | false ->
              Unix.close fd;
              Error (diagnosis ~dir ~pid:(holder ~dir))
          | true ->
              let previous = holder ~dir in
              let me = string_of_int (Unix.getpid ()) ^ "\n" in
              Unix.ftruncate fd 0;
              ignore (Unix.write_substring fd me 0 (String.length me));
              (try Unix.fsync fd with Unix.Unix_error _ -> ());
              hold fd;
              Hashtbl.replace locks file (fd, Unix.getpid ());
              match previous with
              | Some pid ->
                  Log.info (fun k -> k "took over %s from pid %d, which left it unreleased" file pid);
                  Ok (Stolen_stale pid)
              | None -> Ok Acquired)
end

(* ------------------------------------------------------------------ *)
(* Run-configuration fingerprint guard                                *)
(* ------------------------------------------------------------------ *)

module Config_guard = struct
  type verdict = Fresh | Matched

  let magic = "pll-run-config v1"
  let path dir = Filename.concat dir "config.fp"

  (* First line magic, second the fingerprint digest, rest the
     human-readable summary of what was fingerprinted — so a refusal can
     show what the run directory was built with. *)
  let read dir =
    match Fs.read_file (path dir) with
    | exception Sys_error _ -> None
    | content -> (
        match String.split_on_char '\n' content with
        | m :: fp :: rest when m = magic ->
            Some (String.trim fp, String.trim (String.concat "\n" rest))
        | _ -> Some ("<unparseable>", content))

  let check ~run_dir ~fingerprint ~summary =
    let digest = Digest.to_hex (Digest.string fingerprint) in
    match read run_dir with
    | None -> (
        Fs.mkdir_p run_dir;
        match
          Fs.write_atomic (path run_dir)
            (Printf.sprintf "%s\n%s\n%s\n" magic digest summary)
        with
        | () -> Ok Fresh
        | exception (Unix.Unix_error _ | Sys_error _) ->
            Error (refusal "config-io" Json.[ ("detail", Str ("cannot write " ^ path run_dir)) ]))
    | Some (stored, stored_summary) ->
        if stored = digest then Ok Matched
        else
          let one_line s = String.concat " " (String.split_on_char '\n' s) in
          Error
            (refusal "config-drift"
               Json.
                 [
                   ("run_dir", Str run_dir);
                   ("stored", Str stored);
                   ("requested", Str digest);
                   ("stored_config", Str (one_line stored_summary));
                   ("requested_config", Str (one_line summary));
                   ( "hint",
                     Str
                       "these CLI arguments change the problem fingerprints; resuming would \
                        silently mix cache entries from different problems — rerun with the \
                        original arguments or use a fresh --run-dir" );
                 ])
end

type stats = {
  mutable supervised : int;
  mutable forked : int;
  mutable inline_solves : int;
  mutable cache_hits : int;
  mutable cache_stores : int;
  mutable cache_rejects : int;
  mutable crashes : int;
  mutable timeouts : int;
  mutable pool_tasks : int;
}

(* A forked process, as its parent holds it: the pid, the read end of
   its answer pipe and, for the solver worker, the write end of its
   request pipe. *)
type proc = {
  pid : int;
  answers : Unix.file_descr;  (** child to parent *)
  requests : Unix.file_descr option;  (** parent to child: the solver worker's *)
}

type ctx = {
  jobs : int;
  solve_timeout_s : float option;
  mem_limit_mb : int option;
  isolate : bool;
  run_dir : string option;
  cache_ : Cache.t option;
  journal : Journal.t option;
  replayed : int;
  mutable stats : stats;
  mutable seq : int;
  mutable in_worker : bool;
  mutable interrupted : bool;
  mutable worker : proc option;
      (** the solver worker: a fork of the context's process that serves
          solve requests until it is released *)
}

exception Interrupted

let ncpus () = max 1 (Domain.recommended_domain_count ())

let fresh_stats () =
  {
    supervised = 0;
    forked = 0;
    inline_solves = 0;
    cache_hits = 0;
    cache_stores = 0;
    cache_rejects = 0;
    crashes = 0;
    timeouts = 0;
    pool_tasks = 0;
  }

(* Completed solves on record: what a resumed run replays from cache. *)
let completed_solves entries =
  List.length
    (List.filter (fun (e : Journal.entry) -> e.source = "solved" || e.source = "cache") entries)

let create ?run_dir ?jobs ?solve_timeout_s ?mem_limit_mb ?(isolate = true) () =
  let jobs = match jobs with Some j -> max 1 j | None -> ncpus () in
  let cache_, journal, replayed =
    match run_dir with
    | None -> (None, None, 0)
    | Some dir ->
        Fs.mkdir_p dir;
        Fs.mkdir_p (Filename.concat dir "artifacts");
        let completed, diags = Journal.read dir in
        List.iter (fun d -> Log.warn (fun k -> k "%s" d)) diags;
        ( Some (Cache.create ~dir:(Filename.concat dir "cache")),
          Some (Journal.open_ dir),
          completed_solves completed )
  in
  {
    jobs;
    solve_timeout_s;
    mem_limit_mb;
    isolate;
    run_dir;
    cache_;
    journal;
    replayed;
    stats = fresh_stats ();
    seq = 0;
    in_worker = false;
    interrupted = false;
    worker = None;
  }

(* ------------------------------------------------------------------ *)
(* Opening a run directory                                            *)
(* ------------------------------------------------------------------ *)

type ledger = { name : string; entries : string -> int }

let journal = { name = "journal"; entries = (fun dir -> completed_solves (fst (Journal.read dir))) }

let check_resume ledger ~run_dir ~resume =
  match ledger.entries run_dir with
  | n when n > 0 && not resume ->
      Error
        (refusal (ledger.name ^ "-not-resumed")
           Json.
             [
               ("run_dir", Str run_dir);
               ("entries", int n);
               ( "hint",
                 Str
                   (Printf.sprintf
                      "this run directory's %s ledger already holds %d entr%s; rerun with \
                       --resume to continue it, or use a fresh run directory"
                      ledger.name n
                      (if n = 1 then "y" else "ies")) );
             ])
  | _ -> Ok ()

let claim ~run_dir ?fingerprint ~ledger ~resume () =
  let ( let* ) = Result.bind in
  let* _ = Lock.acquire ~dir:run_dir () in
  let* _ =
    match fingerprint with
    | Some fingerprint -> Config_guard.check ~run_dir ~fingerprint ~summary:fingerprint
    | None -> Ok Config_guard.Matched
  in
  check_resume ledger ~run_dir ~resume

(* Inside an isolation boundary already, as a pool child is: solves and
   pool items run inline, and without a run directory nothing is cached
   or journaled. *)
let in_process () =
  let ctx = create ~jobs:1 ~isolate:false () in
  ctx.in_worker <- true;
  ctx

let open_run ?run_dir ?resume ?jobs ?solve_timeout_s ?mem_limit_mb ~ledger ~fingerprint () =
  let run_dir = if resume <> None then resume else run_dir in
  let claimed =
    match run_dir with
    | None -> Ok ()
    | Some dir -> claim ~run_dir:dir ~fingerprint ~ledger ~resume:(resume <> None) ()
  in
  Result.map (fun () -> create ?run_dir ?jobs ?solve_timeout_s ?mem_limit_mb ()) claimed

let jobs ctx = ctx.jobs
let run_dir ctx = ctx.run_dir
let cache ctx = ctx.cache_
let stats ctx = ctx.stats
let replayed ctx = ctx.replayed
let interrupt ctx = ctx.interrupted <- true

let install_signal_handlers ctx =
  let handle _ = ctx.interrupted <- true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle handle);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handle)

let check_interrupt ctx = if ctx.interrupted && not ctx.in_worker then raise Interrupted

(* ------------------------------------------------------------------ *)
(* Framing                                                            *)
(* ------------------------------------------------------------------ *)

(* Every message between a process and its workers is one frame on a
   pipe: the payload length as 8 big-endian bytes, then the payload, a
   marshalled value. *)
module Frame = struct
  let header = 8

  let rec write_all fd b off len =
    if len > 0 then
      match Unix.single_write fd b off len with
      | n -> write_all fd b (off + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off len

  let send fd payload =
    let h = Bytes.create header in
    Bytes.set_int64_be h 0 (Int64.of_int (String.length payload));
    write_all fd h 0 header;
    write_all fd (Bytes.unsafe_of_string payload) 0 (String.length payload)

  let rec read_exact fd b off len =
    len = 0
    ||
    match Unix.read fd b off len with
    | 0 -> false
    | n -> read_exact fd b (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_exact fd b off len

  (* One whole frame; [None] if the writer closed its end first. A
     parent calls it once [select] finds the pipe readable: a worker
     writes its answer in one go, so the rest follows at once. *)
  let recv fd =
    let h = Bytes.create header in
    if not (read_exact fd h 0 header) then None
    else
      let body = Bytes.create (Int64.to_int (Bytes.get_int64_be h 0)) in
      if read_exact fd body 0 (Bytes.length body) then Some (Bytes.unsafe_to_string body)
      else None
end

let decode payload =
  match Marshal.from_string payload 0 with
  | v -> Ok v
  | exception (Failure m | Invalid_argument m) -> Error ("worker result does not decode: " ^ m)

let rec waitpid_retry pid =
  try Unix.waitpid [] pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* Why a worker that produced no answer ended. *)
let exit_reason = function
  | Unix.WEXITED 0 -> "worker wrote no result"
  | Unix.WEXITED c -> Printf.sprintf "worker exited with code %d" c
  | Unix.WSIGNALED sg when sg = Sys.sigkill -> "worker killed by SIGKILL (crash or OOM-kill)"
  | Unix.WSIGNALED sg -> Printf.sprintf "worker killed by signal %d" sg
  | Unix.WSTOPPED sg -> Printf.sprintf "worker stopped by signal %d" sg

(* ------------------------------------------------------------------ *)
(* Forked processes                                                   *)
(* ------------------------------------------------------------------ *)

(* The one fork: the child runs [body requests answers] and leaves by
   [Unix._exit] (2 if [body] raised), so no at_exit or flush machinery
   of the parent runs twice. [serve] adds a request pipe. The child is
   SIGKILLed when its parent dies; a parent that died before the signal
   was armed shows as a changed parent pid. *)
let fork_proc ~serve body =
  let ans_r, ans_w = Unix.pipe ~cloexec:true () in
  let req = if serve then Some (Unix.pipe ~cloexec:true ()) else None in
  let parent = Unix.getpid () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      ignore (die_with_parent ());
      if Unix.getppid () <> parent then Unix._exit 1;
      List.iter close_quietly (ans_r :: (Option.to_list (Option.map snd req) @ !held));
      held := [ ans_w ];
      (try body (Option.map fst req) ans_w with _ -> Unix._exit 2);
      Unix._exit 0
  | pid ->
      Unix.close ans_w;
      Option.iter (fun (r, _) -> Unix.close r) req;
      hold ans_r;
      Option.iter (fun (_, w) -> hold w) req;
      { pid; answers = ans_r; requests = Option.map snd req }

let kill p = try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ()

(* Close this process's ends of [p]'s pipes and wait for it. *)
let reap p =
  let_go p.answers;
  Option.iter let_go p.requests;
  match waitpid_retry p.pid with _, st -> st | exception Unix.Unix_error _ -> Unix.WEXITED 0

let release ctx =
  Option.iter
    (fun w ->
      kill w;
      ignore (reap w))
    ctx.worker;
  ctx.worker <- None

(* ------------------------------------------------------------------ *)
(* One-answer children                                                *)
(* ------------------------------------------------------------------ *)

module Child = struct
  type 'a t = proc

  (* The child sends its result, or the text of the exception it
     raised, as one frame. *)
  let spawn body =
    fork_proc ~serve:false (fun _ answers ->
        let res = try Ok (body ()) with e -> Error (Printexc.to_string e) in
        try Frame.send answers (Marshal.to_string res []) with _ -> ())

  let fd c = c.answers
  let pid c = c.pid

  (* Read the answer before reaping: a child blocks writing an answer
     larger than the pipe buffer until it is read. *)
  let collect c =
    let answer = Frame.recv c.answers in
    match (reap c, answer) with
    | Unix.WEXITED 0, Some payload -> Result.join (decode payload)
    | st, _ -> Error (exit_reason st)

  let kill = kill
end

(* Chain a process-fault trigger in front of the caller's hook, so the
   worker kills or wedges itself at the requested interior-point
   iteration. Runs in the worker only. A wedged worker dies with its
   parent, as every forked process does. *)
let inject_proc_fault (pf : Fault.spec option) (params : Sdp.params) =
  match pf with
  | None | Some { Fault.kind = Fault.Corrupt_cache; _ } -> params
  | Some { Fault.kind; iter; _ } ->
      let inner = params.Sdp.on_iteration in
      let hook i =
        if i = iter then begin
          match kind with
          | Fault.Kill -> Unix.kill (Unix.getpid ()) Sys.sigkill
          | Fault.Stall ->
              while true do
                Unix.sleepf 0.05
              done
          | Fault.Corrupt_cache -> ()
        end;
        match inner with Some h -> h i | None -> None
      in
      { params with Sdp.on_iteration = Some hook }

(* One solve request: parameters (the iteration hook included), the
   problem, the warm-start hint and the process fault to inject. *)
type request = Sdp.params * Sdp.problem * Sdp.warm_start option * Fault.spec option

(* The numeric solve itself, in the worker or inline: with a hint, a
   throwaway session applies the standard warm-start discipline
   (bounded warm attempt, cold re-solve unless Optimal). *)
let solve_hinted ?hint ~params prob =
  match hint with
  | Some w -> Sdp.Session.solve (Sdp.Session.create ()) ~hint:w ~params prob
  | None -> Sdp.solve ~params prob

(* The worker's loop: one request in, one answer out, until the request
   pipe reaches end of file (the parent released it or died) or the
   answer cannot be written (the parent died). A solve that raised ends
   the loop too, so the next request runs on a fresh heap. *)
let serve req res =
  let rec loop () =
    match Frame.recv req with
    | None -> ()
    | Some payload ->
        let params, prob, hint, proc_fault = (Marshal.from_string payload 0 : request) in
        let params = inject_proc_fault proc_fault params in
        let result =
          try Ok (solve_hinted ?hint ~params prob) with e -> Error (Printexc.to_string e)
        in
        Frame.send res (Marshal.to_string (result : (Sdp.solution, string) result) []);
        if Result.is_ok result then loop ()
  in
  loop ()

(* Spawned at the first isolated solve, not at [create], so it inherits
   whatever the process installed by then (a daemon job worker's
   heartbeat sink, say). *)
let spawn ctx =
  ctx.stats.forked <- ctx.stats.forked + 1;
  let w =
    fork_proc ~serve:true (fun requests answers ->
        ctx.in_worker <- true;
        Option.iter (fun mb -> ignore (set_mem_limit_mb mb)) ctx.mem_limit_mb;
        (* A dead parent must surface as EPIPE on the answer, not kill the
           worker mid-write with its inherited disposition. *)
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        serve (Option.get requests) answers)
  in
  ctx.worker <- Some w;
  w

(* A write to a worker that died while idle must fail with EPIPE, not
   kill this process. *)
let send_request w payload =
  let previous = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigpipe previous)
    (fun () -> Frame.send (Option.get w.requests) payload)

type worker_outcome =
  | W_done of Sdp.solution
  | W_crashed of string
  | W_timed_out of float

(* Send the request to the context's worker and wait for the answer in
   [select], waking every 50 ms for interrupts, up to the solve
   deadline. A crash, timeout or interrupt ends the worker; the next
   solve spawns a fresh one. *)
let solve_in_worker ctx ~proc_fault ?hint ~params prob =
  let w = match ctx.worker with Some w -> w | None -> spawn ctx in
  let t0 = Unix.gettimeofday () in
  let deadline = Option.map (fun t -> t0 +. t) ctx.solve_timeout_s in
  let died () =
    ctx.worker <- None;
    W_crashed (exit_reason (reap w))
  in
  (* No sharing: with it, the extern table marshalling builds stays in
     this process's heap. The hook closures are valid in the worker
     because it is a fork of this very image, never exec'd. *)
  let payload =
    Marshal.to_string
      ((params, prob, hint, proc_fault) : request)
      [ Marshal.Closures; Marshal.No_sharing ]
  in
  match send_request w payload with
  | exception Unix.Unix_error _ -> died ()
  | () ->
      let rec wait () =
        if ctx.interrupted then begin
          release ctx;
          raise Interrupted
        end;
        let now = Unix.gettimeofday () in
        match deadline with
        | Some d when now > d ->
            release ctx;
            W_timed_out (Unix.gettimeofday () -. t0)
        | _ -> (
            let timeout =
              match deadline with Some d -> Float.min 0.05 (d -. now) | None -> 0.05
            in
            match Unix.select [ w.answers ] [] [] timeout with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
            | [], _, _ -> wait ()
            | _ -> (
                match Frame.recv w.answers with
                | None -> died ()
                | Some payload -> (
                    match decode payload with
                    | Ok (Ok sol) -> W_done sol
                    | Ok (Error e) ->
                        release ctx;
                        W_crashed ("worker exception: " ^ e)
                    | Error e ->
                        release ctx;
                        W_crashed e)))
      in
      wait ()

(* A synthetic solution for a crashed or reaped worker: correctly
   dimensioned, [best_score = infinity] so the resilience layer never
   salvages it, and a status the retry ladder already knows how to
   escalate from. *)
let failed_solution status (p : Sdp.problem) : Sdp.solution =
  {
    Sdp.status;
    x_blocks = Array.map (fun d -> Linalg.Mat.create d d) p.Sdp.block_dims;
    f = Array.make p.Sdp.n_free 0.0;
    y = Array.make (Array.length p.Sdp.constraints) 0.0;
    s_blocks = Array.map (fun d -> Linalg.Mat.create d d) p.Sdp.block_dims;
    primal_obj = Float.nan;
    dual_obj = Float.nan;
    gap = Float.infinity;
    primal_res = Float.infinity;
    dual_res = Float.infinity;
    iterations = 0;
    best_score = Float.infinity;
    trace = [];
    injected = 0;
  }

let status_string = function
  | Sdp.Optimal -> "optimal"
  | Sdp.Near_optimal -> "near_optimal"
  | Sdp.Primal_infeasible -> "primal_infeasible"
  | Sdp.Dual_infeasible -> "dual_infeasible"
  | Sdp.Max_iterations -> "max_iterations"
  | Sdp.Numerical_failure -> "numerical_failure"

(* ------------------------------------------------------------------ *)
(* Heartbeats                                                         *)
(* ------------------------------------------------------------------ *)

(* A process-global liveness sink: a {!Pool} given a lease TTL installs
   one in each child it forks, writing a byte up the child's heartbeat
   pipe so the pool can renew the lease. Every supervised solve then
   beats it at entry and at each interior-point iteration, rate-limited.
   Beats never raise and never change solver behaviour or cache keys
   (the iteration hook is excluded from the canonical serialization). *)

module Heartbeat = struct
  let sink : (unit -> unit) option ref = ref None
  let interval = ref 0.0
  let last = ref neg_infinity

  let install ~min_interval_s f =
    sink := Some f;
    interval := min_interval_s;
    last := neg_infinity

  let beat () =
    match !sink with
    | None -> ()
    | Some f ->
        let now = Unix.gettimeofday () in
        if now -. !last >= !interval then begin
          last := now;
          try f () with _ -> ()
        end

  (* Chain a beat in front of the caller's iteration hook, preserving
     its fault/deadline return value. *)
  let wrap_params (params : Sdp.params) =
    if Option.is_none !sink then params
    else
      let inner = params.Sdp.on_iteration in
      {
        params with
        Sdp.on_iteration =
          Some
            (fun i ->
              beat ();
              match inner with Some h -> h i | None -> None);
      }
end

(* ------------------------------------------------------------------ *)
(* The supervised solve                                               *)
(* ------------------------------------------------------------------ *)

let solve_sdp ctx ~label ?proc_fault ?session ?hint ?(params = Sdp.default_params) prob =
  check_interrupt ctx;
  Heartbeat.beat ();
  let st = ctx.stats in
  st.supervised <- st.supervised + 1;
  ctx.seq <- ctx.seq + 1;
  let seq = ctx.seq in
  (* The cache key deliberately excludes [session]/[hint]: hints change
     the iterate path, never which request is being answered, so a
     cached result replays byte-identically whether or not the original
     solve was warm-started. It is built only for a cache or a journal. *)
  let key = lazy (Sdp.fingerprint ~params prob) in
  let cached =
    match ctx.cache_ with
    | None -> None
    | Some c -> (
        match Cache.load c ~key:(Lazy.force key) with
        | Ok sol -> Some sol
        | Error Cache.Missing -> None
        | Error err ->
            st.cache_rejects <- st.cache_rejects + 1;
            Log.warn (fun k ->
                k "cache entry %s for %S rejected (%s) — re-solving" (Lazy.force key) label
                  (Cache.error_to_string err));
            None)
  in
  let sol, source, wall_s =
    match cached with
    | Some sol ->
        st.cache_hits <- st.cache_hits + 1;
        (sol, "cache", 0.0)
    | None ->
        Option.iter (fun j -> Journal.record_start j ~seq ~key:(Lazy.force key) ~label) ctx.journal;
        let hint =
          match hint with
          | Some _ -> hint
          | None -> Option.bind session (fun s -> Sdp.Session.hint_for s prob)
        in
        let t0 = Unix.gettimeofday () in
        (* After the cache key: the beat hook never reaches the canonical
           serialization, but wrapping post-key keeps that invariant
           obvious. *)
        let params = Heartbeat.wrap_params params in
        let sol, source =
          if ctx.in_worker || not ctx.isolate then begin
            st.inline_solves <- st.inline_solves + 1;
            (solve_hinted ?hint ~params prob, "solved")
          end
          else
            match solve_in_worker ctx ~proc_fault ?hint ~params prob with
            | W_done sol -> (sol, "solved")
            | W_crashed why ->
                st.crashes <- st.crashes + 1;
                Log.warn (fun k -> k "solve #%d %S: %s" seq label why);
                (failed_solution Sdp.Numerical_failure prob, "crash")
            | W_timed_out after ->
                st.timeouts <- st.timeouts + 1;
                Log.warn (fun k ->
                    k "solve #%d %S: worker reaped after %.1fs wall-clock timeout" seq
                      label after);
                (failed_solution Sdp.Max_iterations prob, "timeout")
        in
        let wall_s = Unix.gettimeofday () -. t0 in
        (* Only clean, uninterrupted solves are cached: a result shaped by
           an injected fault or a deadline interrupt is not a function of
           the request alone. *)
        (if source = "solved" && sol.Sdp.injected = 0 then
           match ctx.cache_ with
           | Some c -> (
               let key = Lazy.force key in
               match Cache.store c ~key sol with
               | Ok () -> (
                   st.cache_stores <- st.cache_stores + 1;
                   match proc_fault with
                   | Some { Fault.kind = Fault.Corrupt_cache; _ } ->
                       ignore (Cache.corrupt c ~key);
                       Log.warn (fun k ->
                           k "fault injection: corrupted cache entry %s for solve #%d" key
                             seq)
                   | _ -> ())
               | Error e -> Log.warn (fun k -> k "%s" e))
           | None -> ());
        (sol, source, wall_s)
  in
  (* Solves and cache replays alike reach the session here, so a resumed
     run rebuilds the warm-start memory the original run had; [remember]
     keeps only clean Optimal solutions. *)
  Option.iter (fun s -> Sdp.Session.remember s prob sol) session;
  Option.iter
    (fun j ->
      Journal.record_done j
        { Journal.seq; key = Lazy.force key; source; status = status_string sol.Sdp.status; wall_s;
          label })
    ctx.journal;
  sol

let save_artifact ctx ~name content =
  match ctx.run_dir with
  | None -> None
  | Some dir ->
      let safe =
        String.map (fun c -> if c = '/' || c = ' ' then '_' else c) name
      in
      let path = Filename.concat (Filename.concat dir "artifacts") safe in
      (match Fs.write_atomic path content with
      | () -> ()
      | exception (Unix.Unix_error _ | Sys_error _) ->
          Log.warn (fun k -> k "cannot persist artifact %s" path));
      Some path

let report_json ctx =
  let s = ctx.stats in
  let counts =
    [ ("supervised", s.supervised); ("forked", s.forked); ("inline", s.inline_solves);
      ("cache_hits", s.cache_hits); ("cache_stores", s.cache_stores);
      ("cache_rejects", s.cache_rejects); ("crashes", s.crashes); ("timeouts", s.timeouts);
      ("pool_tasks", s.pool_tasks); ("replayed_on_open", ctx.replayed) ]
  in
  Json.(
    Obj
      (("jobs", int ctx.jobs)
      :: ("run_dir", match ctx.run_dir with Some d -> Str d | None -> Null)
      :: List.map (fun (k, n) -> (k, int n)) counts))

(* ------------------------------------------------------------------ *)
(* The one scheduler                                                  *)
(* ------------------------------------------------------------------ *)

module Pool = struct
  type 'a outcome = Answered of 'a | Died of string | Timed_out | Lease_expired of string

  (* Why the pool killed an item, if it did. *)
  type fate = Running | Killed | Deadline | Lease

  type ('k, 'a) item = {
    key : 'k;
    child : 'a Child.t;
    deadline : float;  (** absolute wall clock; infinity without one *)
    mutable beats : Unix.file_descr option;  (** heartbeat read end, until end of file *)
    mutable expires : float;  (** the lease: infinity without a TTL *)
    mutable fate : fate;
  }

  type ('k, 'a) t = {
    cap : int;
    ttl_s : float option;
    beat_s : float;
    mutable items : ('k, 'a) item list;  (** newest first *)
  }

  let create ?ttl_s ?(beat_s = 1.0) ~cap () = { cap = max 1 cap; ttl_s; beat_s; items = [] }
  let running p = List.length p.items
  let room p = p.cap - running p
  let fds p = List.map (fun it -> Child.fd it.child) p.items

  let submit p ~key ?deadline_s body =
    if room p <= 0 then invalid_arg "Supervise.Pool.submit: the pool is full";
    let beats = Option.map (fun _ -> Unix.pipe ~cloexec:true ()) p.ttl_s in
    let child =
      Child.spawn (fun () ->
          Option.iter
            (fun (r, w) ->
              close_quietly r;
              (* A full pipe drops the beat instead of wedging the child. *)
              Unix.set_nonblock w;
              let b = Bytes.make 1 'h' in
              Heartbeat.install ~min_interval_s:p.beat_s (fun () ->
                  ignore (Unix.write w b 0 1));
              Heartbeat.beat ())
            beats;
          body ())
    in
    Option.iter
      (fun (r, w) ->
        Unix.close w;
        Unix.set_nonblock r;
        hold r)
      beats;
    let now = Unix.gettimeofday () in
    p.items <-
      {
        key;
        child;
        deadline = now +. Option.value deadline_s ~default:Float.infinity;
        beats = Option.map fst beats;
        expires = now +. Option.value p.ttl_s ~default:Float.infinity;
        fate = Running;
      }
      :: p.items;
    Child.pid child

  let kill p key =
    List.iter
      (fun it ->
        if it.key = key && it.fate = Running then begin
          it.fate <- Killed;
          Child.kill it.child
        end)
      p.items

  (* Renew a lease on any byte from the item's heartbeat pipe (its
     answer pipe, not this one, tells of its death: processes it forked
     may hold the heartbeat pipe open), then kill an item past its lease
     or its deadline; the death is settled from its answer pipe. *)
  let police p now =
    let buf = Bytes.create 256 in
    List.iter
      (fun it ->
        (match (it.beats, p.ttl_s) with
        | Some fd, Some ttl -> (
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 ->
                let_go fd;
                it.beats <- None
            | _ -> it.expires <- now +. ttl
            | exception Unix.Unix_error _ -> ())
        | _ -> ());
        if it.fate = Running && (now > it.expires || now > it.deadline) then begin
          it.fate <- (if now > it.expires then Lease else Deadline);
          Log.warn (fun k ->
              k "pool child %d %s; SIGKILL" (Child.pid it.child)
                (if it.fate = Lease then "missed its lease" else "outlived its deadline"));
          Child.kill it.child
        end)
      p.items

  (* An answer wins over the pool's kill: a child that answered before
     its SIGKILL landed is answered. *)
  let reap it =
    Option.iter let_go it.beats;
    it.beats <- None;
    match (Child.collect it.child, it.fate) with
    | Ok v, _ -> Answered v
    | Error _, Deadline -> Timed_out
    | Error why, Lease -> Lease_expired why
    | Error why, (Running | Killed) -> Died why

  let settle ?(wait_s = 0.0) p =
    police p (Unix.gettimeofday ());
    match Unix.select (fds p) [] [] wait_s with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    | ready, _, _ ->
        let settled, still = List.partition (fun it -> List.mem (Child.fd it.child) ready) p.items in
        p.items <- still;
        List.rev_map (fun it -> (it.key, reap it)) settled

  let shutdown p =
    List.iter (fun it -> Child.kill it.child) p.items;
    List.iter (fun it -> ignore (reap it)) p.items;
    p.items <- []

  (* Add what an answered item did to the parent's counters (an item
     solves inline and forks nothing, so its other counters stay zero). *)
  let absorb ctx = function
    | Answered (v, (d : stats)) ->
        let st = ctx.stats in
        st.supervised <- st.supervised + d.supervised;
        st.inline_solves <- st.inline_solves + d.inline_solves;
        st.cache_hits <- st.cache_hits + d.cache_hits;
        st.cache_stores <- st.cache_stores + d.cache_stores;
        st.cache_rejects <- st.cache_rejects + d.cache_rejects;
        Answered v
    | Died why -> Died why
    | Timed_out -> Timed_out
    | Lease_expired why -> Lease_expired why

  let run ctx ?deadline_s ?(on_start = fun _ _ -> ()) ~f ~on_settle items =
    let items = Array.of_list items in
    let n = Array.length items in
    if n = 0 then ()
    else if ctx.in_worker then
      (* Already inside a worker: the isolation boundary exists, run
         inline (no nested forking). *)
      Array.iteri
        (fun i x ->
          on_settle i x (match f i x with v -> Answered v | exception e -> Died (Printexc.to_string e)))
        items
    else begin
      check_interrupt ctx;
      ctx.stats.pool_tasks <- ctx.stats.pool_tasks + n;
      let pool = create ~cap:ctx.jobs () in
      let next = ref 0 in
      try
        while !next < n || running pool > 0 do
          check_interrupt ctx;
          if !next < n && room pool > 0 then begin
            let i = !next in
            incr next;
            on_start i items.(i);
            ctx.stats.forked <- ctx.stats.forked + 1;
            ignore
              (submit pool ~key:i ?deadline_s (fun () ->
                   (* The parent's solver worker is not the child's: the
                      fork closed its pipes here. The child counts its
                      own work from zero, and journals its solves
                      through the journal it inherited. *)
                   ctx.in_worker <- true;
                   ctx.worker <- None;
                   ctx.stats <- fresh_stats ();
                   let v = f i items.(i) in
                   (v, ctx.stats)))
          end
          else List.iter (fun (i, o) -> on_settle i items.(i) (absorb ctx o)) (settle ~wait_s:0.05 pool)
        done
      with e ->
        shutdown pool;
        raise e
    end

  let map ctx ~f items =
    let results = Array.make (List.length items) (Error "not run") in
    run ctx ~f items ~on_settle:(fun i _ o ->
        results.(i) <-
          (match o with
          | Answered v -> Ok v
          | Died why | Lease_expired why -> Error why
          | Timed_out -> Error "killed at its deadline"));
    Array.to_list results
end
