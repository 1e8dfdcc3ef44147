(* Fault-tolerant certification atlas over the Table-1 parameter space.

   Layering: each cell is certified by Service.Bulk.run (through
   Service.Job.certify, the entry point jobs use too) under a fresh
   Resilient policy wired to the shared Supervise context, so per-solve
   isolation / caching / journaling come from the existing stack. This
   module owns only sweep-level state: the cell tree (grid cells and
   their subdivision descendants), the write-ahead ledger that makes the
   tree restartable, quarantine, and the deterministic atlas report.

   Determinism contract (the smoke tests compare atlas.json bytes across
   -j 1 / -j N / killed-and-resumed runs): everything that reaches
   report_json must depend only on the job, the grid and the solver's
   deterministic answers — never on wall-clock, pids, paths, job count
   or replay history. Timing lives in the ledger and the human summary
   only; quarantine details are synthesized from deterministic journal
   labels, not from raw error strings (which embed attempt timings). *)

let src = Logs.Src.create "atlas" ~doc:"certification atlas sweep"

module Log = (val Logs.src_log src : Logs.LOG)
module Json = Substrate.Json

(* ----------------------------------------------------------------- *)
(* Grid *)

module Grid = struct
  type range = { axis : Pll.axis; lo : float; hi : float; n : int }
  type t = range list

  let parse_range tok =
    match String.index_opt tok '=' with
    | None -> Error (Printf.sprintf "grid entry %S: expected axis=LO:HI[:N]" tok)
    | Some i -> (
        let name = String.sub tok 0 i in
        let rest = String.sub tok (i + 1) (String.length tok - i - 1) in
        match Pll.axis_of_string name with
        | Error e -> Error e
        | Ok axis -> (
            let float_field s =
              match float_of_string_opt s with
              | Some f when f > 0.0 -> Ok f
              | _ -> Error (Printf.sprintf "grid entry %S: bad positive factor %S" tok s)
            in
            let ( let* ) = Result.bind in
            match String.split_on_char ':' rest with
            | [ v ] ->
                let* v = float_field v in
                Ok { axis; lo = v; hi = v; n = 1 }
            | [ lo; hi ] | [ lo; hi; "" ] ->
                let* lo = float_field lo in
                let* hi = float_field hi in
                if lo > hi then Error (Printf.sprintf "grid entry %S: LO > HI" tok)
                else Ok { axis; lo; hi; n = 1 }
            | [ lo; hi; n ] -> (
                let* lo = float_field lo in
                let* hi = float_field hi in
                if lo > hi then Error (Printf.sprintf "grid entry %S: LO > HI" tok)
                else
                  match int_of_string_opt n with
                  | Some n when n >= 1 -> Ok { axis; lo; hi; n }
                  | _ -> Error (Printf.sprintf "grid entry %S: bad cell count %S" tok n))
            | _ -> Error (Printf.sprintf "grid entry %S: expected axis=LO:HI[:N]" tok)))

  let parse s =
    let toks =
      String.split_on_char ',' (String.trim s)
      |> List.map String.trim
      |> List.filter (fun t -> t <> "")
    in
    if toks = [] then Error "empty grid spec"
    else
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | tok :: rest -> (
            match parse_range tok with
            | Error e -> Error e
            | Ok r ->
                if List.exists (fun (r' : range) -> r'.axis = r.axis) acc then
                  Error
                    (Printf.sprintf "grid axis %s given twice" (Pll.axis_name r.axis))
                else go (r :: acc) rest)
      in
      go [] toks

  let range_to_string (r : range) =
    if r.lo = r.hi && r.n = 1 then
      Printf.sprintf "%s=%g" (Pll.axis_name r.axis) r.lo
    else Printf.sprintf "%s=%g:%g:%d" (Pll.axis_name r.axis) r.lo r.hi r.n

  let to_string t = String.concat "," (List.map range_to_string t)
  let n_cells t = List.fold_left (fun acc (r : range) -> acc * r.n) 1 t
end

(* ----------------------------------------------------------------- *)
(* Cells *)

type cell = { id : string; depth : int; box : (Pll.axis * float * float) list }

let grid_cells (grid : Grid.t) =
  (* Cartesian product of per-axis index ranges, id = "c" ^ indices. *)
  let rec expand = function
    | [] -> [ ([], []) ]
    | (r : Grid.range) :: rest ->
        let tails = expand rest in
        List.concat_map
          (fun i ->
            let w = (r.hi -. r.lo) /. float_of_int r.n in
            let lo = r.lo +. (float_of_int i *. w) in
            let hi = if i = r.n - 1 then r.hi else r.lo +. (float_of_int (i + 1) *. w) in
            List.map
              (fun (idx, box) -> (string_of_int i :: idx, (r.axis, lo, hi) :: box))
              tails)
          (List.init r.n Fun.id)
  in
  expand grid
  |> List.map (fun (idx, box) ->
         { id = "c" ^ String.concat "-" idx; depth = 0; box })
  |> List.sort (fun a b -> compare a.id b.id)

let split (c : cell) =
  let width (_, lo, hi) = hi -. lo in
  match c.box with
  | [] -> None
  | first :: _ ->
      let widest = List.fold_left (fun w a -> if width a > width w then a else w) first c.box in
      if width widest <= 1e-9 then None
      else
        let ax, lo, hi = widest in
        let mid = 0.5 *. (lo +. hi) in
        let replace box lo' hi' =
          List.map (fun ((a, _, _) as e) -> if a = ax then (a, lo', hi') else e) box
        in
        Some
          ( { id = c.id ^ ".0"; depth = c.depth + 1; box = replace c.box lo mid },
            { id = c.id ^ ".1"; depth = c.depth + 1; box = replace c.box mid hi } )

(* ----------------------------------------------------------------- *)
(* Diagnoses, jobs *)

type diagnosis = { kind : string; detail : string }

type cell_result =
  | Certified of { beta : float }
  | Subdivided
  | Quarantined of diagnosis

type job = {
  order : Pll.order;
  degree : int;
  robust : bool;
  full : bool;
  exact : bool;
  bisect_steps : int;
  max_subdiv : int;
  cell_budget_s : float option;
}

let default_job order =
  {
    order;
    degree = Service.Job.paper_degree order;
    robust = false;
    full = false;
    exact = false;
    bisect_steps = (Service.Job.default_spec order).Service.Job.bisect_steps;
    max_subdiv = 2;
    cell_budget_s = None;
  }

let fingerprint (job : job) grid =
  Printf.sprintf
    "pll-atlas v1 grid=%s order=%s degree=%d robust=%b full=%b exact=%b bisect=%d \
     max-subdiv=%d"
    (Grid.to_string grid) (Service.Job.order_name job.order) job.degree job.robust job.full
    job.exact job.bisect_steps job.max_subdiv

(* ----------------------------------------------------------------- *)
(* Fault plans *)

module Fault = struct
  module Fp = Substrate.Fault_plan

  type t =
    | Kill_at_cell of string
    | Fail_cell of string
    | Cell_scoped of string * Resilient.Faults.plan
    | Global of Resilient.Faults.plan

  type plan = t list

  let none = []

  let of_token (t : Fp.token) =
    let fail why = Error (Printf.sprintf "fault %S: %s" (Fp.token_to_string t) why) in
    let cell_site mk =
      match Fp.site t with Some "" | None -> fail "missing cell id" | Some c -> Ok (mk c)
    in
    (* Cells solve inline in their pool worker, with no solver worker
       to kill or wedge: [corrupt-cache@S] is the one process-level
       kind that acts on them. *)
    let solver p mk =
      if
        List.exists
          (fun (s : Supervise.Fault.spec) -> s.kind <> Supervise.Fault.Corrupt_cache)
          (Resilient.Faults.proc_specs p)
      then
        fail
          "cells solve inline, with no solver worker to kill or stall (use kill@CELL \
           or fail-cell@CELL)"
      else Ok (mk p)
    in
    match t.scope with
    | Some cell -> (
        match Resilient.Faults.of_token { t with scope = None } with
        | Ok p -> solver p (fun p -> Cell_scoped (cell, p))
        | Error e -> fail e)
    | None when t.kind = "fail-cell" && t.key <> None -> cell_site (fun c -> Fail_cell c)
    | None -> (
        (* A solve trigger is a solver fault; [kill@CELL] (anything
           that is not a solve trigger) is the orchestrator kill. *)
        match Resilient.Faults.of_token t with
        | Ok p -> solver p (fun p -> Global p)
        | Error _ when t.kind = "kill" && t.key <> None -> cell_site (fun c -> Kill_at_cell c)
        | Error _ -> fail "not a solver fault, kill@CELL, fail-cell@CELL or CELL/token")

  let of_string = Fp.claim_all of_token

  let to_tokens = function
    | Kill_at_cell c -> [ Fp.{ scope = None; kind = "kill"; key = Some c; args = [] } ]
    | Fail_cell c -> [ { scope = None; kind = "fail-cell"; key = Some c; args = [] } ]
    | Cell_scoped (c, p) ->
        List.map (fun t -> { t with Fp.scope = Some c }) (Resilient.Faults.to_tokens p)
    | Global p -> Resilient.Faults.to_tokens p

  let to_string plan = Fp.to_string (List.concat_map to_tokens plan)

  let fail_cell plan id =
    List.exists
      (function
        | Fail_cell p -> p = id || String.starts_with ~prefix:(p ^ ".") id
        | _ -> false)
      plan

  let kill_after plan id =
    List.exists (function Kill_at_cell k -> k = id | _ -> false) plan

  let resilient_plan plan id =
    Resilient.Faults.union
      (List.filter_map
         (function
           | Global p -> Some p
           | Cell_scoped (c, p) when c = id -> Some p
           | _ -> None)
         plan)
end

(* ----------------------------------------------------------------- *)
(* Records and reports *)

type record = {
  cell : cell;
  result : cell_result;
  replayed : bool;
  solves : int;
  attempts : int;
  attempt_s : float;
}

type report = {
  job : job;
  grid : Grid.t;
  records : record list;
  certified : int;
  subdivided : int;
  quarantined : int;
  replayed_cells : int;
  wall_s : float;
}

let certified_fraction r =
  let leaves = r.certified + r.quarantined in
  if leaves = 0 then 0.0 else float_of_int r.certified /. float_of_int leaves

let depth_histogram r =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun rec_ ->
      let d = rec_.cell.depth in
      Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d)))
    r.records;
  Hashtbl.fold (fun d n acc -> (d, n) :: acc) tbl [] |> List.sort compare

let quarantine_list r =
  List.filter_map
    (fun rec_ ->
      match rec_.result with
      | Quarantined d -> Some (rec_.cell.id, d)
      | _ -> None)
    r.records

let exit_code r = if r.quarantined > 0 then 2 else 0

let report_json r =
  (* Deterministic: no wall-clock, no replay/solve counts, no paths. *)
  let open Json in
  let cell rec_ =
    let status =
      match rec_.result with
      | Certified { beta } -> [ ("status", Str "certified"); ("beta", Num beta) ]
      | Subdivided -> [ ("status", Str "subdivided") ]
      | Quarantined d ->
          [ ("status", Str "quarantined");
            ("diagnosis", Obj [ ("kind", Str d.kind); ("detail", Str d.detail) ]) ]
    in
    let bounds (ax, lo, hi) = (Pll.axis_name ax, Arr [ Num lo; Num hi ]) in
    Obj
      (("id", Str rec_.cell.id) :: ("depth", int rec_.cell.depth)
      :: ("box", Obj (List.map bounds rec_.cell.box)) :: status)
  in
  to_string
    (Obj
       [
         ("atlas", Str "v1"); ("grid", Str (Grid.to_string r.grid));
         ("order", Str (Service.Job.order_name r.job.order)); ("degree", int r.job.degree);
         ("robust", Bool r.job.robust); ("full", Bool r.job.full); ("exact", Bool r.job.exact);
         ("bisect_steps", int r.job.bisect_steps); ("max_subdiv", int r.job.max_subdiv);
         ("cells_total", int (List.length r.records)); ("certified", int r.certified);
         ("subdivided", int r.subdivided); ("quarantined", int r.quarantined);
         ("certified_fraction", Num (certified_fraction r));
         ( "depth_histogram",
           Arr
             (List.map (fun (d, n) -> Obj [ ("depth", int d); ("cells", int n) ]) (depth_histogram r))
         );
         ("cells", Arr (List.map cell r.records));
         ("quarantine", Arr (List.map (fun (id, _) -> Str id) (quarantine_list r)));
       ])

let pp_summary ppf r =
  let open Format in
  fprintf ppf "@[<v>certification atlas: %s order, degree %d, grid %s%s@,"
    (Service.Job.order_name r.job.order) r.job.degree (Grid.to_string r.grid)
    (if r.job.robust then " (robust: whole-box cells)" else " (cell midpoints)");
  fprintf ppf "cells: %d recorded | %d certified, %d subdivided, %d quarantined@,"
    (List.length r.records) r.certified r.subdivided r.quarantined;
  fprintf ppf "certified fraction (leaves): %.1f%%@," (100.0 *. certified_fraction r);
  fprintf ppf "subdivision depth histogram: %s@,"
    (String.concat ", "
       (List.map (fun (d, n) -> Printf.sprintf "depth %d: %d" d n) (depth_histogram r)));
  let solves = List.fold_left (fun acc x -> acc + x.solves) 0 r.records in
  let attempt_s = List.fold_left (fun acc x -> acc +. x.attempt_s) 0.0 r.records in
  fprintf ppf "work: %d solve(s), %.1fs attempt time, %d cell(s) replayed from ledger@,"
    solves attempt_s r.replayed_cells;
  (match quarantine_list r with
  | [] -> fprintf ppf "quarantine: empty@,"
  | q ->
      fprintf ppf "quarantine:@,";
      List.iter
        (fun (id, d) -> fprintf ppf "  %s: %s (%s)@," id d.kind d.detail)
        q);
  fprintf ppf "wall time: %.1fs@]" r.wall_s

(* ----------------------------------------------------------------- *)
(* Ledger *)

module Ledger = struct
  module Wal = Substrate.Wal

  type entry = {
    id : string;
    depth : int;
    result : cell_result;
    solves : int;
    attempts : int;
    attempt_s : float;
  }

  let magic = "pll-atlas-ledger v1"
  let path dir = Filename.concat dir "ledger.log"

  let append_line dir line =
    let w = Wal.open_ ~magic (path dir) in
    Fun.protect ~finally:(fun () -> Wal.close w) (fun () -> Wal.append w line)

  let status_str = function
    | Certified _ -> "certified"
    | Subdivided -> "subdivided"
    | Quarantined _ -> "quarantined"

  let entry_line (e : entry) =
    let beta = match e.result with Certified { beta } -> beta | _ -> 0.0 in
    let kind, detail =
      match e.result with Quarantined d -> (d.kind, d.detail) | _ -> ("-", "")
    in
    (* %h floats round-trip exactly through float_of_string. *)
    Printf.sprintf "done %s %d %s %h %d %d %h %s %s" e.id e.depth (status_str e.result) beta
      e.solves e.attempts e.attempt_s kind detail

  let append dir e = append_line dir (entry_line e)
  let mark_start dir id = append_line dir ("start " ^ id)

  let parse_done line =
    match String.split_on_char ' ' line with
    | "done" :: id :: depth :: status :: beta :: solves :: attempts :: attempt_s :: rest
      -> (
        let kind, detail =
          match rest with
          | [] -> ("-", "")
          | k :: d -> (k, String.concat " " d)
        in
        match
          ( int_of_string_opt depth,
            float_of_string_opt beta,
            int_of_string_opt solves,
            int_of_string_opt attempts,
            float_of_string_opt attempt_s )
        with
        | Some depth, Some beta, Some solves, Some attempts, Some attempt_s -> (
            let mk result = Ok { id; depth; result; solves; attempts; attempt_s } in
            match status with
            | "certified" -> mk (Certified { beta })
            | "subdivided" -> mk Subdivided
            | "quarantined" -> mk (Quarantined { kind; detail })
            | s -> Error (Printf.sprintf "unknown cell status %S" s))
        | _ -> Error "unparseable numeric field")
    | _ -> Error "malformed done line"

  (* Last entry per id wins; first-seen order is kept. *)
  let read dir =
    let file = path dir in
    let r = Wal.replay ~magic file in
    let entries = Hashtbl.create 64 in
    let order, diags =
      List.fold_left
        (fun (order, diags) ((_, line) as numbered) ->
          if String.starts_with ~prefix:"start " line || String.starts_with ~prefix:"run " line
          then (order, diags)
          else
            match parse_done line with
            | Ok e ->
                let order = if Hashtbl.mem entries e.id then order else e.id :: order in
                Hashtbl.replace entries e.id e;
                (order, diags)
            | Error why -> (order, Wal.diagnosis file numbered why :: diags))
        ([], []) r.Wal.records
    in
    (List.rev_map (Hashtbl.find entries) order, List.rev diags @ r.Wal.diags)
end

let ledger = { Supervise.name = "atlas"; entries = (fun dir -> List.length (fst (Ledger.read dir))) }

(* ----------------------------------------------------------------- *)
(* Service bridge: run cells through the verification daemon *)

(* A cell as the service layer certifies it, locally or on a daemon.
   Conclusions are shared by box content (the spec fingerprint), not by
   grid position. *)
let cell_to_spec (job : job) (c : cell) : Service.Job.cell_spec =
  {
    order = job.order;
    degree = job.degree;
    robust = job.robust;
    property = (if job.full then Service.Job.Full else Service.Job.P1);
    exact = job.exact;
    bisect_steps = job.bisect_steps;
    advect_iters = Service.Job.default_advect_iters;
    psd_tol = None;
    eq_tol = None;
    budget_s = job.cell_budget_s;
    cell_id = c.id;
    depth = c.depth;
    box = c.box;
  }

(* An execution backend for one wave of cells: [start] each cell as it
   is sent off, [settle] it as its answer comes back. *)
type exec =
  cell list ->
  start:(cell -> unit) ->
  settle:(cell -> (Service.Bulk.probe, string) result -> unit) ->
  unit

(* The local backend: one pool child per cell, at most [-j] at once,
   killed at the cell budget plus the grace verifyd gives. *)
let exec_local ~ctx ~faults (job : job) : exec =
 fun cells ~start ~settle ->
  Supervise.Pool.run ctx
    ?deadline_s:(Option.map (fun b -> b +. Service.Bulk.deadline_grace_s) job.cell_budget_s)
    ~on_start:(fun _ c -> start c)
    ~f:(fun _ c ->
      if Fault.fail_cell faults c.id then
        Service.Bulk.probe_fail ~kind:"injected" ~detail:"fail-cell fault injected"
      else
        Service.Bulk.run ~ctx ~faults:(Fault.resilient_plan faults c.id) (cell_to_spec job c))
    ~on_settle:(fun _ c -> function
      | Supervise.Pool.Answered p -> settle c (Ok p)
      | Supervise.Pool.Timed_out -> settle c (Ok Service.Bulk.budget_exhausted)
      | Supervise.Pool.Died why | Supervise.Pool.Lease_expired why -> settle c (Error why))
    cells

(* The daemon backend: the wave goes out through the one protocol
   client, and each answered fingerprint settles every cell with that
   box (the daemon dedups identical boxes onto one job). *)
let exec_via_daemon ~sock ?retries (job : job) : exec =
 fun cells ~start ~settle ->
  let specs = List.map (fun c -> (c, cell_to_spec job c)) cells in
  List.iter start cells;
  let timeout_s =
    (* Generous: covers a full cell pipeline; a dead daemon surfaces as
       server-gone long before this. *)
    match job.cell_budget_s with Some b -> (4.0 *. b) +. 60.0 | None -> 600.0
  in
  Service.Client.bulk ~sock ?retries ~timeout_s (List.map snd specs)
    ~answer:(fun fp r ->
      List.iter (fun (c, s) -> if Service.Job.fingerprint s = fp then settle c r) specs)

(* ----------------------------------------------------------------- *)
(* Orchestration *)

exception Killed

let validate_grid (job : job) (grid : Grid.t) =
  let base = match job.order with Pll.Third -> Pll.table1_third | Pll.Fourth -> Pll.table1_fourth in
  let bad =
    List.filter_map
      (fun (r : Grid.range) ->
        match Pll.axis_interval base r.axis with
        | Some _ -> None
        | None -> Some (Pll.axis_name r.axis))
      grid
  in
  if grid = [] then Error "empty grid"
  else if bad <> [] then
    Error
      (Printf.sprintf "grid axes %s do not exist at %s order"
         (String.concat ", " bad) (Service.Job.order_name job.order))
  else Ok ()

let run ~ctx ?(faults = Fault.none) ?exec ~resume (job : job) (grid : Grid.t) =
  let run_dir = Supervise.run_dir ctx in
  match
    Result.bind (validate_grid job grid) (fun () ->
        match run_dir with
        | Some d -> Supervise.check_resume ledger ~run_dir:d ~resume
        | None -> Ok ())
  with
  | Error e -> Error e
  | Ok () -> (
      let t0 = Unix.gettimeofday () in
      let ledgered, ledger_diags =
        match run_dir with Some d -> Ledger.read d | None -> ([], [])
      in
      List.iter (fun d -> Log.warn (fun m -> m "%s" d)) ledger_diags;
      let on_record = Hashtbl.create 64 in
      List.iter (fun (e : Ledger.entry) -> Hashtbl.replace on_record e.Ledger.id e) ledgered;
      let records = ref [] in
      let push cell result ~replayed ~solves ~attempts ~attempt_s next =
        records := { cell; result; replayed; solves; attempts; attempt_s } :: !records;
        match result with
        | Subdivided -> (
            match split cell with
            | Some (a, b) -> next := b :: a :: !next
            | None ->
                (* A ledger claims a subdivision this geometry cannot
                   perform — record the inconsistency, keep sweeping. *)
                records :=
                  {
                    cell;
                    result =
                      Quarantined
                        {
                          kind = "ledger-inconsistent";
                          detail = "ledgered as subdivided but cell is a point";
                        };
                    replayed;
                    solves;
                    attempts;
                    attempt_s;
                  }
                :: List.tl !records)
        | _ -> ()
      in
      let exec = match exec with Some f -> f | None -> exec_local ~ctx ~faults job in
      (* A cell settles the moment it answers: ledger line, quarantine
         file, subdivision, and the kill@CELL fault. *)
      let settle next c r =
        let p =
          match r with
          | Ok p -> p
          | Error e ->
              (* Stable diagnosis whether the worker died locally or
                 was dead-lettered by the daemon, so atlas.json stays
                 byte-identical across backends. *)
              Log.warn (fun m -> m "cell %s: %s" c.id e);
              Service.Bulk.crashed ~why:e
        in
        let result =
          if p.ok then Certified { beta = p.beta }
          else if c.depth < job.max_subdiv && p.kind <> "bad-cell" && split c <> None then
            Subdivided
          else Quarantined { kind = p.kind; detail = p.detail }
        in
        (match (run_dir, result) with
        | Some d, Quarantined _ ->
            let qdir = Filename.concat d "quarantine" in
            Substrate.Fs.mkdir_p qdir;
            Substrate.Fs.write_atomic
              (Filename.concat qdir
                 (Printf.sprintf "%s.json"
                    (String.map (fun ch -> if ch = '/' then '_' else ch) c.id)))
              Json.(
                to_string
                  (Obj
                     [ ("cell", Str c.id); ("kind", Str p.kind); ("detail", Str p.detail);
                       ("journal", Option.value p.journal ~default:Null) ])
                ^ "\n")
        | _ -> ());
        let entry : Ledger.entry =
          {
            Ledger.id = c.id;
            depth = c.depth;
            result;
            solves = p.solves;
            attempts = p.attempts;
            attempt_s = p.attempt_s;
          }
        in
        Option.iter (fun d -> Ledger.append d entry) run_dir;
        push c result ~replayed:false ~solves:p.solves ~attempts:p.attempts
          ~attempt_s:p.attempt_s next;
        Log.info (fun m -> m "cell %s: %s" c.id (Ledger.status_str result));
        if Fault.kill_after faults c.id then begin
          (* The chaos fault: die as if the process group were
             SIGKILLed, right after this cell's completion hit the
             ledger. Raising lets the executor kill its in-flight
             children first. *)
          Log.warn (fun m -> m "fault kill@%s: orchestrator exiting hard" c.id);
          raise Killed
        end
      in
      let rec waves frontier =
        if frontier <> [] then begin
          let frontier = List.sort (fun a b -> compare a.id b.id) frontier in
          let next = ref [] in
          let replayed_cells, fresh =
            List.partition (fun c -> Hashtbl.mem on_record c.id) frontier
          in
          List.iter
            (fun c ->
              let e : Ledger.entry = Hashtbl.find on_record c.id in
              push c e.Ledger.result ~replayed:true ~solves:e.Ledger.solves
                ~attempts:e.Ledger.attempts ~attempt_s:e.Ledger.attempt_s next)
            replayed_cells;
          if replayed_cells <> [] then
            Log.info (fun m ->
                m "replayed %d cell(s) from the ledger" (List.length replayed_cells));
          exec fresh
            ~start:(fun c -> Option.iter (fun d -> Ledger.mark_start d c.id) run_dir)
            ~settle:(settle next);
          waves !next
        end
      in
      (try waves (grid_cells grid) with Killed -> Unix._exit 137);
      let records = List.sort (fun a b -> compare a.cell.id b.cell.id) !records in
      let count f = List.length (List.filter f records) in
      let report =
        {
          job;
          grid;
          records;
          certified = count (fun r -> match r.result with Certified _ -> true | _ -> false);
          subdivided = count (fun r -> r.result = Subdivided);
          quarantined =
            count (fun r -> match r.result with Quarantined _ -> true | _ -> false);
          replayed_cells = count (fun r -> r.replayed);
          wall_s = Unix.gettimeofday () -. t0;
        }
      in
      Option.iter
        (fun d ->
          Substrate.Fs.write_atomic (Filename.concat d "atlas.json")
            (report_json report ^ "\n");
          Substrate.Fs.write_atomic
            (Filename.concat d "summary.txt")
            (Format.asprintf "%a@." pp_summary report))
        run_dir;
      Ok report)
