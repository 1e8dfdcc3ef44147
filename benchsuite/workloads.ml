(* The four workloads: the inputs each draws from the seed, the
   operation a rep times, the checks that make an output count as
   correct, and the traced pass that attributes a verdict's time to the
   library layers.

   Every span is taken here, around calls into public functions
   (Service.Job.run, Certificates.find_multi_lyapunov, maximize_level,
   Advect.run, Atlas.run, ...), plus counters the libraries already
   expose. The program under test carries no instrumentation. *)

module J = Service.Json

type env = {
  seed : int;
  work : string;  (** directory for run dirs, under _bench_cache/ in the source tree *)
  log : Format.formatter;  (** the workload's quiet log *)
}

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  table2 : J.t option;  (** Table-2 column of a traced verify-* run *)
}

let note env fmt = Format.fprintf env.log (fmt ^^ "@.")

(* One bench process drives -j 2 supervision: the two cores of the
   reference machine, never more workers than cores. *)
let jobs () = max 1 (min 2 (Supervise.ncpus ()))

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)

let rng seed = Random.State.make [| 0x5eed; seed |]

(* A point workload verifies a panel of [k] design points in turn: seed
   0 is the paper's nominal Table-1 model, [k] times; any other seed
   draws relative (Ip, Kv) points in [0.97, 1.03]^2. *)
let points_of_seed ~k seed =
  if seed = 0 then List.init k (fun _ -> [])
  else
    let r = rng seed in
    let draw () = 0.97 +. Random.State.float r 0.06 in
    List.init k (fun _ ->
        let ip = draw () in
        let kv = draw () in
        [ (Pll.Ip, ip); (Pll.Kv, kv) ])

(* A verdict's cost depends on its point: the full pipeline's follows
   the binary digits of beta that its 20-step level bisection visits
   (over seeds 1-10 the solve count of one point spreads by 20% of its
   median), and the interior-point iterations move by a few percent even
   where the solve count does not. Taking the median over a panel of
   points keeps that out of the run's value. *)
let panel = 4

let third_spec point =
  {
    (Service.Job.default_spec Pll.Third) with
    Service.Job.property = Service.Job.Full;
    degree = 4;
    advect_iters = 4;
    point;
  }

(* P1 only: the full fourth-order pipeline takes 35-45 s, too long to
   repeat inside one run. Ten bisection steps certify beta = 5.86 (of
   about 6.37) at every seeded point, so every point costs the same 26
   solves (as the verdict counts them); the job default of six steps
   stops above beta and collapses. *)
let fourth_spec point =
  {
    (Service.Job.default_spec Pll.Fourth) with
    Service.Job.property = Service.Job.P1;
    degree = 4;
    bisect_steps = 10;
    point;
  }

let sweep_job = { (Atlas.default_job Pll.Third) with Atlas.degree = 4 }

(* The point job that poses a sweep cell's problem: P1 at the cell's
   midpoint, as Atlas certifies a non-robust cell. *)
let cell_spec (cell : Atlas.cell) =
  {
    (Service.Job.default_spec Pll.Third) with
    Service.Job.degree = sweep_job.Atlas.degree;
    bisect_steps = sweep_job.Atlas.bisect_steps;
    point = List.map (fun (a, lo, hi) -> (a, 0.5 *. (lo +. hi))) cell.Atlas.box;
  }

(* Seed 0 is the box ip 0.8:1.2 x kv 0.9:1.1; any other seed shifts
   each axis of it by up to 2%. *)
let sweep_grid seed =
  let shift =
    if seed = 0 then fun () -> 1.0
    else
      let r = rng seed in
      fun () -> 1.0 +. Random.State.float r 0.04 -. 0.02
  in
  let si = shift () in
  let sk = shift () in
  [
    { Atlas.Grid.axis = Pll.Ip; lo = 0.8 *. si; hi = 1.2 *. si; n = 4 };
    { Atlas.Grid.axis = Pll.Kv; lo = 0.9 *. sk; hi = 1.1 *. sk; n = 2 };
  ]

(* beta of the seed-0 verdicts, checked to 1e-3 relative. *)
let reference_beta (spec : Service.Job.spec) =
  match spec.Service.Job.order with Pll.Third -> 198.7762 | Pll.Fourth -> 5.859375

let model (spec : Service.Job.spec) =
  let base =
    match spec.Service.Job.order with
    | Pll.Third -> Pll.table1_third
    | Pll.Fourth -> Pll.table1_fourth
  in
  match
    List.fold_left
      (fun acc (a, v) -> Result.bind acc (fun raw -> Pll.set_axis_relative raw a ~lo:v ~hi:v))
      (Ok base) spec.Service.Job.point
  with
  | Ok raw -> Pll.scale raw
  | Error e -> failwith e

(* ------------------------------------------------------------------ *)
(* Set-up: what verify_pll and atlas_pll do before their first solve *)

let open_run_dir ?isolate ~dir ~fingerprint () =
  let ctx = Supervise.create ~run_dir:dir ~jobs:(jobs ()) ?isolate () in
  (match Supervise.Lock.acquire ~dir () with Ok _ -> () | Error e -> failwith e);
  (match Supervise.Config_guard.check ~run_dir:dir ~fingerprint ~summary:fingerprint with
  | Ok _ -> ()
  | Error e -> failwith e);
  ctx

(* verify_pll's pre-request steps: context (journal read on resume),
   lock, config guard, scaled model, policy. *)
let open_verify ?isolate ~dir spec =
  Meter.wall (fun () ->
      let ctx =
        open_run_dir ?isolate ~dir
          ~fingerprint:("pll-verify v2 " ^ Service.Job.to_line spec)
          ()
      in
      let s = model spec in
      (ctx, s, Resilient.make ~supervise:ctx ()))

let open_sweep ~dir grid =
  Meter.wall (open_run_dir ~dir ~fingerprint:(Atlas.fingerprint sweep_job grid))

let close ~dir = Supervise.Lock.release ~dir

(* A set-up probe times a verification from its start to its first
   solver iteration: the run-dir steps above, the scaled model, the
   first SOS program (the Lyapunov search) posed and handed to the
   supervised solver, and the solver's start. The verification runs
   under a pipeline deadline that has already passed and without
   retries, so it stops at its first deadline check: the first
   interior-point iteration, or, where the cache answers that solve (a
   completed run dir), just after. It must end there, with the deadline
   hit after one attempt. The run-dir steps alone are a few fsyncs, under
   a millisecond, whose latency swings with the host's disk by more than
   any bound; the whole probe is 5-50 ms, mostly CPU. *)
let probe_policy ctx = Resilient.make ~supervise:ctx ~retries:false ~pipeline_deadline_s:1e-9 ()

let stopped_at_first_solve (o : Service.Job.outcome) =
  o.Service.Job.deadline_hit && o.Service.Job.attempts = 1

let probe_verify ~dir spec =
  let o, t =
    Meter.wall (fun () ->
        let (ctx, _, _), _ = open_verify ~dir spec in
        Service.Job.run ~policy:(probe_policy ctx) spec)
  in
  close ~dir;
  (stopped_at_first_solve o, t)

(* atlas_pll's run-dir steps, then the first cell's problem. *)
let probe_sweep ~dir grid =
  let spec = cell_spec (List.hd (Atlas.grid_cells grid)) in
  let o, t =
    Meter.wall (fun () ->
        let ctx, _ = open_sweep ~dir grid in
        Service.Job.run ~policy:(probe_policy ctx) spec)
  in
  close ~dir;
  (stopped_at_first_solve o, t)

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)

let verified_ok env ~spec ?expect (o : Service.Job.outcome) =
  let problems =
    (if o.Service.Job.verdict = Service.Job.Verified then []
     else
       [
         Printf.sprintf "verdict %s (%s: %s)"
           (Service.Job.verdict_to_string o.Service.Job.verdict)
           o.Service.Job.kind o.Service.Job.detail;
       ])
    @ (let r = reference_beta spec in
       if env.seed = 0 && Float.abs (o.Service.Job.beta -. r) > 1e-3 *. r then
         [ Printf.sprintf "beta %.6f is off the reference %.6f" o.Service.Job.beta r ]
       else [])
    @
    match expect with
    | Some json when json <> Service.Job.result_json o ->
        [ Printf.sprintf "result %s differs from %s" (Service.Job.result_json o) json ]
    | _ -> []
  in
  List.iter (fun p -> note env "FAILED: %s" p) problems;
  problems = []

(* ------------------------------------------------------------------ *)
(* Untraced measurement                                                *)

(* One timed operation: a verdict, or on sweep-p1 a whole sweep. *)
type op = {
  span : Meter.span;  (** set-up excluded *)
  units : int;  (** verdicts it delivered (cells on sweep-p1) *)
  solves : int;  (** SDP solves the verdicts report, cache hits included *)
  bad : int;  (** of which failed a check *)
}

(* Set-up probes are spread over the run, [probes_per_op] before each
   operation up to [max_probes], so their median stands for the whole
   run and not for one moment of the host's load. One unrecorded probe
   first brings the code and the heap up to speed. *)
let probes_per_op = 3
let max_probes = 30

(* Operations go round the panel, the whole panel at least once, then on
   while another still fits in [seconds]. The run's value is the median
   over its operations. Nothing is removed until the workload ends: the
   file system discards freed blocks at the next journal commit, so a
   removal would stall the fsyncs that follow it. *)
let measure env ~seconds ~panel ~probe ~op =
  let setups = ref [] and probe_bad = ref 0 in
  let take i =
    (* A probe's stopped solve is expected; keep its warning out of the log. *)
    let level = Logs.level () in
    Logs.set_level (Some Logs.Error);
    let ok, t =
      Fun.protect
        ~finally:(fun () -> Logs.set_level level)
        (fun () -> probe (Filename.concat env.work (Printf.sprintf "setup%d" i)))
    in
    if not ok then begin
      note env "FAILED: set-up probe %d did not stop at its first solve" i;
      incr probe_bad
    end;
    t
  in
  ignore (take (-1));
  let t0 = Meter.now () in
  let rec loop i acc =
    let elapsed = Meter.now () -. t0 in
    if i >= panel && elapsed *. float_of_int (i + 1) /. float_of_int i > seconds then
      List.rev acc
    else begin
      for _ = 1 to probes_per_op do
        let n = List.length !setups in
        if n < max_probes then setups := take n :: !setups
      done;
      let o = op i in
      note env "op %d: %d unit(s), %d solves, wall %.4f s, cpu %.4f s, %d failed" i o.units
        o.solves o.span.Meter.wall o.span.Meter.cpu o.bad;
      loop (i + 1) (o :: acc)
    end
  in
  let os = loop 0 [] in
  let per_unit f = Meter.median (List.map (fun o -> f o.span /. float_of_int (max 1 o.units)) os) in
  note env "setup samples: %s" (String.concat " " (List.rev_map (Printf.sprintf "%.6f") !setups));
  {
    attempted = List.fold_left (fun a o -> a + o.units) (List.length !setups) os;
    failed = List.fold_left (fun a o -> a + o.bad) !probe_bad os;
    metrics =
      [
        ("setup_s", Meter.median !setups);
        ("verdict_s", per_unit (fun s -> s.Meter.wall));
        ("verdict_cpu_s", per_unit (fun s -> s.Meter.cpu));
        ("peak_rss_mb", Meter.peak_rss_mb ());
      ];
    table2 = None;
  }

let fresh env name =
  let dir = Filename.concat env.work name in
  Meter.rm_rf dir;
  dir

(* A supervised verdict; [validate] sees the full pipeline report (it
   is Service.Job.run's own hook). *)
let verify_once ~spec ~dir ?validate () =
  let (ctx, _, policy), setup_s = open_verify ~dir spec in
  let o, op = Meter.timed (fun () -> Service.Job.run ~policy ?validate spec) in
  close ~dir;
  (o, setup_s, op, ctx)

(* The verdict on panel point [j], checked against the reference and
   against the point's first verdict ([first] holds it once made). *)
let verdict env ~first j spec ~dir =
  let o, _, span, _ = verify_once ~spec ~dir () in
  let expect = Hashtbl.find_opt first j in
  let ok = verified_ok env ~spec ?expect o in
  if expect = None then Hashtbl.replace first j (Service.Job.result_json o);
  { span; units = 1; solves = o.Service.Job.solves; bad = (if ok then 0 else 1) }

let verify_e2e env ~spec_of ~seconds =
  let specs = Array.of_list (List.map spec_of (points_of_seed ~k:panel env.seed)) in
  let first = Hashtbl.create panel in
  measure env ~seconds ~panel
    ~probe:(fun dir -> probe_verify ~dir specs.(0))
    ~op:(fun i ->
      let j = i mod panel in
      verdict env ~first j specs.(j) ~dir:(fresh env (Printf.sprintf "v%d" i)))

(* The replay's input: a run dir completed by a cold verdict, and the
   journal length it ended with. Each replay truncates the journal
   back, so every replay re-reads the same journal. The cold verdict
   solves in its own process, without per-solve workers (the cache
   entries are the same as under forked workers), which keeps the
   preparation short. *)
type completed = {
  spec : Service.Job.spec;
  dir : string;
  cold_json : string;
  journal_len : int;
  cold_ok : bool;
}

let complete env ~spec ~name =
  let dir = fresh env name in
  let (_, _, policy), _ = open_verify ~isolate:false ~dir spec in
  let o = Service.Job.run ~policy spec in
  close ~dir;
  {
    spec;
    dir;
    cold_json = Service.Job.result_json o;
    journal_len = Meter.file_size (Supervise.Journal.path dir);
    cold_ok = verified_ok env ~spec o;
  }

let rewind c = Unix.truncate (Supervise.Journal.path c.dir) c.journal_len

(* The cold verdicts run in [jobs ()] forked children, each taking every
   jobs-th point. The replaying process never holds their solves, so
   its peak RSS is the replay's own. *)
let prepare env specs =
  let n = jobs () in
  Format.pp_print_flush env.log ();
  Meter.fork_map
    (fun i ->
      let cs =
        List.filteri (fun j _ -> j mod n = i) (List.mapi (fun j spec -> (j, spec)) specs)
        |> List.map (fun (j, spec) ->
               (j, complete env ~spec ~name:(Printf.sprintf "replay%d" j)))
      in
      Format.pp_print_flush env.log ();
      cs)
    (List.init n Fun.id)
  |> List.concat
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(* The set-up probes reopen the first completed run dir, as --resume
   does, journal read included. *)
let replay_e2e env ~spec_of ~seconds =
  let cs = Array.of_list (prepare env (List.map spec_of (points_of_seed ~k:panel env.seed))) in
  let first = Hashtbl.create panel in
  Array.iteri (fun j c -> Hashtbl.replace first j c.cold_json) cs;
  let r =
    measure env ~seconds ~panel
      ~probe:(fun _ ->
        rewind cs.(0);
        probe_verify ~dir:cs.(0).dir cs.(0).spec)
      ~op:(fun i ->
        let j = i mod panel in
        let c = cs.(j) in
        rewind c;
        verdict env ~first j c.spec ~dir:c.dir)
  in
  let cold_bad = Array.fold_left (fun a c -> if c.cold_ok then a else a + 1) 0 cs in
  { r with attempted = r.attempted + cold_bad; failed = r.failed + cold_bad }

let sweep_once env ~grid ~dir =
  let ctx, setup_s = open_sweep ~dir grid in
  let report, op =
    Meter.timed (fun () ->
        match Atlas.run ~ctx ~resume:false sweep_job grid with
        | Ok r -> r
        | Error e -> failwith ("atlas sweep refused: " ^ e))
  in
  close ~dir;
  let uncertified =
    List.filter
      (fun (r : Atlas.record) ->
        match r.Atlas.result with Atlas.Certified _ -> false | _ -> true)
      report.Atlas.records
  in
  List.iter
    (fun (r : Atlas.record) -> note env "FAILED: cell %s not certified" r.Atlas.cell.Atlas.id)
    uncertified;
  (report, setup_s, op, ctx, List.length uncertified)

let sweep_e2e env ~seconds =
  let grid = sweep_grid env.seed in
  let first = ref None in
  measure env ~seconds ~panel:1
    ~probe:(fun dir -> probe_sweep ~dir grid)
    ~op:(fun i ->
      let dir = fresh env (Printf.sprintf "s%d" i) in
      let report, _, span, _, bad = sweep_once env ~grid ~dir in
      let atlas = Atlas.report_json report in
      let differs = match !first with Some a -> a <> atlas | None -> false in
      if differs then note env "FAILED: atlas.json differs from the first sweep's";
      if !first = None then first := Some atlas;
      let records = report.Atlas.records in
      {
        span;
        units = List.length records;
        solves = List.fold_left (fun a (r : Atlas.record) -> a + r.Atlas.solves) 0 records;
        bad = (bad + if differs then 1 else 0);
      })

(* ------------------------------------------------------------------ *)
(* Traced pass                                                         *)

(* One verdict decomposed into the public calls Service.Job.run makes:
   Certificates.attractive_invariant for P1, and the
   Pll_core.Inevitability.verify sequence for the full pipeline. *)
type steps = {
  cert : Certificates.t;
  beta : float;
  level_stats : Certificates.stats;
  run : Advect.run_result option;
  lyapunov_s : float;
  level_s : float;
  advect_s : float;
}

let steps_wall st = st.lyapunov_s +. st.level_s +. st.advect_s

let decomposed ~policy (spec : Service.Job.spec) s =
  let base = Certificates.default_config s.Pll.order in
  let cfg =
    {
      base with
      Certificates.degree = spec.Service.Job.degree;
      robust_vertices = spec.Service.Job.robust;
      psd_tol = Option.value spec.Service.Job.psd_tol ~default:base.Certificates.psd_tol;
      eq_tol = Option.value spec.Service.Job.eq_tol ~default:base.Certificates.eq_tol;
      resilience = policy;
    }
  in
  let full = spec.Service.Job.property = Service.Job.Full in
  if full then Resilient.begin_pipeline policy;
  match Meter.wall (fun () -> Certificates.find_multi_lyapunov ~config:cfg s) with
  | Error e, _ -> Error e
  | Ok cert, lyapunov_s ->
      let (beta, level_stats), level_s =
        Meter.wall (fun () ->
            if full then Certificates.maximize_level s cert
            else Certificates.maximize_level ~bisect_steps:spec.Service.Job.bisect_steps s cert)
      in
      let run, advect_s =
        if not full then (None, 0.0)
        else
          let ai = { Certificates.cert; beta; level_stats } in
          let init =
            Advect.ellipsoid_front s ~radii:(Pll_core.Inevitability.default_init_radii s)
          in
          let r, t =
            Meter.wall (fun () ->
                Advect.run
                  ~config:{ Advect.default_config with Advect.resilience = policy }
                  ~max_iter:spec.Service.Job.advect_iters s ai ~init)
          in
          (Some r, t)
      in
      Ok { cert; beta; level_stats; run; lyapunov_s; level_s; advect_s }

(* The outcome Service.Job.run would build from these steps. *)
let steps_json (spec : Service.Job.spec) st =
  let verified =
    st.beta > 0.0
    && match (spec.Service.Job.property, st.run) with
       | Service.Job.Full, Some r -> r.Advect.verified
       | Service.Job.Full, None -> false
       | Service.Job.P1, _ -> true
  in
  Service.Job.result_json
    {
      Service.Job.verdict =
        (if verified then Service.Job.Verified else Service.Job.Not_established);
      beta = (if verified then st.beta else 0.0);
      kind = (if verified then "" else "not-established");
      detail = "";
      solves = 0;
      attempts = 0;
      attempt_s = 0.0;
      deadline_hit = false;
    }

(* Process-wide solver counters, read before and after a pass whose
   solves all run in this process. *)
type counters = { solves : int; iterations : int; warm : Sdp.Session.counters }

let counters () =
  { solves = Sdp.solve_count (); iterations = Sdp.iteration_count (); warm = Sdp.Session.totals () }

type counted = {
  c_steps : steps list;
  c_wall : float;
  c_solves : int;
  c_iterations : int;
  c_warm_accepted : int;
  c_warm_rejected : int;
  c_attempts : int;
  c_attempt_s : float;
  c_logical : int;
}

let counted f =
  let c0 = counters () in
  let (steps, budgets), wall = Meter.wall f in
  let c1 = counters () in
  let total f = List.fold_left (fun a (x : Resilient.budget) -> a + f x) 0 budgets in
  {
    c_steps = steps;
    c_wall = wall;
    c_solves = c1.solves - c0.solves;
    c_iterations = c1.iterations - c0.iterations;
    c_warm_accepted = c1.warm.Sdp.Session.warm_accepted - c0.warm.Sdp.Session.warm_accepted;
    c_warm_rejected = c1.warm.Sdp.Session.warm_rejected - c0.warm.Sdp.Session.warm_rejected;
    c_attempts = total (fun x -> x.Resilient.attempts);
    c_attempt_s =
      Meter.sum (List.map (fun (x : Resilient.budget) -> x.Resilient.attempt_s) budgets);
    c_logical = total (fun x -> x.Resilient.solves);
  }

let get = function Ok x -> x | Error e -> failwith e

(* Timed loads of (up to 64 of) a run dir's cache entries, and timed
   stores of the loaded solutions into a scratch cache, fsync
   included. Medians in milliseconds. *)
let cache_micro env ~dir =
  let cdir = Filename.concat dir "cache" in
  let keys =
    Sys.readdir cdir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".solve")
    |> List.map Filename.chop_extension |> List.sort compare
    |> List.filteri (fun i _ -> i < 64)
  in
  let cache = Supervise.Cache.create ~dir:cdir in
  let scratch = Supervise.Cache.create ~dir:(fresh env "scratch-cache") in
  let loads, stores =
    List.fold_left
      (fun (ls, ss) key ->
        match Meter.wall (fun () -> Supervise.Cache.load cache ~key) with
        | Ok sol, tl ->
            let _, ts = Meter.wall (fun () -> Supervise.Cache.store scratch ~key sol) in
            ((tl *. 1e3) :: ls, (ts *. 1e3) :: ss)
        | Error _, _ -> (ls, ss))
      ([], []) keys
  in
  (Meter.median loads, Meter.median stores)

(* Cholesky of a seeded SPD matrix the order of the workload's Lyapunov
   program: median ms of five, and the n^3/3 flop rate. *)
let cholesky env n =
  let r = Random.State.make [| env.seed; n |] in
  let b = Linalg.Mat.init n n (fun _ _ -> Random.State.float r 2.0 -. 1.0) in
  let a =
    Linalg.Mat.add (Linalg.Mat.mul b (Linalg.Mat.transpose b))
      (Linalg.Mat.scale (float_of_int n) (Linalg.Mat.identity n))
  in
  let t =
    Meter.median
      (List.init 5 (fun _ ->
           match Meter.wall (fun () -> Linalg.Mat.cholesky a) with
           | Some _, t -> t
           | None, _ -> failwith "cholesky: seeded matrix is not positive definite"))
  in
  let n = float_of_int n in
  (t *. 1e3, n *. n *. n /. 3.0 /. t /. 1e9)

(* Exact re-proof of a P1 certificate, in-process (as the atlas runs
   its exact gate). *)
let exact_reprove s (cert : Certificates.t) =
  let cert =
    {
      cert with
      Certificates.cfg = { cert.Certificates.cfg with Certificates.resilience = Resilient.make () };
    }
  in
  match Meter.wall (fun () -> Certificates.validate_exactly s cert) with
  | Ok ev, t ->
      let n = List.length ev.Certificates.verdicts in
      let proven =
        List.length
          (List.filter
             (fun (_, v) -> match v with Exact.Check.Proven _ -> true | _ -> false)
             ev.Certificates.verdicts)
      in
      (t, Meter.ratio (float_of_int proven) (float_of_int n))
  | Error _, t -> (t, 0.0)

(* Journal entries the traced pass itself solved, by label family. *)
let journal_solved ~dir ~skip =
  let entries, _ = Supervise.Journal.read dir in
  List.filteri (fun i _ -> i >= skip) entries
  |> List.filter (fun (e : Supervise.Journal.entry) -> e.Supervise.Journal.source = "solved")

let family (e : Supervise.Journal.entry) =
  match String.index_opt e.Supervise.Journal.label ':' with
  | Some i -> String.sub e.Supervise.Journal.label 0 i
  | None -> e.Supervise.Journal.label

(* Everything a traced run learns, turned into the per-layer metrics. *)
type traced = {
  untraced_s : float;  (** set-up + operation, untraced *)
  traced_s : float;  (** set-up + operation, traced *)
  spans_s : float;  (** sum of the traced pass's timed calls *)
  ops : steps list;  (** step source: traced pass, or the counting pass on sweep-p1 *)
  supervised_op_s : float;  (** the traced operation, set-up excluded *)
  count : counted;
  journal : Supervise.Journal.entry list;
  stats : Supervise.stats;
  cache_bytes : int;
  cache_load_ms : float;
  cache_store_ms : float;
  exact : float * float;
  chol : float * float;
  cells : int;
  cell_solves : int;
  pool_util : float;
}

let layer_metrics t =
  let sumf f = Meter.sum (List.map f t.ops) in
  let lyap = sumf (fun st -> st.lyapunov_s) and level = sumf (fun st -> st.level_s) in
  let advect = sumf (fun st -> st.advect_s) in
  let reported =
    sumf (fun st ->
        st.cert.Certificates.solve_stats.Certificates.time_s +. st.level_stats.Certificates.time_s)
  in
  let runs = List.filter_map (fun st -> st.run) t.ops in
  let runf f = Meter.sum (List.map f runs) in
  let first_cert f =
    match t.ops with st :: _ -> float_of_int (f st.cert.Certificates.solve_stats) | [] -> 0.0
  in
  let fam name = List.filter (fun e -> family e = name) t.journal in
  let jwall l =
    Meter.sum (List.map (fun (e : Supervise.Journal.entry) -> e.Supervise.Journal.wall_s) l)
  in
  let nf l = float_of_int (List.length l) in
  let level_j = fam "level" and transport_j = fam "transport" in
  let bound_j = List.filter (fun e -> String.starts_with ~prefix:"bound" (family e)) t.journal in
  let c = t.count in
  let fi = float_of_int in
  let exact_s, proven = t.exact and chol_ms, gflops = t.chol in
  [
    ("core.traced_s", t.traced_s);
    ("core.attributed_frac", Meter.ratio t.spans_s t.traced_s);
    ("trace.overhead_frac", (t.traced_s /. t.untraced_s) -. 1.0);
    ("certificates.lyapunov_s", lyap);
    ("certificates.level_s", level);
    ("certificates.reported_frac", Meter.ratio reported (lyap +. level));
    ("certificates.lyapunov_constraints", first_cert (fun s -> s.Certificates.n_constraints));
    ("certificates.gram_blocks", first_cert (fun s -> s.Certificates.n_gram_blocks));
    ("advect.run_frac", Meter.ratio advect t.traced_s);
    ("advect.advection_frac", Meter.ratio (runf (fun r -> r.Advect.advect_time_s)) advect);
    ("advect.inclusion_frac", Meter.ratio (runf (fun r -> r.Advect.inclusion_time_s)) advect);
    ("advect.escape_frac", Meter.ratio (runf (fun r -> r.Advect.escape_time_s)) advect);
    ("advect.iterations", runf (fun r -> fi r.Advect.iterations));
    ("advect.escapes", runf (fun r -> fi (List.length r.Advect.escapes)));
    ("exact.reprove_s", exact_s);
    ("exact.proven_frac", proven);
    ("sdp.journal_solves", nf t.journal);
    ("sdp.journal_frac", Meter.ratio (jwall t.journal) t.traced_s);
    ("sdp.level_solves", nf level_j);
    ("sdp.level_share", Meter.ratio (jwall level_j) t.traced_s);
    ("sdp.transport_solves", nf transport_j);
    ("sdp.transport_share", Meter.ratio (jwall transport_j) t.traced_s);
    ("sdp.bound_solves", nf bound_j);
    ("sdp.bound_share", Meter.ratio (jwall bound_j) t.traced_s);
    ("sdp.solves", fi c.c_solves);
    ("sdp.iterations", fi c.c_iterations);
    ("sdp.attempt_s", c.c_attempt_s);
    ("sdp.solve_ms", 1e3 *. Meter.ratio c.c_attempt_s (fi c.c_attempts));
    ("sdp.warm_attempts", fi (c.c_warm_accepted + c.c_warm_rejected));
    ( "sdp.warm_accept_frac",
      Meter.ratio (fi c.c_warm_accepted) (fi (c.c_warm_accepted + c.c_warm_rejected)) );
    ("resilient.attempts", fi c.c_attempts);
    ("resilient.retry_frac", Meter.ratio (fi (c.c_attempts - c.c_logical)) (fi c.c_attempts));
    ("supervise.overhead_s", t.supervised_op_s -. c.c_wall);
    ("supervise.forked", fi t.stats.Supervise.forked);
    ("supervise.pool_tasks", fi t.stats.Supervise.pool_tasks);
    ("supervise.cache_hits", fi t.stats.Supervise.cache_hits);
    ("supervise.cache_stores", fi t.stats.Supervise.cache_stores);
    ("supervise.cache_rejects", fi t.stats.Supervise.cache_rejects);
    ("supervise.cache_bytes", fi t.cache_bytes);
    ("supervise.cache_load_ms", t.cache_load_ms);
    ("supervise.cache_store_ms", t.cache_store_ms);
    ("supervise.unjournaled_solves", fi (c.c_solves - List.length t.journal));
    ("atlas.cells", fi t.cells);
    ("atlas.solves_per_cell", Meter.ratio (fi t.cell_solves) (fi t.cells));
    ("atlas.pool_util", t.pool_util);
    ("linalg.cholesky_ms", chol_ms);
    ("linalg.cholesky_gflops", gflops);
  ]

(* The Table-2 column of a traced verdict: the bench's spans next to
   the step times the program reports about itself. *)
let table2_column (spec : Service.Job.spec) ~traced_s ~exact_s st =
  let num x = J.Num x in
  let run f = match st.run with Some r -> num (f r) | None -> J.Null in
  J.Obj
    [
      ("order", J.Str (Service.Job.order_name spec.Service.Job.order));
      ( "property",
        J.Str
          (match spec.Service.Job.property with
          | Service.Job.P1 -> "p1"
          | Service.Job.Full -> "full") );
      ("degree", num (float_of_int spec.Service.Job.degree));
      ("lyapunov_span", num st.lyapunov_s);
      ("lyapunov_reported", num st.cert.Certificates.solve_stats.Certificates.time_s);
      ("level_span", num st.level_s);
      ("level_reported", num st.level_stats.Certificates.time_s);
      ("advect_span", (match st.run with Some _ -> num st.advect_s | None -> J.Null));
      ("advection_reported", run (fun r -> r.Advect.advect_time_s));
      ("inclusion_reported", run (fun r -> r.Advect.inclusion_time_s));
      ("escape_reported", run (fun r -> r.Advect.escape_time_s));
      ("iterations", run (fun r -> float_of_int r.Advect.iterations));
      ("escapes", run (fun r -> float_of_int (List.length r.Advect.escapes)));
      ("exact_span", num exact_s);
      ("traced_s", num traced_s);
    ]

(* Traced verify-* / replay-third: one untraced verdict, the same
   verdict decomposed under the same kind of context, then the
   counting pass in which every solve runs in this process. [prepare]
   yields the run dir of each pass. *)
let verify_trace env ~spec ~prepare ~counting_ctx ~expect =
  (* untraced *)
  let report = ref None in
  let dir_u = prepare "untraced" in
  let o, setup_u, op_u, _ =
    verify_once ~spec ~dir:dir_u
      ~validate:(fun r ->
        report := Some r;
        true)
      ()
  in
  let bad = ref (if verified_ok env ~spec ?expect o then 0 else 1) in
  let json_u = Service.Job.result_json o in
  (* traced *)
  let dir = prepare "traced" in
  let skip = List.length (fst (Supervise.Journal.read dir)) in
  let t0 = Meter.now () in
  let (ctx, s, policy), setup_t = open_verify ~dir spec in
  let st = get (decomposed ~policy spec s) in
  let traced_s = Meter.now () -. t0 in
  close ~dir;
  if steps_json spec st <> json_u then begin
    note env "FAILED: traced verdict %s differs from untraced %s" (steps_json spec st) json_u;
    incr bad
  end;
  (match (!report, st.run) with
  | Some r, Some run ->
      let a = r.Pll_core.Inevitability.advection in
      if a.Advect.iterations <> run.Advect.iterations
         || List.length a.Advect.escapes <> List.length run.Advect.escapes
      then begin
        note env "FAILED: traced advection differs (%d it, %d escapes vs %d, %d)"
          run.Advect.iterations (List.length run.Advect.escapes) a.Advect.iterations
          (List.length a.Advect.escapes);
        incr bad
      end
  | _ -> ());
  let journal = journal_solved ~dir ~skip in
  let stats = Supervise.stats ctx in
  let cache_bytes = snd (Supervise.Cache.usage (Option.get (Supervise.cache ctx))) in
  let cache_load_ms, cache_store_ms = cache_micro env ~dir in
  (* counting pass *)
  let count =
    counted (fun () ->
        let policy =
          match counting_ctx () with
          | Some ctx -> Resilient.make ~supervise:ctx ()
          | None -> Resilient.make ()
        in
        let st = get (decomposed ~policy spec s) in
        ([ st ], [ Resilient.consumed policy ]))
  in
  let exact = exact_reprove s st.cert in
  let t =
    {
      untraced_s = setup_u +. op_u.Meter.wall;
      traced_s;
      spans_s = setup_t +. steps_wall st;
      ops = [ st ];
      supervised_op_s = steps_wall st;
      count;
      journal;
      stats;
      cache_bytes;
      cache_load_ms;
      cache_store_ms;
      exact;
      chol = cholesky env st.cert.Certificates.solve_stats.Certificates.n_constraints;
      cells = 0;
      cell_solves = 0;
      pool_util = 0.0;
    }
  in
  {
    attempted = 2;
    failed = !bad;
    metrics = layer_metrics t;
    table2 = Some (table2_column spec ~traced_s ~exact_s:(fst exact) st);
  }

let verify_traced env ~spec =
  verify_trace env ~spec ~prepare:(fresh env) ~counting_ctx:(fun () -> None) ~expect:None

(* On the replay both passes run against the completed dir; the
   counting pass opens it without per-solve isolation, so every cache
   hit is served in this process. *)
let replay_traced env ~spec =
  let c = complete env ~spec ~name:"replay" in
  let prepare _ =
    rewind c;
    c.dir
  in
  let r =
    verify_trace env ~spec ~prepare
      ~counting_ctx:(fun () ->
        rewind c;
        Some (Supervise.create ~run_dir:c.dir ~jobs:(jobs ()) ~isolate:false ()))
      ~expect:(Some c.cold_json)
  in
  { r with table2 = None; failed = (r.failed + if c.cold_ok then 0 else 1) }

(* Cells run inside pool workers, out of this process's reach, so the
   sweep's step times come from the counting pass: each cell's P1
   pipeline in-process, as Atlas certifies a non-robust cell. *)
let sweep_traced env =
  let grid = sweep_grid env.seed in
  let dir_u = fresh env "untraced" in
  let report_u, setup_u, op_u, _, bad_u = sweep_once env ~grid ~dir:dir_u in
  let dir = fresh env "traced" in
  let t0 = Meter.now () in
  let report, setup_t, op, ctx, bad_t = sweep_once env ~grid ~dir in
  let traced_s = Meter.now () -. t0 in
  let differs = Atlas.report_json report <> Atlas.report_json report_u in
  if differs then note env "FAILED: traced atlas.json differs from the untraced one";
  let stats = Supervise.stats ctx in
  let cache_bytes = snd (Supervise.Cache.usage (Option.get (Supervise.cache ctx))) in
  let cache_load_ms, cache_store_ms = cache_micro env ~dir in
  let cells =
    List.map
      (fun cell ->
        let spec = cell_spec cell in
        (spec, model spec))
      (Atlas.grid_cells grid)
  in
  let count =
    counted (fun () ->
        List.map
          (fun (spec, s) ->
            let policy = Resilient.make () in
            let st = get (decomposed ~policy spec s) in
            (st, Resilient.consumed policy))
          cells
        |> List.split)
  in
  let st0 = List.hd count.c_steps in
  let records = report.Atlas.records in
  let t =
    {
      untraced_s = setup_u +. op_u.Meter.wall;
      traced_s;
      spans_s = setup_t +. op.Meter.wall;
      ops = count.c_steps;
      supervised_op_s = op.Meter.wall;
      count;
      journal = journal_solved ~dir ~skip:0;
      stats;
      cache_bytes;
      cache_load_ms;
      cache_store_ms;
      exact = exact_reprove (snd (List.hd cells)) st0.cert;
      chol = cholesky env st0.cert.Certificates.solve_stats.Certificates.n_constraints;
      cells = List.length records;
      cell_solves = List.fold_left (fun a (r : Atlas.record) -> a + r.Atlas.solves) 0 records;
      pool_util =
        Meter.ratio
          (Meter.sum (List.map (fun (r : Atlas.record) -> r.Atlas.attempt_s) records))
          (op.Meter.wall *. float_of_int (jobs ()));
    }
  in
  {
    attempted = List.length report_u.Atlas.records + List.length records;
    failed = (bad_u + bad_t + if differs then 1 else 0);
    metrics = layer_metrics t;
    table2 = None;
  }

(* ------------------------------------------------------------------ *)

(* A traced run decomposes the verdict of the panel's first point. *)
let run env ~name ~seconds ~trace =
  let point = List.hd (points_of_seed ~k:1 env.seed) in
  match (name, trace) with
  | "verify-third", false -> verify_e2e env ~spec_of:third_spec ~seconds
  | "verify-third", true -> verify_traced env ~spec:(third_spec point)
  | "verify-fourth", false -> verify_e2e env ~spec_of:fourth_spec ~seconds
  | "verify-fourth", true -> verify_traced env ~spec:(fourth_spec point)
  | "replay-third", false -> replay_e2e env ~spec_of:third_spec ~seconds
  | "replay-third", true -> replay_traced env ~spec:(third_spec point)
  | "sweep-p1", false -> sweep_e2e env ~seconds
  | "sweep-p1", true -> sweep_traced env
  | _ -> invalid_arg ("unknown workload " ^ name)
