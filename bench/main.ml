(* Benchmark harness: regenerates every table and figure of the paper's
   experimental evaluation (Section 4), plus the ablations called out in
   DESIGN.md.

     dune exec bench/main.exe              -- everything
     dune exec bench/main.exe table1       -- just one artifact
     dune exec bench/main.exe --fast       -- degree-4 certificates for
                                              the 3rd order (seconds
                                              instead of minutes)
     dune exec bench/main.exe --json P     -- also write per-artifact
                                              wall/CPU timings and
                                              solve/cache counters to P

   Artifacts: table1 table2 fig2 fig2-replay fig3 fig4 fig5
   ablation-reachset ablation-degree ablation-robust ablation-advect
   extensions sweep-fast service-fast kernels. (--fast skips fig4: it
   only re-renders fig2's already-forced pipeline, so its fast-profile
   row measured nothing.)

   Absolute times differ from the paper (different machine, different
   solver); the reproduced shape is: which step dominates the runtime
   (the attractive-invariant search), how many advection iterations are
   needed, and where escape certificates become necessary (the 4th
   order). EXPERIMENTS.md records paper-vs-measured values. *)

let sect title = Format.printf "@.==== %s ====@.@." title

(* ------------------------------------------------------------------ *)
(* Shared pipeline runs (computed once, reused by table2/fig2..fig5).  *)

type pipeline = { scaled : Pll.scaled; report : Pll_core.Inevitability.report }

(* With --json, the pipeline runs carry a (non-isolating) supervision
   context whose content-addressed cache deduplicates identical solve
   requests across artifacts; its counters feed the JSON report. *)
let bench_ctx : Supervise.ctx option ref = ref None

let run_pipeline ~label scaled ~degree ~max_advect_iter =
  Format.printf "[running %s pipeline with degree-%d certificates...]@." label degree;
  let cert_config =
    { (Certificates.default_config scaled.Pll.order) with Certificates.degree }
  in
  match
    Pll_core.Inevitability.verify ~cert_config ~max_advect_iter ?supervise:!bench_ctx
      scaled
  with
  | Error e -> failwith (Printf.sprintf "%s pipeline failed: %s" label e)
  | Ok report -> { scaled; report }

let third = lazy (Pll.scale Pll.table1_third)

let fourth = lazy (Pll.scale Pll.table1_fourth)

let fast_mode = ref false

let third_pipeline =
  lazy
    (let degree = if !fast_mode then 4 else 6 in
     run_pipeline ~label:"third-order" (Lazy.force third) ~degree ~max_advect_iter:12)

let fourth_pipeline =
  lazy (run_pipeline ~label:"fourth-order" (Lazy.force fourth) ~degree:4 ~max_advect_iter:8)

(* ------------------------------------------------------------------ *)
(* Table 1 — PLL parameters used in the experimentation.               *)

let pp_iv ppf iv = Format.fprintf ppf "[%g, %g]" (Interval.lo iv) (Interval.hi iv)

let table1 () =
  sect "Table 1: PLL parameters used in the experimentation";
  let r3 = Pll.table1_third and r4 = Pll.table1_fourth in
  let opt ppf = function None -> Format.fprintf ppf "-" | Some iv -> pp_iv ppf iv in
  let srow name a b = Format.printf "  %-12s %-22s %-22s@." name a b in
  srow "Parameter" "Third order" "Fourth order";
  srow "C1 (F)" (Format.asprintf "%a" pp_iv r3.Pll.c1) (Format.asprintf "%a" pp_iv r4.Pll.c1);
  srow "C2 (F)" (Format.asprintf "%a" pp_iv r3.Pll.c2) (Format.asprintf "%a" pp_iv r4.Pll.c2);
  srow "C3 (F)" (Format.asprintf "%a" opt r3.Pll.c3) (Format.asprintf "%a" opt r4.Pll.c3);
  srow "R (Ohm)" (Format.asprintf "%a" pp_iv r3.Pll.r) (Format.asprintf "%a" pp_iv r4.Pll.r);
  srow "R2 (Ohm)" (Format.asprintf "%a" opt r3.Pll.r2) (Format.asprintf "%a" opt r4.Pll.r2);
  srow "f_ref (Hz)" (Printf.sprintf "%g" r3.Pll.f_ref) (Printf.sprintf "%g" r4.Pll.f_ref);
  srow "f_q (Hz)" (Printf.sprintf "%g" r3.Pll.f_q) (Printf.sprintf "%g" r4.Pll.f_q);
  srow "Ip (A)" (Format.asprintf "%a" pp_iv r3.Pll.i_p) (Format.asprintf "%a" pp_iv r4.Pll.i_p);
  srow "Kv (rad/s/V)" (Format.asprintf "%a" pp_iv r3.Pll.k_v)
    (Format.asprintf "%a" pp_iv r4.Pll.k_v);
  Format.printf "@.  Scaled coefficients (DESIGN.md section 6):@.";
  Format.printf "  %a@.@.  %a@." Pll.pp_scaled (Lazy.force third) Pll.pp_scaled
    (Lazy.force fourth)

(* ------------------------------------------------------------------ *)
(* Table 2 — computation time of the inevitability verification.       *)

let table2 () =
  sect "Table 2: computation time of the inevitability verification";
  let p3 = Lazy.force third_pipeline in
  let p4 = Lazy.force fourth_pipeline in
  let t3 = p3.report.Pll_core.Inevitability.times in
  let t4 = p4.report.Pll_core.Inevitability.times in
  let deg3 = if !fast_mode then 4 else 6 in
  let row name a b pa pb = Format.printf "  %-26s %10.2f %16s %10.2f %16s@." name a pa b pb in
  Format.printf "  %-26s %10s %16s %10s %16s@." "Verification step" "3rd (s)" "paper 3rd (s)"
    "4th (s)" "paper 4th (s)";
  row
    (Printf.sprintf "Attractive invariant (d%d)" deg3)
    t3.Pll_core.Inevitability.attractive_invariant_s
    t4.Pll_core.Inevitability.attractive_invariant_s "1381.7 (d6)" "10021 (d4)";
  row "Max. level curves" t3.Pll_core.Inevitability.max_level_curves_s
    t4.Pll_core.Inevitability.max_level_curves_s "15.5" "12";
  row "Advection" t3.Pll_core.Inevitability.advection_s t4.Pll_core.Inevitability.advection_s
    "106.8 (14 it)" "140.7 (7 it)";
  row "Checking set inclusion" t3.Pll_core.Inevitability.set_inclusion_s
    t4.Pll_core.Inevitability.set_inclusion_s "13" "10.2";
  row "Escape certificate" t3.Pll_core.Inevitability.escape_certificate_s
    t4.Pll_core.Inevitability.escape_certificate_s "-" "18 (2 certs)";
  Format.printf "@.  advection iterations: 3rd = %d (paper: 14), 4th = %d (paper: 7)@."
    p3.report.Pll_core.Inevitability.advection.Advect.iterations
    p4.report.Pll_core.Inevitability.advection.Advect.iterations;
  Format.printf "  escape certificates:  3rd = %d (paper: 0), 4th = %d (paper: 2)@."
    (List.length p3.report.Pll_core.Inevitability.advection.Advect.escapes)
    (List.length p4.report.Pll_core.Inevitability.advection.Advect.escapes);
  Format.printf "  verified: 3rd = %b, 4th = %b@." p3.report.Pll_core.Inevitability.verified
    p4.report.Pll_core.Inevitability.verified

(* ------------------------------------------------------------------ *)
(* Figures — level-set boundary series.                                *)

let print_series name pts =
  Format.printf "  series %s (%d points):@." name (List.length pts);
  List.iter (fun (a, b) -> Format.printf "    % 10.4f  % 10.4f@." a b) pts

let fig_invariant ~title ~planes pipeline =
  sect title;
  let s = pipeline.scaled in
  let ai = pipeline.report.Pll_core.Inevitability.invariant in
  Format.printf "  common level beta = %.4f@." ai.Certificates.beta;
  List.iter
    (fun ((i, j), name) ->
      print_series name (Certificates.invariant_boundary s ai ~plane:(i, j) ~n:32))
    planes

let fig2 () =
  fig_invariant
    ~title:"Fig 2: 3rd-order attractive invariant on (v1,v2) and (v2,dphi)"
    ~planes:[ ((0, 1), "(v1, v2)"); ((1, 2), "(v2, dphi)") ]
    (Lazy.force third_pipeline)

(* A fresh (non-lazy) re-run of the third-order pipeline over the same
   problems fig2 forced. With --json active the shared supervision
   context serves every solve from its content-addressed cache, so this
   artifact's cache_hit_rate reads ~1.0 even on a pristine container —
   the cache accounting is measured inside one bench run instead of
   depending on a leftover _bench_cache/ directory (which is gitignored,
   so fresh checkouts always ran it cold and BENCH_fast.json showed
   zeros). *)
let fig2_replay () =
  sect "Fig 2 (replay): 3rd-order pipeline re-run against the warm solve cache";
  let degree = if !fast_mode then 4 else 6 in
  let p =
    run_pipeline ~label:"third-order (replay)" (Lazy.force third) ~degree
      ~max_advect_iter:12
  in
  Format.printf "  verified = %b; common level beta = %.4f@."
    p.report.Pll_core.Inevitability.verified
    p.report.Pll_core.Inevitability.invariant.Certificates.beta

let fig3 () =
  fig_invariant
    ~title:"Fig 3: 4th-order attractive invariant on (v2,v3) and (v2,dphi)"
    ~planes:[ ((1, 2), "(v2, v3)"); ((1, 3), "(v2, dphi)") ]
    (Lazy.force fourth_pipeline)

let fig_advect ~title ~planes pipeline =
  sect title;
  let s = pipeline.scaled in
  let report = pipeline.report in
  let nvars = s.Pll.nvars in
  let fronts =
    report.Pll_core.Inevitability.init_front
    :: List.map
         (fun st -> st.Advect.front)
         report.Pll_core.Inevitability.advection.Advect.fronts
  in
  Format.printf "  %d fronts (solid outer/initial set first, advected fronts dotted)@."
    (List.length fronts);
  List.iter
    (fun ((i, j), name) ->
      Format.printf "  --- plane %s ---@." name;
      List.iteri
        (fun k front ->
          print_series
            (Printf.sprintf "front %d" k)
            (Certificates.level_curve front ~beta:0.0 ~plane:(i, j) ~nvars ~n:24))
        fronts)
    planes;
  let escapes = report.Pll_core.Inevitability.advection.Advect.escapes in
  if escapes <> [] then begin
    Format.printf "  advection inconclusive; escape certificates on the residual set:@.";
    List.iter
      (fun (m, e) ->
        Format.printf "    mode %s: E = %s@." (Pll.mode_name m)
          (Poly.to_string (Poly.chop ~tol:1e-4 e)))
      escapes
  end

let fig4 () =
  fig_advect ~title:"Fig 4: 3rd-order advection on (v1,v2) and (v2,dphi)"
    ~planes:[ ((0, 1), "(v1, v2)"); ((1, 2), "(v2, dphi)") ]
    (Lazy.force third_pipeline)

let fig5 () =
  fig_advect ~title:"Fig 5: 4th-order advection on (v2,v3) and (v2,dphi)"
    ~planes:[ ((1, 2), "(v2, v3)"); ((1, 3), "(v2, dphi)") ]
    (Lazy.force fourth_pipeline)

(* ------------------------------------------------------------------ *)
(* Ablation 1 — certificates vs. reach-set baselines (paper section 1). *)

let ablation_reachset () =
  sect "Ablation: certificate pipeline vs. reach-set baselines";
  let s = Lazy.force third in
  let init : Interval.Box.t =
    [| Interval.make (-1.0) 1.0; Interval.make (-1.0) 1.0; Interval.make (-0.5) 0.5 |]
  in
  let iv = Reachset.interval_analysis s ~init ~mode0:Pll.off in
  Format.printf
    "  interval reachability:   converged=%b  flowpipe steps=%d  transitions=%d  set ops=%d \
     (%.2fs)@."
    iv.Reachset.converged iv.Reachset.iterations iv.Reachset.transitions iv.Reachset.set_ops
    iv.Reachset.time_s;
  let sm = Reachset.sampling_analysis ~grid:3 s ~init in
  Format.printf
    "  trajectory sampling:     %d runs, all locked=%b, transitions total=%d max=%d mean=%.1f \
     (%.2fs)@."
    sm.Reachset.n_trajectories sm.Reachset.all_locked sm.Reachset.total_transitions
    sm.Reachset.max_transitions sm.Reachset.mean_transitions sm.Reachset.time_s;
  Format.printf
    "  certificate pipeline:    0 discrete transitions enumerated (deductive; see Table 2)@."

(* Ablation 2 — certificate degree sweep on the 3rd-order PLL. *)

let ablation_degree () =
  sect "Ablation: multiple-Lyapunov certificate degree sweep (3rd order)";
  let s = Lazy.force third in
  List.iter
    (fun degree ->
      let cfg = { (Certificates.default_config Pll.Third) with Certificates.degree } in
      let t0 = Sys.time () in
      match Certificates.find_multi_lyapunov ~config:cfg s with
      | Ok c ->
          let beta, _ = Certificates.maximize_level s c in
          Format.printf "  degree %d: feasible (%.1fs), certified level beta = %.2f@." degree
            (Sys.time () -. t0) beta
      | Error _ -> Format.printf "  degree %d: infeasible (%.1fs)@." degree (Sys.time () -. t0))
    [ 2; 4; 6 ]

(* Ablation 3 — nominal vs. vertex-robust decrease conditions. *)

let ablation_robust () =
  sect "Ablation: nominal vs. vertex-robust certificate search (3rd order, degree 4)";
  let s = Lazy.force third in
  List.iter
    (fun robust ->
      let cfg =
        {
          (Certificates.default_config Pll.Third) with
          Certificates.degree = 4;
          robust_vertices = robust;
          (* The 8-vertex program is large; bound the interior-point
             effort so the ablation completes in bounded time. *)
          sdp_params = { Sdp.default_params with Sdp.max_iter = 80 };
        }
      in
      let t0 = Sys.time () in
      match Certificates.find_multi_lyapunov ~config:cfg s with
      | Ok c ->
          Format.printf "  robust=%-5b feasible in %6.1fs  (%d equalities, %d Gram blocks)@."
            robust (Sys.time () -. t0) c.Certificates.solve_stats.Certificates.n_constraints
            c.Certificates.solve_stats.Certificates.n_gram_blocks
      | Error e -> Format.printf "  robust=%-5b FAILED: %s@." robust e)
    [ false; true ]

(* Ablation 4 — advection engines: the paper's pure-SOS front synthesis
   (Eq. 6, front as an unknown of one SOS program) vs. this repo's
   default propose-and-certify step. *)

let ablation_advect () =
  sect "Ablation: advection engines (one step, 3rd order)";
  let s = Lazy.force third in
  let pt = Pll.nominal s in
  let init = Advect.ellipsoid_front s ~radii:[| 1.5; 1.5; 1.2 |] in
  (match Advect.advect_step s pt init with
  | Ok st ->
      Format.printf
        "  propose-and-certify: gamma = %.4f in %.1fs; simulation-valid = %b@."
        st.Advect.gamma st.Advect.time_s
        (Advect.validate_step_by_simulation ~samples:100 s pt
           ~h:Advect.default_config.Advect.h ~old_front:init st.Advect.front)
  | Error e -> Format.printf "  propose-and-certify: FAILED (%s)@." e);
  (match Advect.advect_step_sos s pt init with
  | Ok st ->
      Format.printf "  pure SOS (paper Eq. 6): gamma = %.4f in %.1fs; simulation-valid = %b@."
        st.Advect.gamma st.Advect.time_s
        (Advect.validate_step_by_simulation ~samples:100 s pt
           ~h:Advect.default_config.Advect.h ~old_front:init st.Advect.front)
  | Error e -> Format.printf "  pure SOS (paper Eq. 6): FAILED (%s)@." e)

(* Extensions beyond the paper's tables: the two other properties its
   introduction motivates (time-to-lock and lock retention under
   disturbance, plus start-up voltage safety). *)

let extensions () =
  sect "Extensions: time-to-lock, disturbance rejection, start-up safety (3rd order)";
  let s = Lazy.force third in
  let cfg = { (Certificates.default_config Pll.Third) with Certificates.degree = 4 } in
  match Certificates.attractive_invariant ~config:cfg s with
  | Error e -> Format.printf "  attractive invariant failed: %s@." e
  | Ok ai ->
      let beta = ai.Certificates.beta in
      List.iter
        (fun factor ->
          let t = Certificates.time_to_lock_bound s ai ~from_level:(factor *. beta) in
          Format.printf "  time-to-lock from %.1fx beta: <= %.1f scaled units (= %.3g s)@."
            factor t (t *. s.Pll.t0))
        [ 1.5; 2.0; 4.0 ];
      let dmax = Barrier.max_rejected_disturbance ~steps:5 s ai in
      Format.printf "  largest certified pump disturbance: %.4g (scaled)@." dmax;
      (match Barrier.lock_retention s ai ~d_max:(0.5 *. dmax) with
      | Ok r ->
          Format.printf "  lock retention: |d| <= %.4g keeps {V <= %.1f} invariant@."
            r.Barrier.d_max r.Barrier.level
      | Error e -> Format.printf "  lock retention: %s@." e);
      let init_radii = [| 0.4; 0.4; 0.3 |] in
      (match Barrier.pll_voltage_safety ~v_limit:2.3 ~invariant:ai s ~init_radii with
      | Ok cert ->
          let how =
            match cert.Barrier.via with
            | Barrier.Barrier_function ->
                Printf.sprintf "barrier function (deg %d)" (Poly.degree cert.Barrier.b)
            | Barrier.Reach_cap vmax -> Printf.sprintf "reach cap V <= %.1f" vmax
          in
          Format.printf "  start-up voltage safety: certified via %s; sim-validated: %b@." how
            (Barrier.validate_barrier_by_simulation ~trials:10 ~invariant:ai s ~init_radii cert)
      | Error e -> Format.printf "  start-up safety: %s@." e)

(* ------------------------------------------------------------------ *)
(* Sweep profile — a small certification atlas (lib/atlas) over the
   pump-current x VCO-gain plane, exercising the cell pipeline the
   sweep orchestrator runs at scale. Its cell counters feed the
   atlas_cells/atlas_certified/atlas_quarantined fields of --json. *)

(* (cells recorded, certified, quarantined) accumulated across runs. *)
let atlas_counters = ref (0, 0, 0)

let sweep_fast () =
  sect "Sweep: fast certification atlas (3rd order, degree 4, 2x2 grid)";
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pll-bench-atlas-%d" (Unix.getpid ()))
  in
  let ctx = Supervise.create ~run_dir:dir ~jobs:2 () in
  let job =
    {
      (Atlas.default_job Pll.Third) with
      Atlas.degree = 4;
      bisect_steps = 4;
      max_subdiv = 1;
    }
  in
  match Atlas.Grid.parse "ip=0.9:1.1:2,kv=0.95:1.05:2" with
  | Error e -> failwith e
  | Ok grid -> (
      match Atlas.run ~ctx ~resume:false job grid with
      | Error e -> failwith ("atlas sweep failed: " ^ e)
      | Ok report ->
          let c0, ce0, q0 = !atlas_counters in
          atlas_counters :=
            ( c0 + List.length report.Atlas.records,
              ce0 + report.Atlas.certified,
              q0 + report.Atlas.quarantined );
          Format.printf "%a@." Atlas.pp_summary report)

(* ------------------------------------------------------------------ *)
(* Service profile — the verification daemon (lib/service) exercised
   end to end over two lifetimes of a forked verifyd on a temp run
   dir: a real solve followed by a byte-identical replay from the
   result store, then (after a graceful drain and a --resume restart
   with the dispatcher wedged) deterministic in-flight dedup and
   load shedding against the bounded admission queue. Its admission
   counters feed the service_accepted/service_shed/service_deduped/
   service_hit_rate fields of --json. *)

(* (accepted, shed, deduped, cache_served, submits) accumulated. *)
let service_counters = ref (0, 0, 0, 0, 0)

(* (leases_reclaimed, redispatched, dead_lettered) accumulated — the
   daemon's worker-supervision counters, fed by the batch lifetime. *)
let service_lease_counters = ref (0, 0, 0)

let service_fast () =
  sect "Service: daemon admission, dedup and load shedding (3rd order, degree 4)";
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pll-bench-service-%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  let base =
    {
      (Service.Daemon.default_config ~run_dir:dir) with
      Service.Daemon.workers = 1;
      queue_cap = 1;
    }
  in
  let sock = Service.Daemon.socket_path base in
  let start config =
    (* The daemon chats on stdout; keep its lines out of the bench
       report. *)
    Format.pp_print_flush Format.std_formatter ();
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
        let log =
          Unix.openfile (Filename.concat dir "daemon.log")
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
            0o644
        in
        Unix.dup2 log Unix.stdout;
        Unix.dup2 log Unix.stderr;
        Unix.close log;
        exit (Service.Daemon.run config)
    | pid ->
        (* A socket file can linger across lifetimes; ready means the
           daemon answers status. *)
        let rec ready n =
          if n > 100 then failwith "service-fast: daemon never became ready"
          else
            match Service.Client.status ~sock () with
            | Ok _ -> ()
            | Error _ ->
                Unix.sleepf 0.1;
                ready (n + 1)
        in
        ready 0;
        pid
  in
  let stop pid =
    (match Service.Client.stop ~sock () with
    | Ok _ -> ()
    | Error e -> failwith ("service-fast: stop failed: " ^ e));
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _, st ->
        let code = match st with Unix.WEXITED c -> c | _ -> -1 in
        failwith (Printf.sprintf "service-fast: daemon did not drain cleanly (%d)" code)
  in
  let ok what = function
    | Ok j -> j
    | Error e -> failwith (Printf.sprintf "service-fast: %s: %s" what e)
  in
  let spec point =
    {
      (Service.Job.default_spec Pll.Third) with
      Service.Job.degree = 4;
      bisect_steps = 4;
      point;
    }
  in
  let record_status () =
    let s = ok "status" (Service.Client.status ~sock ()) in
    let n field =
      match Service.Json.mem_num field s with
      | Some v -> int_of_float v
      | None -> failwith ("service-fast: status lacks " ^ field)
    in
    let a0, s0, d0, c0, t0 = !service_counters in
    service_counters :=
      (a0 + n "accepted", s0 + n "shed", d0 + n "deduped", c0 + n "cache_served",
       t0 + n "submits");
    let l0, r0, dl0 = !service_lease_counters in
    service_lease_counters :=
      (l0 + n "leases_reclaimed", r0 + n "redispatched", dl0 + n "dead_lettered")
  in
  let typ j = Option.value ~default:"?" (Service.Json.mem_str "type" j) in
  (* Lifetime 1: a real solve, then a replay served from the result
     store. *)
  let pid = start base in
  let r1 = ok "job A" (Service.Client.submit ~sock (spec [])) in
  let r2 = ok "job A (replay)" (Service.Client.submit ~sock (spec [])) in
  if Service.Json.mem_bool "cached" r2 <> Some true then
    failwith "service-fast: replay was not served from the result store";
  record_status ();
  stop pid;
  (* Lifetime 2: resume over the same ledger with the dispatcher
     wedged, so dedup and shedding are deterministic. *)
  let pid =
    start
      {
        base with
        Service.Daemon.resume = true;
        faults = [ Service.Daemon.Fault.Wedge_queue ];
      }
  in
  let b = spec [ (Pll.Ip, 1.01) ] in
  let sub s = Service.Client.submit ~sock ~wait:false s in
  let j1 = ok "job B" (sub b) in
  let j2 = ok "job B (dup)" (sub b) in
  let j3 = ok "job C (over cap)" (sub (spec [ (Pll.Ip, 1.02) ])) in
  if typ j1 <> "accepted" then failwith "service-fast: job B was not accepted";
  if Service.Json.mem_bool "deduped" j2 <> Some true then
    failwith "service-fast: duplicate submit was not deduped";
  if typ j3 <> "overloaded" then
    failwith "service-fast: over-cap submit was not shed";
  record_status ();
  stop pid;
  (* Lifetime 3: batch mode — a bulk submission of two atlas cells
     through the daemon's leased per-cell jobs, with the first cell's
     worker SIGKILLed on launch so the redispatch path is on the
     measured path too. *)
  let pid =
    start
      {
        base with
        Service.Daemon.resume = true;
        queue_cap = 4;
        faults = [ Service.Daemon.Fault.Kill_worker "c0" ];
      }
  in
  let bulk_job =
    {
      (Atlas.default_job Pll.Third) with
      Atlas.degree = 4;
      bisect_steps = 4;
      max_subdiv = 0;
    }
  in
  let cells =
    match Atlas.Grid.parse "ip=0.95:1.05:2" with
    | Ok g -> Atlas.grid_cells g
    | Error e -> failwith ("service-fast: " ^ e)
  in
  let bulk_ok =
    Atlas.exec_via_daemon ~sock ~retries:3 bulk_job cells
    |> List.for_all (function
         | Ok p -> p.Service.Bulk.ok
         | Error e -> failwith ("service-fast: bulk cell failed: " ^ e))
  in
  if not bulk_ok then failwith "service-fast: a bulk cell was not certified";
  record_status ();
  stop pid;
  Format.printf "  job A verdict: %s; replay cached: %b@."
    (Option.value ~default:"?"
       (Option.bind (Service.Json.member "result" r1) (Service.Json.mem_str "verdict")))
    (Service.Json.mem_bool "cached" r2 = Some true);
  let a, sh, d, c, t = !service_counters in
  Format.printf
    "  admission: accepted=%d shed=%d deduped=%d cache_served=%d of %d submits@." a sh d
    c t;
  let lr, rd, dl = !service_lease_counters in
  Format.printf "  supervision: leases_reclaimed=%d redispatched=%d dead_lettered=%d@."
    lr rd dl;
  ignore (Sys.command ("rm -rf " ^ Filename.quote dir))

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the numerical kernels.                 *)

let kernels () =
  sect "Bechamel micro-benchmarks of the solver kernels";
  let open Bechamel in
  let s = Lazy.force third in
  let pt = Pll.nominal s in
  let flow = Pll.flow s pt Pll.off in
  let v6 =
    Poly.sum 3
      (List.init 3 (fun i -> Poly.pow (Poly.var 3 i) 2)
      @ List.init 3 (fun i -> Poly.pow (Poly.var 3 i) 6))
  in
  let spd =
    let rng = Random.State.make [| 5 |] in
    let b = Linalg.Mat.init 40 40 (fun _ _ -> Random.State.float rng 2.0 -. 1.0) in
    Linalg.Mat.add
      (Linalg.Mat.mul b (Linalg.Mat.transpose b))
      (Linalg.Mat.scale 4.0 (Linalg.Mat.identity 40))
  in
  let small_sos () =
    let prob = Sos.create ~nvars:2 in
    let p =
      Poly.of_terms 2
        [
          (Poly.Monomial.of_exponents [ 4; 0 ], 1.0);
          (Poly.Monomial.of_exponents [ 2; 2 ], 1.0);
          (Poly.Monomial.of_exponents [ 0; 4 ], 2.0);
          (Poly.Monomial.of_exponents [ 0; 0 ], 0.5);
        ]
    in
    Sos.add_sos prob (Sos.Ppoly.of_poly p);
    ignore (Sos.solve prob)
  in
  let tests =
    Test.make_grouped ~name:"kernels"
      [
        Test.make ~name:"mat-cholesky-40"
          (Staged.stage (fun () -> ignore (Linalg.Mat.cholesky spd)));
        Test.make ~name:"mat-sym-eig-40" (Staged.stage (fun () -> ignore (Linalg.Mat.sym_eig spd)));
        Test.make ~name:"mat-expm-4"
          (Staged.stage (fun () ->
               ignore (Linalg.Mat.expm (Linalg.Mat.init 4 4 (fun i j -> 0.3 *. float_of_int (i - j))))));
        Test.make ~name:"poly-lie-derivative-deg6"
          (Staged.stage (fun () -> ignore (Poly.lie_derivative v6 flow)));
        Test.make ~name:"hybrid-rk4-step"
          (Staged.stage (fun () -> ignore (Hybrid.rk4_step flow 1e-3 [| 1.0; -1.0; 0.5 |])));
        Test.make ~name:"sos-feasibility-small" (Staged.stage small_sos);
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances tests in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> rows := (name, est) :: !rows
      | _ -> ())
    results;
  List.iter
    (fun (name, est) -> Format.printf "  %-32s %14.1f ns/run@." name est)
    (List.sort compare !rows)

(* ------------------------------------------------------------------ *)

(* Per-artifact accounting for --json: wall clock, CPU seconds of this
   process, interior-point solve/iteration counts, warm-start session
   counters, and the supervision cache counters when a context is
   active. [cache_hit_rate] is hits over supervised requests — a real
   rate now that the bench cache dir persists across runs. *)
type row = {
  name : string;
  wall_s : float;
  cpu_s : float;
  solves : int;
  iterations : int;
  warm_accepted : int;
  warm_rejected : int;
  cache_hits : int;
  cache_stores : int;
  cache_hit_rate : float;
  atlas_cells : int;
  atlas_certified : int;
  atlas_quarantined : int;
  service_accepted : int;
  service_shed : int;
  service_deduped : int;
  service_hit_rate : float;
  leases_reclaimed : int;
  redispatched : int;
  dead_lettered : int;
}

let row_to_json r =
  Printf.sprintf
    "{\"name\":\"%s\",\"wall_s\":%.3f,\"cpu_s\":%.3f,\"solves\":%d,\"iterations\":%d,\"warm_accepted\":%d,\"warm_rejected\":%d,\"cache_hits\":%d,\"cache_stores\":%d,\"cache_hit_rate\":%.3f,\"atlas_cells\":%d,\"atlas_certified\":%d,\"atlas_quarantined\":%d,\"service_accepted\":%d,\"service_shed\":%d,\"service_deduped\":%d,\"service_hit_rate\":%.3f,\"leases_reclaimed\":%d,\"redispatched\":%d,\"dead_lettered\":%d}"
    r.name r.wall_s r.cpu_s r.solves r.iterations r.warm_accepted r.warm_rejected
    r.cache_hits r.cache_stores r.cache_hit_rate r.atlas_cells r.atlas_certified
    r.atlas_quarantined r.service_accepted r.service_shed r.service_deduped
    r.service_hit_rate r.leases_reclaimed r.redispatched r.dead_lettered

(* CPU seconds of this process and of every child it has reaped: forked
   workers and pool children do most of a supervised run's work, which
   [Sys.time] never sees. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

let instrument rows (name, f) =
  ( name,
    fun () ->
      let hits0, stores0, sup0 =
        match !bench_ctx with
        | Some ctx ->
            let s = Supervise.stats ctx in
            (s.Supervise.cache_hits, s.Supervise.cache_stores, s.Supervise.supervised)
        | None -> (0, 0, 0)
      in
      let solves0 = Sdp.solve_count () in
      let iters0 = Sdp.iteration_count () in
      let wt0 = Sdp.Session.totals () in
      let ac0, ace0, aq0 = !atlas_counters in
      let sa0, ss0, sd0, sc0, st0 = !service_counters in
      let lr0, rd0, dl0 = !service_lease_counters in
      let w0 = Unix.gettimeofday () and c0 = cpu_now () in
      f ();
      let hits1, stores1, sup1 =
        match !bench_ctx with
        | Some ctx ->
            let s = Supervise.stats ctx in
            (s.Supervise.cache_hits, s.Supervise.cache_stores, s.Supervise.supervised)
        | None -> (0, 0, 0)
      in
      let wt1 = Sdp.Session.totals () in
      let ac1, ace1, aq1 = !atlas_counters in
      let sa1, ss1, sd1, sc1, st1 = !service_counters in
      let lr1, rd1, dl1 = !service_lease_counters in
      rows :=
        {
          name;
          wall_s = Unix.gettimeofday () -. w0;
          cpu_s = cpu_now () -. c0;
          solves = Sdp.solve_count () - solves0;
          iterations = Sdp.iteration_count () - iters0;
          warm_accepted = wt1.Sdp.Session.warm_accepted - wt0.Sdp.Session.warm_accepted;
          warm_rejected = wt1.Sdp.Session.warm_rejected - wt0.Sdp.Session.warm_rejected;
          cache_hits = hits1 - hits0;
          cache_stores = stores1 - stores0;
          cache_hit_rate =
            (if sup1 = sup0 then 0.0
             else float_of_int (hits1 - hits0) /. float_of_int (sup1 - sup0));
          atlas_cells = ac1 - ac0;
          atlas_certified = ace1 - ace0;
          atlas_quarantined = aq1 - aq0;
          service_accepted = sa1 - sa0;
          service_shed = ss1 - ss0;
          service_deduped = sd1 - sd0;
          service_hit_rate =
            (if st1 = st0 then 0.0
             else float_of_int (sc1 - sc0) /. float_of_int (st1 - st0));
          leases_reclaimed = lr1 - lr0;
          redispatched = rd1 - rd0;
          dead_lettered = dl1 - dl0;
        }
        :: !rows )

let write_json path rows =
  let oc = open_out path in
  Printf.fprintf oc
    "{\"fast\":%b,\"total_solves\":%d,\"artifacts\":[%s]}\n" !fast_mode
    (Sdp.solve_count ())
    (String.concat "," (List.rev_map row_to_json rows));
  close_out oc;
  Format.printf "@.[wrote %d artifact timing row(s) to %s]@." (List.length rows) path

(* ------------------------------------------------------------------ *)
(* bench ab <old.json> <new.json> — per-artifact deltas with a
   noise-aware regression gate.                                       *)

let ab_load path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Service.Json.parse s with
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  | Ok j -> (
      match Service.Json.member "artifacts" j with
      | Some a -> (
          match Service.Json.arr a with
          | Some rows ->
              List.filter_map
                (fun r ->
                  match Service.Json.mem_str "name" r with
                  | Some name ->
                      let num k = Option.value ~default:0.0 (Service.Json.mem_num k r) in
                      Some (name, (num "wall_s", num "cpu_s", num "iterations", num "cache_hit_rate"))
                  | None -> None)
                rows
          | None -> failwith (path ^ ": \"artifacts\" is not an array"))
      | None -> failwith (path ^ ": no \"artifacts\" member"))

(* Regression = new wall exceeds old by 20% plus a 0.5s absolute floor,
   so sub-second artifacts can't trip the gate on scheduler noise. *)
let ab_regressed ~old_wall ~new_wall = new_wall > (old_wall *. 1.2) +. 0.5

let ab old_path new_path =
  let olds = ab_load old_path and news = ab_load new_path in
  let regressions = ref [] in
  Format.printf "  %-20s %22s %22s %18s %14s@." "artifact" "wall (s)" "cpu (s)"
    "iterations" "cache hit rate";
  List.iter
    (fun (name, (nw, nc, ni, nh)) ->
      match List.assoc_opt name olds with
      | None -> Format.printf "  %-20s (new artifact: %.3fs wall)@." name nw
      | Some (ow, oc, oi, oh) ->
          let pct o n = if o = 0.0 then 0.0 else (n -. o) /. o *. 100.0 in
          Format.printf "  %-20s %9.3f->%8.3f %s %9.3f->%8.3f %7.0f->%7.0f %6.2f->%6.2f@."
            name ow nw
            (Printf.sprintf "(%+.0f%%)" (pct ow nw))
            oc nc oi ni oh nh;
          if ab_regressed ~old_wall:ow ~new_wall:nw then regressions := name :: !regressions)
    news;
  List.iter
    (fun (name, (ow, _, _, _)) ->
      if not (List.mem_assoc name news) then
        Format.printf "  %-20s (dropped; was %.3fs wall)@." name ow)
    olds;
  match !regressions with
  | [] ->
      Format.printf "@.  no wall-clock regressions (threshold: +20%% and +0.5s)@.";
      0
  | rs ->
      Format.printf "@.  REGRESSION in: %s@." (String.concat ", " (List.rev rs));
      1

let () =
  (match Array.to_list Sys.argv |> List.tl with
  | [ "ab"; old_path; new_path ] -> exit (ab old_path new_path)
  | "ab" :: _ ->
      Format.printf "usage: bench ab <old.json> <new.json>@.";
      exit 124
  | _ -> ());
  let args = Array.to_list Sys.argv |> List.tl in
  fast_mode := List.mem "--fast" args;
  let args = List.filter (fun a -> a <> "--fast") args in
  (* A path-taking flag with its path missing used to fall through to
     artifact-name matching ("unknown artifact --json"); it is a usage
     error, diagnosed as one. *)
  let path_flag flag args =
    let rec go acc = function
      | [ f ] when f = flag ->
          Format.eprintf "bench: %s requires a path@." flag;
          exit 124
      | f :: path :: rest when f = flag -> (Some path, List.rev_append acc rest)
      | a :: rest -> go (a :: acc) rest
      | [] -> (None, List.rev acc)
    in
    go [] args
  in
  let json_path, args = path_flag "--json" args in
  let cache_dir, args = path_flag "--cache-dir" args in
  (* Each profile keeps a persistent cache dir (overridable with
     --cache-dir), so repeat bench runs measure real cache hit rates
     instead of the pristine-run-dir zeros BENCH_*.json used to show. *)
  (if json_path <> None then
     let dir =
       match cache_dir with
       | Some d -> d
       | None ->
           Filename.concat "_bench_cache" (if !fast_mode then "fast" else "full")
     in
     bench_ctx := Some (Supervise.create ~run_dir:dir ~isolate:false ()));
  let artifacts =
    [
      ("table1", table1);
      ("table2", table2);
      ("fig2", fig2);
      ("fig2-replay", fig2_replay);
      ("fig3", fig3);
      ("fig4", fig4);
      ("fig5", fig5);
      ("ablation-reachset", ablation_reachset);
      ("ablation-degree", ablation_degree);
      ("ablation-robust", ablation_robust);
      ("ablation-advect", ablation_advect);
      ("extensions", extensions);
      ("sweep-fast", sweep_fast);
      ("service-fast", service_fast);
      ("kernels", kernels);
    ]
  in
  let rows = ref [] in
  let artifacts = List.map (instrument rows) artifacts in
  (match args with
  | [] ->
      (* fig4 only re-renders fig2's already-forced pipeline, so in the
         fast profile its row measures nothing; it stays addressable by
         name. *)
      List.iter
        (fun (name, f) -> if not (!fast_mode && name = "fig4") then f ())
        artifacts
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name artifacts with
          | Some f -> f ()
          | None ->
              Format.printf "unknown artifact %s; available: %s@." name
                (String.concat " " (List.map fst artifacts));
              exit 1)
        names);
  match json_path with None -> () | Some path -> write_json path !rows
