(* Regenerates every table and figure of the paper's experimental
   evaluation (Section 4), plus the ablations called out in DESIGN.md.

     dune exec bench/main.exe              -- everything
     dune exec bench/main.exe table1       -- just one artifact
     dune exec bench/main.exe --fast       -- degree-4 certificates for
                                              the 3rd order (seconds
                                              instead of minutes)

   Artifacts: table1 table2 fig2 fig3 fig4 fig5 ablation-reachset
   ablation-degree ablation-robust ablation-advect extensions kernels.
   (--fast skips fig4 when running everything: it only re-renders
   fig2's already-forced pipeline.) An unknown artifact name exits 1.

   Performance is measured by the repository benchmark
   (benchsuite/run.sh), not here.

   Absolute times differ from the paper (different machine, different
   solver); the reproduced shape is: which step dominates the runtime
   (the attractive-invariant search), how many advection iterations are
   needed, and where escape certificates become necessary (the 4th
   order). EXPERIMENTS.md records paper-vs-measured values. *)

let sect title = Format.printf "@.==== %s ====@.@." title

(* ------------------------------------------------------------------ *)
(* Shared pipeline runs (computed once, reused by table2/fig2..fig5).  *)

type pipeline = { scaled : Pll.scaled; report : Pll_core.Inevitability.report }

let run_pipeline ~label scaled ~degree ~max_advect_iter =
  Format.printf "[running %s pipeline with degree-%d certificates...]@." label degree;
  let cert_config =
    { (Certificates.default_config scaled.Pll.order) with Certificates.degree }
  in
  match Pll_core.Inevitability.verify ~cert_config ~max_advect_iter scaled with
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

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  fast_mode := List.mem "--fast" args;
  let args = List.filter (fun a -> a <> "--fast") args in
  let artifacts =
    [
      ("table1", table1);
      ("table2", table2);
      ("fig2", fig2);
      ("fig3", fig3);
      ("fig4", fig4);
      ("fig5", fig5);
      ("ablation-reachset", ablation_reachset);
      ("ablation-degree", ablation_degree);
      ("ablation-robust", ablation_robust);
      ("ablation-advect", ablation_advect);
      ("extensions", extensions);
      ("kernels", kernels);
    ]
  in
  match args with
  | [] ->
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
        names
