module Ppoly = Sos.Ppoly

let src = Logs.Src.create "barrier" ~doc:"barrier / disturbance certificates"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  degree : int;
  margin : float;
  mult_deg : int;
  sdp_params : Sdp.params;
  resilience : Resilient.policy;
}

let default_config =
  {
    degree = 4;
    margin = 1e-2;
    mult_deg = 2;
    sdp_params = Sdp.default_params;
    resilience = Resilient.default ();
  }

type route = Barrier_function | Reach_cap of float

type t = { b : Poly.t; via : route; stats : Certificates.stats }

let stats_of prob (sol : Sos.solution) time_s =
  {
    Certificates.time_s;
    sdp_iterations = sol.Sos.sdp.Sdp.iterations;
    n_constraints = Sos.n_equalities prob;
    n_gram_blocks = Sos.n_gram_blocks prob;
    min_gram_eig = sol.Sos.min_gram_eig;
    max_residual = sol.Sos.max_eq_residual;
  }

let find_barrier ?(config = default_config) ~nvars ~flows ~domains ~init ~unsafe () =
  if List.length flows <> List.length domains then
    invalid_arg "Barrier.find_barrier: flows/domains length mismatch";
  let t0 = Sys.time () in
  let prob = Sos.create ~nvars in
  let b = Sos.fresh_poly prob ~deg:config.degree in
  (* B <= 0 on the initial set *)
  Sos.add_nonneg_on ~mult_deg:config.mult_deg prob ~domain:init (Ppoly.neg b);
  (* B >= margin on the unsafe set *)
  Sos.add_nonneg_on ~mult_deg:config.mult_deg prob ~domain:unsafe
    (Ppoly.sub b (Ppoly.of_poly (Poly.const nvars config.margin)));
  (* dB/dt <= 0 along every mode flow on its domain *)
  List.iter2
    (fun flow domain ->
      Sos.add_nonneg_on ~mult_deg:config.mult_deg prob ~domain
        (Ppoly.neg (Ppoly.lie_derivative b flow)))
    flows domains;
  (* No barrier means no safety argument — climb the retry ladder. *)
  let sol, _ =
    Resilient.solve_sos config.resilience ~label:"barrier" ~params:config.sdp_params prob
  in
  let time_s = Sys.time () -. t0 in
  if sol.Sos.certified then
    Ok
      {
        b = Poly.chop ~tol:1e-9 (Sos.value sol b);
        via = Barrier_function;
        stats = stats_of prob sol time_s;
      }
  else
    Error
      (Printf.sprintf "no degree-%d barrier certificate (feasible=%b)" config.degree
         sol.Sos.feasible)

let pll_voltage_safety ?(config = default_config) ?v_limit ?invariant (s : Pll.scaled)
    ~init_radii =
  let n = s.Pll.nvars in
  let v_limit = Option.value v_limit ~default:(0.96 *. s.Pll.w_max) in
  let init_front = Advect.ellipsoid_front s ~radii:init_radii in
  let init = [ Poly.neg init_front ] in
  let pt = Pll.nominal s in
  let flows = List.init Pll.n_modes (fun m -> Pll.flow s pt m) in
  let domains = List.init Pll.n_modes (fun m -> Pll.mode_domain s m) in
  let unsafe_of i =
    let wi = Poly.var n i in
    [
      Poly.sub (Poly.mul wi wi) (Poly.const n (v_limit *. v_limit));
      Poly.sub (Poly.const n (s.Pll.w_max *. s.Pll.w_max)) (Poly.mul wi wi);
    ]
  in
  (* Preferred route with an attractive invariant: the reach tube of the
     initial set stays in {V_q <= vmax} (Theorem-1 decrease), so safety
     follows if every V_q clears vmax on the unsafe band:
     V_q >= vmax + margin there. One small SOS check per mode and face. *)
  let via_cap ai =
    match Certificates.upper_bound_on_set s ai.Certificates.cert ~set:init_front with
    | Error e -> Error e
    | Ok vmax ->
        let t0 = Sys.time () in
        let ok = ref true in
        for i = 0 to n - 2 do
          for m = 0 to Pll.n_modes - 1 do
            if !ok then begin
              let v = ai.Certificates.cert.Certificates.vs.(m) in
              let prob = Sos.create ~nvars:n in
              Sos.add_nonneg_on ~mult_deg:config.mult_deg prob
                ~domain:(unsafe_of i @ Pll.mode_domain s m)
                (Sos.Ppoly.of_poly
                   (Poly.sub v (Poly.const n (vmax +. config.margin))));
              (* Failure falls back to a genuine barrier search — probe. *)
              let sol, _ =
                Resilient.solve_sos
                  (Resilient.probe config.resilience)
                  ~label:(Printf.sprintf "safety-cap:%s" (Pll.mode_name m))
                  ~params:config.sdp_params prob
              in
              if not sol.Sos.certified then ok := false
            end
          done
        done;
        if !ok then
          Ok
            {
              b =
                Poly.sub ai.Certificates.cert.Certificates.vs.(Pll.off)
                  (Poly.const n vmax);
              via = Reach_cap vmax;
              stats =
                {
                  Certificates.time_s = Sys.time () -. t0;
                  sdp_iterations = 0;
                  n_constraints = 0;
                  n_gram_blocks = 0;
                  min_gram_eig = 0.0;
                  max_residual = 0.0;
                };
            }
        else Error "reach cap does not clear the unsafe band"
  in
  (* Fallback: a genuine barrier function per voltage face. *)
  let via_barrier () =
    let rec go i last =
      if i >= n - 1 then last
      else
        match find_barrier ~config ~nvars:n ~flows ~domains ~init ~unsafe:(unsafe_of i) () with
        | Error _ as e -> e
        | Ok _ as ok -> go (i + 1) ok
    in
    go 0 (Error "pll_voltage_safety: no voltage coordinates")
  in
  match invariant with
  | Some ai -> ( match via_cap ai with Ok _ as ok -> ok | Error _ -> via_barrier ())
  | None -> via_barrier ()

let validate_barrier_by_simulation ?(trials = 30) ?(t_max = 60.0) ?(seed = 5) ?invariant
    (s : Pll.scaled) ~init_radii cert =
  let rng = Random.State.make [| seed |] in
  let n = s.Pll.nvars in
  let sys = Pll.hybrid_system s (Pll.nominal s) in
  let theta = Pll.theta_index s in
  (* What must hold along every arc from the initial set, its
     polynomials staged once. *)
  let holds : Hybrid.step -> bool =
    match (cert.via, invariant) with
    | Barrier_function, _ ->
        let b = Poly.evaluator cert.b in
        fun st -> b st.Hybrid.state <= 1e-6
    | Reach_cap vmax, Some ai ->
        let vs = Array.map Poly.evaluator ai.Certificates.cert.Certificates.vs in
        fun st -> vs.(st.Hybrid.mode_at) st.Hybrid.state <= vmax +. 1e-6
    | Reach_cap _, None -> fun _ -> true (* nothing checkable without the certificates *)
  in
  let sound = ref true and found = ref 0 and attempts = ref 0 in
  while !found < trials && !attempts < trials * 300 do
    incr attempts;
    let x0 = Array.init n (fun i -> (Random.State.float rng 2.0 -. 1.0) *. init_radii.(i)) in
    let q =
      Array.fold_left ( +. ) (-1.0) (Array.mapi (fun i v -> (v /. init_radii.(i)) ** 2.0) x0)
    in
    if q <= 0.0 then begin
      incr found;
      let th = x0.(theta) in
      let m =
        if Float.abs th <= s.Pll.theta_on then Pll.off
        else if th > 0.0 then Pll.up
        else Pll.down
      in
      let r = Hybrid.simulate ~dt:1e-3 sys ~mode0:m ~x0 ~t_max in
      List.iter (fun st -> if not (holds st) then sound := false) r.Hybrid.arc
    end
  done;
  !sound && !found > 0

(* ------------------------------------------------------------------ *)
(* Disturbance rejection                                               *)

type rejection = { level : float; d_max : float; stats : Certificates.stats }

(* Disturbed mode flow: the pump current picks up an additive d. *)
let disturbed_flow (s : Pll.scaled) pt m d =
  let f = Pll.flow s pt m in
  let pump_row = 1 in
  Array.mapi
    (fun i fi -> if i = pump_row then Poly.add fi (Poly.const s.Pll.nvars d) else fi)
    f

let check_retention mult_deg (s : Pll.scaled) ai d_max level =
  let pt = Pll.nominal s in
  let n = s.Pll.nvars in
  (* Retention failures steer the level scan — probe under the
     certificate's policy. *)
  let pol =
    Resilient.probe ai.Certificates.cert.Certificates.cfg.Certificates.resilience
  in
  let ok = ref true in
  for m = 0 to Pll.n_modes - 1 do
    if !ok then begin
      let v = ai.Certificates.cert.Certificates.vs.(m) in
      let boundary = Poly.sub v (Poly.const n level) in
      List.iter
        (fun d ->
          if !ok then begin
            let f = disturbed_flow s pt m d in
            let prob = Sos.create ~nvars:n in
            Sos.add_nonneg_on ~mult_deg prob ~equalities:[ boundary ]
              ~domain:(Pll.mode_domain s m)
              (Ppoly.neg (Ppoly.of_poly (Poly.lie_derivative v f)));
            let sol, _ =
              Resilient.solve_sos pol
                ~label:(Printf.sprintf "retention:%s" (Pll.mode_name m))
                prob
            in
            if not sol.Sos.certified then ok := false
          end)
        [ d_max; -.d_max ]
    end
  done;
  !ok

(* Certifiability is not monotone in the level: at small levels the
   disturbance dominates the shrinking decrease margin, at the maximal
   level the boundary grazes the domain faces. Scan a descending grid and
   return the largest certified level. *)
let level_grid = [ 1.0; 0.85; 0.7; 0.55; 0.4; 0.25; 0.15 ]

let lock_retention ?(mult_deg = 2) ?(bisect_steps = 0) (s : Pll.scaled) ai ~d_max =
  let t0 = Sys.time () in
  let beta = ai.Certificates.beta in
  let stats time_s =
    {
      Certificates.time_s;
      sdp_iterations = 0;
      n_constraints = 0;
      n_gram_blocks = 0;
      min_gram_eig = 0.0;
      max_residual = 0.0;
    }
  in
  let check level = check_retention mult_deg s ai d_max level in
  (* [failed_above] is the smallest grid fraction above [f] that failed;
     once a grid point certifies, bisect into that gap to recover level
     resolution the coarse grid loses. Certifiability is not monotone in
     the level, so every probe is itself verified — the result is always
     a certified level; bisection can only enlarge it. *)
  let rec scan failed_above = function
    | [] -> Error "no positive invariant level under this disturbance bound"
    | f :: rest ->
        if check (f *. beta) then begin
          let lo = ref f in
          (match failed_above with
          | Some p ->
              let hi = ref p in
              for _ = 1 to bisect_steps do
                let mid = 0.5 *. (!lo +. !hi) in
                if check (mid *. beta) then lo := mid else hi := mid
              done
          | None -> ());
          Ok { level = !lo *. beta; d_max; stats = stats (Sys.time () -. t0) }
        end
        else scan (Some f) rest
  in
  scan None level_grid

let max_rejected_disturbance ?(mult_deg = 2) ?(steps = 8) (s : Pll.scaled) ai =
  let beta = ai.Certificates.beta in
  let ok d =
    List.exists (fun f -> check_retention mult_deg s ai d (f *. beta)) [ 1.0; 0.7; 0.4 ]
  in
  if not (ok 1e-6) then 0.0
  else begin
    let lo = ref 1e-6 and hi = ref 1e-6 in
    while ok !hi && !hi < 1e3 do
      lo := !hi;
      hi := !hi *. 2.0
    done;
    for _ = 1 to steps do
      let mid = 0.5 *. (!lo +. !hi) in
      if ok mid then lo := mid else hi := mid
    done;
    !lo
  end
