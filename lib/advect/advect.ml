module Ppoly = Sos.Ppoly

let src = Logs.Src.create "advect" ~doc:"bounded advection of level sets"

module Log = (val Logs.src_log src : Logs.LOG)

type advection_map = Exact | Taylor

type config = {
  front_deg : int;
  h : float;
  rho : float;
  gamma_max : float;
  gamma_bisect : int;
  map : advection_map;
  check_truncation : bool;
  mult_deg : int;
  sdp_params : Sdp.params;
  resilience : Resilient.policy;
}

let default_config =
  {
    front_deg = 2;
    h = 0.25;
    rho = 0.15;
    gamma_max = 0.3;
    gamma_bisect = 5;
    map = Exact;
    check_truncation = true;
    mult_deg = 2;
    (* Auxiliary certification solves are numerous; cap the interior-point
       effort — the best-iterate fallback still returns certified
       solutions for the feasible cases well within this budget. *)
    sdp_params = { Sdp.default_params with Sdp.max_iter = 60 };
    (* Shared by every run using the default config; pipelines wanting an
       isolated journal/deadline should install their own policy (as
       Pll_core's inevitability pipeline does through [~resilience]). *)
    resilience = Resilient.default ();
  }

module Mat = Linalg.Mat

(* Extract (A, b) from an affine vector field; the PFD-mode flows of the
   CP PLL are affine by construction. *)
let affine_of_flow n flow =
  let a = Mat.create n n and b = Array.make n 0.0 in
  Array.iteri
    (fun i fi ->
      List.iter
        (fun (m, c) ->
          match Poly.Monomial.degree m with
          | 0 -> b.(i) <- b.(i) +. c
          | 1 ->
              let j = ref 0 in
              Array.iteri (fun k e -> if e = 1 then j := k) m;
              Mat.set a i !j (Mat.get a i !j +. c)
          | _ -> invalid_arg "Advect: flow is not affine")
        (Poly.terms fi))
    flow;
  (a, b)

(* The exact time-h flow map x ↦ Mx + c of an affine field, as one affine
   polynomial per coordinate (via the augmented matrix exponential). *)
let exact_flow_map n flow h =
  let a, b = affine_of_flow n flow in
  let aug = Mat.create (n + 1) (n + 1) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Mat.set aug i j (h *. Mat.get a i j)
    done;
    Mat.set aug i n (h *. b.(i))
  done;
  let e = Mat.expm aug in
  Array.init n (fun i ->
      let terms = ref [ (Poly.Monomial.one n, Mat.get e i n) ] in
      for j = 0 to n - 1 do
        terms := (Poly.Monomial.var n j, Mat.get e i j) :: !terms
      done;
      Poly.of_terms n !terms)

type step = { front : Poly.t; gamma : float; time_s : float }

let ellipsoid_front (s : Pll.scaled) ~radii =
  let n = s.Pll.nvars in
  if Array.length radii <> n then invalid_arg "Advect.ellipsoid_front: radii arity";
  Poly.sub
    (Poly.sum n
       (List.init n (fun i ->
            Poly.scale
              (1.0 /. (radii.(i) *. radii.(i)))
              (Poly.mul (Poly.var n i) (Poly.var n i)))))
    (Poly.one n)

(* ------------------------------------------------------------------ *)
(* Candidate-front synthesis: sample the current set per mode, push the
   samples through the mode flow maps, and fit a covering ellipsoid.
   The candidate is then *certified* by the Lemma-1 transport condition
   below — only the certification is trusted for soundness.            *)

(* Per-mode cap polynomials: reach(X2) provably satisfies V_q <= Vmax
   (Theorem 1 decrease), so advection only needs to track
   front ∩ {V_q <= Vmax}; without the cap the per-step covering operator
   has fat fixed points that never immerse into X1. *)
let caps_of ai vmax =
  Array.map (fun v -> Poly.sub (Poly.const (Poly.nvars v) vmax) v)
    ai.Certificates.cert.Certificates.vs

(* Half-widths of the verification region: |w_i| <= w_max, |θ| <= theta_max. *)
let region_bound (s : Pll.scaled) =
  Array.init s.Pll.nvars (fun i ->
      if i = Pll.theta_index s then s.Pll.theta_max else s.Pll.w_max)

(* Above this (Frobenius) condition number of q's quadratic form the
   rounding bound below no longer covers the computed centre and
   widths, and the box falls back to the whole region. *)
let max_condition = 1e8

(* Write q = xᵀAx + bᵀx + c₀ = (x−c)ᵀA(x−c) + q(c) with c = −½A⁻¹b.
   Over the box, the evaluator's value of q is within (terms + 2)·u·S of
   the exact one, where S sums each term's largest magnitude on the box,
   and q(c) is computed to within cond(A)·n·u·(|c₀| + |bᵀc|): both are
   below δ = 1e-6·(S + |bᵀc|) for cond(A) <= 1e8. So a point of the box
   where the evaluator reads q <= 0 has exact q <= δ, and
   {q <= δ} = {(x−c)ᵀA(x−c) <= δ − q(c)} spans c_i ± √((δ − q(c))·(A⁻¹)ᵢᵢ)
   on axis i. The relative 1e-6 widening (plus 1e-6·‖c‖∞) covers the
   rounding of A⁻¹ and c, about cond(A)·n·u ≈ 4e-8 relative. *)
let sublevel_box ~bound q =
  let n = Array.length bound in
  let lo = Array.map Float.neg bound and hi = Array.copy bound in
  (if Poly.nvars q = n && Poly.degree q = 2 then
     let a = Mat.create n n and b = Array.make n 0.0 and c0 = ref 0.0 and size = ref 0.0 in
     List.iter
       (fun (mono, c) ->
         let vars = ref [] and mag = ref (Float.abs c) in
         Array.iteri
           (fun i e ->
             for _ = 1 to e do
               vars := i :: !vars;
               mag := !mag *. bound.(i)
             done)
           mono;
         size := !size +. !mag;
         match !vars with
         | [] -> c0 := c
         | [ i ] -> b.(i) <- c
         | [ i; j ] when i = j -> Mat.set a i i c
         | [ i; j ] ->
             Mat.set a i j (0.5 *. c);
             Mat.set a j i (0.5 *. c)
         | _ -> assert false)
       (Poly.terms q);
     match Mat.cholesky a with
     | None -> ()
     | Some l ->
         let inv = Mat.chol_inverse l in
         if Mat.norm_fro a *. Mat.norm_fro inv <= max_condition then begin
           let centre = Array.map (fun v -> -0.5 *. v) (Mat.mul_vec inv b) in
           let btc = Linalg.Vec.dot b centre in
           let r2 = Float.max 0.0 ((1e-6 *. (!size +. Float.abs btc)) -. (!c0 +. (0.5 *. btc))) in
           let slack = 1e-6 *. Linalg.Vec.norm_inf centre in
           for i = 0 to n - 1 do
             let w = ((1.0 +. 1e-6) *. sqrt (r2 *. Mat.get inv i i)) +. slack in
             lo.(i) <- Float.max lo.(i) (centre.(i) -. w);
             hi.(i) <- Float.min hi.(i) (centre.(i) +. w)
           done
         end);
  (lo, hi)

(* Uniform draws in the box [lo, hi], each passed to [take] when
   [accept] holds, until [count] are taken or the attempts run out. The
   budget is [per_point·count] attempts scaled by the box's share of the
   region [−bound, bound]: what a draw over the whole region needs for
   the same expected number of taken points. Both functions see one
   reused buffer. *)
let draw_in_box rng ~bound (lo, hi) ~per_point count accept take =
  let n = Array.length bound in
  let share = ref 1.0 in
  for i = 0 to n - 1 do
    share := !share *. (Float.max 0.0 (hi.(i) -. lo.(i)) /. (2.0 *. bound.(i)))
  done;
  let budget = int_of_float (Float.ceil (float_of_int (per_point * count) *. !share)) in
  let x = Array.make n 0.0 in
  let found = ref 0 and attempts = ref 0 in
  while !found < count && !attempts < budget do
    incr attempts;
    for i = 0 to n - 1 do
      x.(i) <- lo.(i) +. Random.State.float rng (hi.(i) -. lo.(i))
    done;
    if accept x then begin
      incr found;
      take x
    end
  done

(* Rejection sampling of {q_cur <= 0} ∩ D_m ∩ {cap >= 0}, drawn from the
   part of the region box that can hold such a point: mode m's θ-slab
   and the box around {q_cur <= 0}. The law is that of drawing over the
   whole region with a 300-attempts-per-point budget, not the points. *)
let sample_piece ?caps (s : Pll.scaled) q_cur m rng count =
  let bound = region_bound s and t = Pll.theta_index s in
  let lo, hi = sublevel_box ~bound q_cur in
  let th_lo, th_hi = Pll.mode_theta_range s m in
  lo.(t) <- Float.max lo.(t) th_lo;
  hi.(t) <- Float.min hi.(t) th_hi;
  let q_cur = Poly.evaluator q_cur
  and cap = Option.map (fun c -> Poly.evaluator c.(m)) caps
  and domain = List.map Poly.evaluator (Pll.mode_domain s m) in
  let cap_ok x = match cap with None -> true | Some c -> c x >= 0.0 in
  let pts = ref [] in
  draw_in_box rng ~bound (lo, hi) ~per_point:300 count
    (fun x -> q_cur x <= 0.0 && List.for_all (fun g -> g x >= 0.0) domain && cap_ok x)
    (fun x -> pts := Array.copy x :: !pts);
  !pts

(* An ellipsoid (x-c)' P (x-c) <= 1 containing all points, built from the
   sample mean/covariance and inflated by [inflate]. *)
let covering_quadric n points inflate =
  let count = float_of_int (List.length points) in
  let mean =
    let acc = Array.make n 0.0 in
    List.iter (fun x -> Array.iteri (fun i v -> acc.(i) <- acc.(i) +. v) x) points;
    Array.map (fun v -> v /. count) acc
  in
  let cov = Mat.create n n in
  List.iter
    (fun x ->
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          Mat.set cov i j
            (Mat.get cov i j +. ((x.(i) -. mean.(i)) *. (x.(j) -. mean.(j)) /. count))
        done
      done)
    points;
  (* Regularize flat directions so the quadric stays bounded. *)
  let reg = 1e-4 *. (1.0 +. (Mat.trace cov /. float_of_int n)) in
  for i = 0 to n - 1 do
    Mat.set cov i i (Mat.get cov i i +. reg)
  done;
  let p = Mat.inverse cov in
  (* Radius: the largest Mahalanobis distance among the samples. *)
  let r2 =
    List.fold_left
      (fun acc x ->
        let d = Array.init n (fun i -> x.(i) -. mean.(i)) in
        Float.max acc (Linalg.Vec.dot d (Mat.mul_vec p d)))
      1e-9 points
  in
  let pm = Mat.scale (1.0 /. (r2 *. inflate)) (Mat.symmetrize p) in
  (* w(x) = (x-c)' Pm (x-c) - 1 *)
  let shifted = Poly.shift (Poly.quadratic_form pm) (Array.map (fun v -> -.v) mean) in
  Poly.sub shifted (Poly.one n)

(* Certify the transport condition for a *fixed* candidate front: for
   every mode m, w(Φ_m(x)) <= -gamma on {q_cur <= 0} ∩ D_m ∩ {Φ_m(x) ∈ Ω}.
   Fixed-data SOS feasibility problems — small and well conditioned. *)
let certify_transport ?caps cfg (s : Pll.scaled) pt q_cur front gamma =
  let n = s.Pll.nvars in
  let ok = ref true in
  for m = 0 to Pll.n_modes - 1 do
    if !ok then begin
      let f = Pll.flow s pt m in
      let map_polys = exact_flow_map n f cfg.h in
      let composed =
        match cfg.map with
        | Exact -> Poly.subst front map_polys
        | Taylor -> Poly.add front (Poly.scale cfg.h (Poly.lie_derivative front f))
      in
      let image_in_region =
        List.init n (fun i ->
            let b = (region_bound s).(i) in
            Poly.sub (Poly.const n (b *. b)) (Poly.mul map_polys.(i) map_polys.(i)))
      in
      let cap = match caps with None -> [] | Some c -> [ c.(m) ] in
      let prob = Sos.create ~nvars:n in
      Sos.add_nonneg_on ~mult_deg:cfg.mult_deg prob
        ~domain:(((Poly.neg q_cur :: cap) @ Pll.mode_domain s m) @ image_in_region)
        (Ppoly.of_poly (Poly.neg (Poly.add composed (Poly.const n gamma))));
      (* A failed transport check just sends the caller back for a fatter
         candidate — probe, not ladder. *)
      let sol, _ =
        Resilient.solve_sos
          (Resilient.probe cfg.resilience)
          ~label:(Printf.sprintf "transport:%s" (Pll.mode_name m))
          ~params:cfg.sdp_params prob
      in
      if not sol.Sos.certified then ok := false
    end
  done;
  !ok

(* The paper's pure-SOS front synthesis (unknown front solved inside one
   SOS program); retained as an alternative engine, used by tests. *)
let try_gamma cfg (s : Pll.scaled) pt q_cur gamma =
  let n = s.Pll.nvars in
  let prob = Sos.create ~nvars:n in
  let norm2 =
    Poly.sum n (List.init n (fun i -> Poly.mul (Poly.var n i) (Poly.var n i)))
  in
  (* The front must cut out a *compact* set containing the equilibrium —
     an unconstrained polynomial can satisfy transport/tightness with an
     unbounded sublevel set. Degree 2: w = (PSD quadratic) + ε|x|² +
     linear − 1, a genuine ellipsoid. Higher degrees: normalize
     w(0) = −1 and add the paper's star-shapedness condition
     ∇w·x ≥ ε|x|² on the verification box. *)
  let w =
    if cfg.front_deg <= 2 then begin
      let quad = Sos.fresh_sos prob ~deg:2 ~min_deg:2 in
      let lin =
        Sos.fresh_poly_basis prob (List.init n (fun i -> Poly.Monomial.var n i))
      in
      Ppoly.add
        (Ppoly.add quad (Ppoly.of_poly (Poly.scale 1e-3 norm2)))
        (Ppoly.sub lin (Ppoly.of_poly (Poly.one n)))
    end
    else begin
      let w = Sos.fresh_poly prob ~deg:cfg.front_deg in
      Sos.add_zero prob
        (Ppoly.add
           (Ppoly.of_terms n [ (Poly.Monomial.one n, Ppoly.coeff w (Poly.Monomial.one n)) ])
           (Ppoly.of_poly (Poly.one n)));
      let box =
        List.init n (fun i ->
            let b = (region_bound s).(i) in
            Poly.sub (Poly.const n (b *. b)) (Poly.mul (Poly.var n i) (Poly.var n i)))
      in
      (* ∇w · x *)
      let radial =
        let acc = ref (Ppoly.zero n) in
        for i = 0 to n - 1 do
          acc := Ppoly.add !acc (Ppoly.mul_poly (Poly.var n i) (Ppoly.partial i w))
        done;
        !acc
      in
      Sos.add_nonneg_on ~mult_deg:cfg.mult_deg prob ~domain:box
        (Ppoly.sub radial (Ppoly.of_poly (Poly.scale 1e-3 norm2)));
      w
    end
  in
  let gamma_p = Poly.const n gamma in
  for m = 0 to Pll.n_modes - 1 do
    let f = Pll.flow s pt m in
    let domain = Pll.mode_domain s m in
    (* Pull the unknown front back along the mode flow: exactly through
       the affine flow map, or by the paper's first-order Taylor
       transport (with its truncation constraints). *)
    let map_polys = exact_flow_map n f cfg.h in
    let pullback =
      match cfg.map with
      | Exact -> Ppoly.apply_poly_map map_polys w
      | Taylor -> Ppoly.add w (Ppoly.scale cfg.h (Ppoly.lie_derivative w f))
    in
    (* Both transport and tightness are restricted to points whose
       time-h image stays inside the verification region Ω (composed box
       constraints g∘Φ >= 0). This is sound provided the reach set of X2
       stays in Ω — which the X2 sizing guarantees and
       [validate_step_by_simulation] re-checks numerically. *)
    let image_in_region =
      List.init n (fun i ->
          let b = (region_bound s).(i) in
          Poly.sub (Poly.const n (b *. b)) (Poly.mul map_polys.(i) map_polys.(i)))
    in
    (* transport: old set flows into the new front with margin gamma *)
    Sos.add_nonneg_on ~mult_deg:cfg.mult_deg prob
      ~domain:((Poly.neg q_cur :: domain) @ image_in_region)
      (Ppoly.neg (Ppoly.add pullback (Ppoly.of_poly gamma_p)));
    (* tightness: beyond the rho-inflated old set, the pullback stays
       positive, so the new set cannot balloon. Fronts are normalized to
       w(0) = -1, so {q <= rho} is roughly a sqrt(1+rho) dilation of
       {q <= 0} — a uniform geometric inflation. *)
    Sos.add_nonneg_on ~mult_deg:cfg.mult_deg prob
      ~domain:((Poly.sub q_cur (Poly.const n cfg.rho) :: domain) @ image_in_region)
      (Ppoly.sub pullback (Ppoly.of_poly gamma_p));
    (if cfg.map = Taylor && cfg.check_truncation then begin
       (* |h²/2 · L²w| <= gamma on the mode domain *)
       let l2w = Ppoly.lie_derivative (Ppoly.lie_derivative w f) f in
       let half_h2 = cfg.h *. cfg.h /. 2.0 in
       Sos.add_nonneg_on ~mult_deg:cfg.mult_deg prob ~domain
         (Ppoly.sub (Ppoly.of_poly gamma_p) (Ppoly.scale half_h2 l2w));
       Sos.add_nonneg_on ~mult_deg:cfg.mult_deg prob ~domain
         (Ppoly.add (Ppoly.of_poly gamma_p) (Ppoly.scale half_h2 l2w))
     end)
  done;
  (* Among all feasible fronts, pick the tightest: maximize the average
     of w over the verification box, which shrinks {w <= 0} onto the
     transported image of the old set. *)
  let objective =
    List.fold_left
      (fun acc (mono, e) ->
        let moment = ref 1.0 in
        Array.iteri
          (fun i ei ->
            let b = (region_bound s).(i) in
            if ei mod 2 = 1 then moment := 0.0
            else
              (* normalized moment of x^ei over [-b, b] *)
              moment := !moment *. (Float.pow b (float_of_int ei) /. float_of_int (ei + 1)))
          mono;
        Sos.Lexpr.add acc (Sos.Lexpr.scale !moment e))
      Sos.Lexpr.zero (Ppoly.terms w)
  in
  Sos.maximize prob objective;
  (* Gamma probes steer a bisection — infeasibility is the answer. *)
  let sol, _ =
    Resilient.solve_sos
      (Resilient.probe cfg.resilience)
      ~label:(Printf.sprintf "gamma:%g" gamma)
      ~params:cfg.sdp_params prob
  in
  if sol.Sos.certified then Some (Poly.chop ~tol:1e-10 (Sos.value sol w)) else None

let advect_step_sos ?(config = default_config) (s : Pll.scaled) pt q_cur =
  let t0 = Unix.gettimeofday () in
  (* Larger gamma = larger certified soundness margin = harder program.
     Probe the small end first, then bisect upward for the largest
     feasible margin. *)
  let gamma_min = config.gamma_max /. Float.pow 2.0 (float_of_int config.gamma_bisect) in
  match try_gamma config s pt q_cur gamma_min with
  | None ->
      Error (Printf.sprintf "advection step infeasible even at gamma = %g" gamma_min)
  | Some w0 -> (
      match try_gamma config s pt q_cur config.gamma_max with
      | Some w ->
          Ok { front = w; gamma = config.gamma_max; time_s = Unix.gettimeofday () -. t0 }
      | None ->
          let best = ref (w0, gamma_min) in
          let lo = ref gamma_min and hi = ref config.gamma_max in
          for _ = 1 to config.gamma_bisect do
            let mid = 0.5 *. (!lo +. !hi) in
            match try_gamma config s pt q_cur mid with
            | Some w ->
                best := (w, mid);
                lo := mid
            | None -> hi := mid
          done;
          let front, gamma = !best in
          Ok { front; gamma; time_s = Unix.gettimeofday () -. t0 })

let advect_step ?(config = default_config) ?caps (s : Pll.scaled) pt q_cur =
  let t0 = Unix.gettimeofday () in
  let n = s.Pll.nvars in
  let rng = Random.State.make [| 97 |] in
  (* 1. Sample the current (capped) set per mode and push through the
     mode maps. *)
  let images = ref [] in
  for m = 0 to Pll.n_modes - 1 do
    let f = Pll.flow s pt m in
    let map_polys = exact_flow_map n f config.h in
    let map = Array.map Poly.evaluator map_polys in
    let pts = sample_piece ?caps s q_cur m rng 300 in
    List.iter (fun x -> images := Array.map (fun p -> p x) map :: !images) pts
  done;
  if List.length !images < n + 1 then
    Error "advection step: current front has (numerically) empty intersection with the domain"
  else begin
    (* 2. Fit a covering ellipsoid and certify; inflate on failure. *)
    let gamma = config.gamma_max /. Float.pow 2.0 (float_of_int config.gamma_bisect) in
    let rec attempt inflate tries =
      if tries = 0 then Error "advection step: candidate fronts failed certification"
      else begin
        let front = covering_quadric n !images inflate in
        if certify_transport ?caps config s pt q_cur front gamma then
          Ok { front; gamma; time_s = Unix.gettimeofday () -. t0 }
        else attempt (inflate *. 1.35) (tries - 1)
      end
    in
    attempt (1.0 +. config.rho) 4
  end

let contained_in_invariant ?(mult_deg = 2) ?caps ?(probe_iters = 60) (s : Pll.scaled) ai
    front =
  let n = s.Pll.nvars in
  let params = { Sdp.default_params with Sdp.max_iter = probe_iters } in
  (* Non-inclusion is the expected answer until the advection converges —
     probe under the certificate's policy (shared clock/faults). *)
  let pol = Resilient.probe ai.Certificates.cert.Certificates.cfg.Certificates.resilience in
  let check m =
    let v = ai.Certificates.cert.Certificates.vs.(m) in
    let cap = match caps with None -> [] | Some (c : Poly.t array) -> [ c.(m) ] in
    let prob = Sos.create ~nvars:n in
    Sos.add_nonneg_on ~mult_deg prob
      ~domain:((Poly.neg front :: cap) @ Pll.mode_domain s m)
      (Ppoly.of_poly (Poly.sub (Poly.const n ai.Certificates.beta) v));
    (fst
       (Resilient.solve_sos pol
          ~label:(Printf.sprintf "inclusion:%s" (Pll.mode_name m))
          ~params prob))
      .Sos.certified
  in
  (* Mode by mode, stopping at the first that fails: inclusion usually
     fails at the first mode until the advection converges. *)
  let rec from m = m >= Pll.n_modes || (check m && from (m + 1)) in
  from 0

let validate_step_by_simulation ?(samples = 200) ?(seed = 7) (s : Pll.scaled) pt ~h
    ~old_front front =
  let rng = Random.State.make [| seed |] in
  let sys = Pll.hybrid_system s pt in
  let bound = region_bound s in
  let box = sublevel_box ~bound old_front in
  let old_front = Poly.evaluator old_front and front = Poly.evaluator front in
  let ok = ref true and found = ref false in
  draw_in_box rng ~bound box ~per_point:100 samples
    (fun x -> old_front x <= 0.0)
    (fun x ->
      found := true;
      (* Integrate the true hybrid dynamics (including mode switches
         mid-step) from whichever mode's slab contains x. *)
      let th = x.(Pll.theta_index s) in
      let m =
        if Float.abs th <= s.Pll.theta_on then Pll.off
        else if th > 0.0 then Pll.up
        else Pll.down
      in
      let r = Hybrid.simulate ~dt:(h /. 50.0) sys ~mode0:m ~x0:x ~t_max:h in
      (* Allow a small numerical tolerance at the front boundary. *)
      if front r.Hybrid.final.Hybrid.state > 1e-6 then ok := false);
  !ok && !found

type run_result = {
  fronts : step list;
  iterations : int;
  converged : bool;
  escapes : (int * Poly.t) list;
  verified : bool;
  advect_time_s : float;
  inclusion_time_s : float;
  escape_time_s : float;
  total_time_s : float;
}

let run ?(config = default_config) ?(max_iter = 20) ?(escape_deg = 4) (s : Pll.scaled) ai
    ~init =
  (* Phase timings are wall-clock spans: a supervised solve runs in a
     worker process whose CPU time this process never sees. *)
  let now = Unix.gettimeofday in
  let t0 = now () in
  let pt = Pll.nominal s in
  let fronts = ref [] in
  let current = ref init in
  let converged = ref false in
  let iters = ref 0 in
  let advect_time = ref 0.0 and inclusion_time = ref 0.0 and escape_time = ref 0.0 in
  let timed acc f =
    let t = now () in
    let r = f () in
    acc := !acc +. (now () -. t);
    r
  in
  (* Certified cap: the reach tube of X2 stays within {V_q <= vmax}
     (Theorem-1 decrease), so every front only needs to track the capped
     set — without this the covering operator has fat fixed points. The
     cap is re-derived from each new front (monotone ratchet): reach at
     step k+1 lies in front_{k+1} ∩ {V <= vmax_k}, whose certified V-max
     is vmax_{k+1} <= vmax_k. *)
  let vmax = ref infinity in
  let caps = ref None in
  let refresh_cap front =
    let extra_domain =
      match !caps with None -> [] | Some c -> Array.to_list c
    in
    match
      timed inclusion_time (fun () ->
          Certificates.upper_bound_on_set ~extra_domain s ai.Certificates.cert ~set:front)
    with
    | Ok v when v < !vmax ->
        vmax := v;
        caps := Some (caps_of ai v)
    | Ok _ | Error _ -> ()
  in
  refresh_cap init;
  (match !caps with
  | Some _ -> Log.info (fun k -> k "reach-tube level cap: V <= %g" !vmax)
  | None -> Log.warn (fun k -> k "no certified level cap; advecting uncapped"));
  (try
     for i = 1 to max_iter do
       (* Out of budget: stop advecting and fall through to the escape
          certificates, which can still close the argument from the last
          certified front — graceful degradation instead of a hang. *)
       if Resilient.out_of_time config.resilience then begin
         Log.warn (fun k ->
             k "advection: pipeline deadline hit at iteration %d — degrading to escape \
                certificates from the current front"
               i);
         raise Exit
       end;
       if
         (* Opportunistic early-exit poll: a certified "yes" at a tight
            iteration budget is a full certificate, and a "no" only costs
            one more advection round — the decisive post-loop check below
            runs with the full budget. Failing probes otherwise burn the
            whole budget every round, dominating the loop's wall time. *)
         timed inclusion_time (fun () ->
             contained_in_invariant ?caps:!caps ~probe_iters:25 s ai !current)
       then begin
         converged := true;
         raise Exit
       end;
       match
         timed advect_time (fun () -> advect_step ~config ?caps:!caps s pt !current)
       with
       | Ok st ->
           Log.info (fun k ->
               k "advection iteration %d: gamma = %g, cap = %g (%.1fs)" i st.gamma !vmax
                 st.time_s);
           (* Fixed-point detection: if the front stopped moving, further
              iterations cannot change the outcome. *)
           let stalled =
             Poly.approx_equal ~tol:(1e-3 *. (1.0 +. Poly.max_coeff st.front)) st.front
               !current
           in
           fronts := st :: !fronts;
           current := st.front;
           iters := i;
           if i mod 3 = 0 then refresh_cap st.front;
           if stalled then begin
             Log.info (fun k -> k "advection reached a fixed point at iteration %d" i);
             raise Exit
           end
       | Error e ->
           Log.warn (fun k -> k "advection stalled at iteration %d: %s" i e);
           raise Exit
     done;
     if timed inclusion_time (fun () -> contained_in_invariant ?caps:!caps s ai !current)
     then converged := true
   with Exit -> ());
  let caps = !caps in
  let escapes = ref [] in
  let escapes_ok = ref true in
  if not !converged then begin
    (* Residual set per mode: {front <= 0} ∩ cap ∩ {V_q >= β} ∩ D_q. The
       escape certificate shows trajectories must leave it; since V_q
       decreases along flows, they can only leave into X1. *)
    let escape_for m =
      let v = ai.Certificates.cert.Certificates.vs.(m) in
      let n = s.Pll.nvars in
      let cap = match caps with None -> [] | Some c -> [ c.(m) ] in
      let domain =
        (Poly.neg !current :: cap)
        @ (Poly.sub v (Poly.const n ai.Certificates.beta) :: Pll.mode_domain s m)
      in
      (* The certificate V_q itself escapes the residual: away from the
         origin its decrease margin eps·|x|² is bounded below, so try the
         fixed candidate E = V_q at a ladder of rates before the generic
         search. *)
      let fixed_v_escape () =
        let rec try_eps = function
          | [] -> Error "fixed-V escape not certified"
          | eps :: rest ->
              if
                Certificates.check_escape ~eps ~policy:config.resilience ~nvars:n
                  ~flow:(Pll.flow s pt m) ~domain ~certificate:v ()
              then Ok (v, ())
              else try_eps rest
        in
        try_eps [ 1e-1; 1e-2; 1e-3 ]
      in
      match fixed_v_escape () with
      | Ok (e, ()) -> Some e
      | Error _ -> (
          match
            Certificates.find_escape ~deg:escape_deg ~policy:config.resilience
              ~nvars:n ~flow:(Pll.flow s pt m) ~domain ()
          with
          | Ok (e, _) -> Some e
          | Error _ -> None)
    in
    (* Per-mode escape searches are independent and return plain
       polynomials — fan out across the policy's worker pool. *)
    let results =
      timed escape_time (fun () ->
          Resilient.fan_out config.resilience
            ~f:(fun _ m -> escape_for m)
            (List.init Pll.n_modes Fun.id))
    in
    List.iteri
      (fun m r ->
        match r with
        | Ok (Some e) -> escapes := (m, e) :: !escapes
        | Ok None | Error _ -> escapes_ok := false)
      results
  end;
  {
    fronts = List.rev !fronts;
    iterations = !iters;
    converged = !converged;
    escapes = List.rev !escapes;
    verified = !converged || !escapes_ok;
    advect_time_s = !advect_time;
    inclusion_time_s = !inclusion_time;
    escape_time_s = !escape_time;
    total_time_s = now () -. t0;
  }
