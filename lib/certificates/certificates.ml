module Ppoly = Sos.Ppoly

let src = Logs.Src.create "certificates" ~doc:"Lyapunov / escape certificate search"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  degree : int;
  eps_pos : float;
  eps_decr : float;
  robust_vertices : bool;
  sdp_params : Sdp.params;
  psd_tol : float;
  eq_tol : float;
  resilience : Resilient.policy;
}

let default_config order =
  {
    degree = (match order with Pll.Third -> 6 | Pll.Fourth -> 4);
    eps_pos = 1e-2;
    eps_decr = 1e-3;
    robust_vertices = false;
    sdp_params = Sdp.default_params;
    psd_tol = 1e-7;
    eq_tol = 1e-5;
    resilience = Resilient.default ();
  }

type stats = {
  time_s : float;
  sdp_iterations : int;
  n_constraints : int;
  n_gram_blocks : int;
  min_gram_eig : float;
  max_residual : float;
}

type t = { vs : Poly.t array; cfg : config; solve_stats : stats }

let norm2_poly n =
  Poly.sum n (List.init n (fun i -> Poly.mul (Poly.var n i) (Poly.var n i)))

let stats_of prob (sol : Sos.solution) time_s =
  {
    time_s;
    sdp_iterations = sol.Sos.sdp.Sdp.iterations;
    n_constraints = Sos.n_equalities prob;
    n_gram_blocks = Sos.n_gram_blocks prob;
    min_gram_eig = sol.Sos.min_gram_eig;
    max_residual = sol.Sos.max_eq_residual;
  }

(* One certificate-search solve at the given margins, orchestrated by
   the config's resilience policy. The caller (the public
   [find_multi_lyapunov], defined after [validate_exactly]) decides what
   a Degraded outcome means. *)
let search_multi_lyapunov (cfg : config) (s : Pll.scaled) =
  let n = s.Pll.nvars in
  let t_start = Unix.gettimeofday () in
  let prob = Sos.create ~nvars:n in
  let vs = Array.init Pll.n_modes (fun _ -> Sos.fresh_poly prob ~deg:cfg.degree ~min_deg:2) in
  let nrm = norm2_poly n in
  let points =
    if cfg.robust_vertices then Pll.vertices s else [ Pll.nominal s ]
  in
  for m = 0 to Pll.n_modes - 1 do
    let domain = Pll.mode_domain s m in
    (* (a) positivity of V_m on its flow set *)
    Sos.add_nonneg_on prob ~domain
      (Ppoly.sub vs.(m) (Ppoly.of_poly (Poly.scale cfg.eps_pos nrm)));
    (* (b) decrease of V_m along the flow, for each coefficient point *)
    List.iter
      (fun pt ->
        let f = Pll.flow s pt m in
        Sos.add_nonneg_on prob ~domain
          (Ppoly.sub
             (Ppoly.neg (Ppoly.lie_derivative vs.(m) f))
             (Ppoly.of_poly (Poly.scale cfg.eps_decr nrm))))
      points
  done;
  (* (c) non-increase across each (identity-reset) switch. The jump
     surfaces are the hyperplanes θ = ±θ_on, so instead of a free
     equality multiplier we substitute θ and state the condition on the
     lower-dimensional slice — exact, and far better conditioned. *)
  let theta = Pll.theta_index s in
  List.iter
    (fun (src_m, dst_m, h, dir) ->
      (* Recover the surface value θ* from h = θ − θ* (h is monic in θ). *)
      let theta_star = -.Poly.eval h (Array.make n 0.0) in
      let restrict q = Poly.subst q (Array.init n (fun i -> if i = theta then Poly.const n theta_star else Poly.var n i)) in
      let box = List.map restrict (Pll.containment_constraints s src_m) in
      let dir = List.map restrict dir in
      Sos.add_nonneg_on prob ~domain:(dir @ box)
        (Ppoly.fix_var theta theta_star (Ppoly.sub vs.(src_m) vs.(dst_m))))
    (Pll.switching_surfaces s);
  Log.info (fun k ->
      k "multi-Lyapunov search: deg %d, %d equalities, %d gram blocks" cfg.degree
        (Sos.n_equalities prob) (Sos.n_gram_blocks prob));
  Log.info (fun k ->
      k "a posteriori tolerances: psd_tol %.2e, eq_tol %.2e" cfg.psd_tol cfg.eq_tol);
  let sol, diag =
    Resilient.solve_sos cfg.resilience ~label:"multi-lyapunov" ~params:cfg.sdp_params
      ~psd_tol:cfg.psd_tol ~eq_tol:cfg.eq_tol prob
  in
  let time_s = Unix.gettimeofday () -. t_start in
  let values () = Array.map (fun v -> Poly.chop ~tol:1e-9 (Sos.value sol v)) vs in
  let candidate () = { vs = values (); cfg; solve_stats = stats_of prob sol time_s } in
  (sol, diag, candidate)

(* ----- exact a-posteriori validation ----- *)

(* Re-prove one instantiated condition [target >= 0 on {g >= 0}] and hand
   the solver's Gram data to the exact kernel. The re-solve is a pure
   multiplier search (the certificate polynomials are fixed floats), so
   the SDP is small and linear; extraction relies on [add_nonneg_on]'s
   deterministic block order — one σ per domain polynomial, in order,
   then the main block. The domain is pre-normalized exactly as
   [add_nonneg_on] normalizes it, so the rational embeddings of the g's
   match the σ blocks they multiply. *)
let exact_condition ?mult_deg ?denom_bits ~policy ~label ~sdp_params ~nvars ~domain
    target_q =
  let normalize g =
    let c = Poly.max_coeff g in
    if c > 0.0 then Poly.scale (1.0 /. c) g else g
  in
  let domain = List.map normalize domain in
  let prob = Sos.create ~nvars in
  Sos.add_nonneg_on ?mult_deg prob ~domain (Ppoly.of_poly (Exact.Qpoly.to_poly target_q));
  (* Acceptance here is plain solver feasibility: soundness is
     established downstream by the exact kernel, so the ladder should
     not insist on the float Gram checks. *)
  let sol, _diag =
    Resilient.solve_sos policy ~label ~params:sdp_params
      ~accept:(fun (s : Sos.solution) -> s.Sos.feasible)
      prob
  in
  if not sol.Sos.feasible then Error "multiplier re-solve did not converge"
  else begin
    let bases = Sos.gram_bases prob in
    let grams = Array.of_list (Sos.gram_blocks sol) in
    let n_dom = List.length domain in
    if Array.length bases <> n_dom + 1 || Array.length grams <> n_dom + 1 then
      Error
        (Printf.sprintf "unexpected block structure: %d blocks for %d domain polynomials"
           (Array.length grams) n_dom)
    else begin
      let sigmas =
        List.mapi (fun i g -> (Exact.Qpoly.of_poly g, (bases.(i), grams.(i)))) domain
      in
      let main = (bases.(n_dom), grams.(n_dom)) in
      Ok (Exact.Check.certify_q ?denom_bits ~nvars ~target:target_q ~sigmas ~main ())
    end
  end

type exact_validation = {
  artifact : Exact.Artifact.t;
  verdicts : (string * Exact.Check.verdict) list;
  all_proven : bool;
  min_margin : Exact.Rat.t option;
  vs_exact : Exact.Qpoly.t array;
}

(* Stating condition (c) in both directions across a switching surface
   pins V_src − V_dst down hard: on the slice it must vanish wherever
   neither direction constraint is active, and — more finely — it must
   lie in the exact monomial span that the reduced Gram bases can
   generate. Float certificates miss these identities by solver noise
   (~1e-10), so no exact certificate exists for them exactly as
   returned: the kernel honestly reports the gap as an identity defect
   at the unreachable monomials. Repair adaptively: run the kernel,
   read the unabsorbable residual off the returned certificate (after
   {!Exact.Check.absorb} it contains exactly the part of the identity
   no Gram correction can reach), and fold it back into the
   non-reference mode's Lyapunov function, lifting each slice term
   [γ·m] off the slice as [γ/θ̂*ʲ · m·θʲ] with [j = max 0 (2 − deg m)]
   so the correction restricts to [γ·m] at [θ = θ̂*] while still
   vanishing quadratically at the origin (the repaired V must keep
   [V(0) = 0] and its positivity margin). Corrections stay at
   solver-noise scale, far below the (a)/(b) margins. Modes are
   anchored spanning-tree style so a surface between two
   already-anchored modes is never edited — a genuine gap there would
   be reported, not papered over. *)
let lift_slice_term theta theta_star ((m : Poly.Monomial.t), g) =
  let module R = Exact.Rat in
  let j = max 0 (2 - Poly.Monomial.degree m) in
  let m' = Array.copy m in
  m'.(theta) <- m'.(theta) + j;
  let g = ref g in
  for _ = 1 to j do
    g := R.div !g theta_star
  done;
  (m', !g)

let validate_exactly ?mult_deg ?denom_bits ?(slack = 0.5) (s : Pll.scaled) cert =
  let module Q = Exact.Qpoly in
  let module R = Exact.Rat in
  let n = s.Pll.nvars in
  let nrm_q = Q.of_poly (norm2_poly n) in
  (* Exact dyadic embeddings of the float certificate polynomials; the
     proven statement is about these (repaired) rational polynomials. *)
  let vq = Array.map Q.of_poly cert.vs in
  let theta = Pll.theta_index s in
  (* (c) non-increase across switches, stated on the θ = θ* slice as in
     the search — the substitution is done in exact arithmetic. Built
     lazily because the adaptive repair below edits [vq]. *)
  let switch_cond (src_m, dst_m, h, dir) =
    let theta_star = -.Poly.eval h (Array.make n 0.0) in
    let restrict q =
      Poly.subst q
        (Array.init n (fun i ->
             if i = theta then Poly.const n theta_star else Poly.var n i))
    in
    let box = List.map restrict (Pll.containment_constraints s src_m) in
    let dir = List.map restrict dir in
    ( Printf.sprintf "switch-%s-to-%s" (Pll.mode_name src_m) (Pll.mode_name dst_m),
      dir @ box,
      theta_star,
      Q.fix_var theta (R.of_float theta_star) (Q.sub vq.(src_m) vq.(dst_m)) )
  in
  (* Adaptive switch repair: see [lift_slice_term]. *)
  let anchored = Array.make Pll.n_modes false in
  List.iter
    (fun ((src_m, dst_m, _, _) as surf) ->
      let repaired =
        if anchored.(src_m) && anchored.(dst_m) then None
        else if anchored.(dst_m) then begin
          anchored.(src_m) <- true;
          Some src_m
        end
        else begin
          anchored.(src_m) <- true;
          anchored.(dst_m) <- true;
          Some dst_m
        end
      in
      match repaired with
      | None -> ()
      | Some b ->
          let rec go round =
            if round < 3 then begin
              let name, domain, theta_star, target = switch_cond surf in
              if theta_star <> 0.0 then
                match
                  exact_condition ?mult_deg ?denom_bits ~policy:cert.cfg.resilience
                    ~label:("repair:" ^ name) ~sdp_params:cert.cfg.sdp_params ~nvars:n
                    ~domain target
                with
                | Ok (c, Exact.Check.Identity_defect _) ->
                    let ts = R.of_float theta_star in
                    let terms =
                      List.filter
                        (fun ((m : Poly.Monomial.t), _) -> m.(theta) = 0)
                        (Q.terms (Exact.Check.residual c))
                    in
                    if terms <> [] then begin
                      let lift =
                        Q.of_terms n (List.map (lift_slice_term theta ts) terms)
                      in
                      Log.info (fun k ->
                          k "switch repair (%s, round %d): folding %d unabsorbable \
                             residual term(s) into V_%s"
                            name round (List.length terms) (Pll.mode_name b));
                      vq.(b) <-
                        (if b = dst_m then Q.add vq.(b) lift else Q.sub vq.(b) lift);
                      go (round + 1)
                    end
                | _ -> ()
            end
          in
          go 0)
    (Pll.switching_surfaces s);
  let conds = ref [] in
  let points =
    if cert.cfg.robust_vertices then Pll.vertices s else [ Pll.nominal s ]
  in
  for m = 0 to Pll.n_modes - 1 do
    let domain = Pll.mode_domain s m in
    (* (a) positivity, at a fraction [slack] of the searched-for margin:
       the re-solve needs strictly feasible multipliers to survive
       rounding, so we certify V >= slack·eps_pos·‖x‖² instead of the
       full margin. *)
    conds :=
      ( Printf.sprintf "%s-positivity" (Pll.mode_name m),
        domain,
        Q.sub vq.(m) (Q.scale (R.of_float (slack *. cert.cfg.eps_pos)) nrm_q) )
      :: !conds;
    (* (b) decrease along the flow *)
    List.iteri
      (fun k pt ->
        let f = Array.map Q.of_poly (Pll.flow s pt m) in
        let name =
          if List.length points = 1 then Printf.sprintf "%s-decrease" (Pll.mode_name m)
          else Printf.sprintf "%s-decrease-v%d" (Pll.mode_name m) k
        in
        conds :=
          ( name,
            domain,
            Q.sub
              (Q.neg (Q.lie_derivative vq.(m) f))
              (Q.scale (R.of_float (slack *. cert.cfg.eps_decr)) nrm_q) )
          :: !conds)
      points
  done;
  List.iter
    (fun surf ->
      let name, domain, _, target = switch_cond surf in
      conds := (name, domain, target) :: !conds)
    (Pll.switching_surfaces s);
  let conds = List.rev !conds in
  let check (name, domain, target) =
    match
      exact_condition ?mult_deg ?denom_bits ~policy:cert.cfg.resilience
        ~label:("exact:" ^ name) ~sdp_params:cert.cfg.sdp_params ~nvars:n ~domain
        target
    with
    | Error e -> Error (name ^ ": " ^ e)
    | Ok (c, v) -> Ok (name, c, v)
  in
  (* The conditions are independent, and a condition's result — rational
     certificate plus verdict — is plain data, so the checks fan out
     across the policy's worker pool; their solves and diagnoses are
     counted in the policy. *)
  let checked =
    List.map
      (function Ok r -> r | Error e -> Error ("exact-check worker: " ^ e))
      (Resilient.fan_out cert.cfg.resilience ~f:(fun _ cond -> check cond) conds)
  in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | Error e :: _ -> Error e
    | Ok ((name, _, v) as r) :: rest ->
        Log.info (fun k -> k "exact check %-22s %s" name (Exact.Check.verdict_to_string v));
        collect (r :: acc) rest
  in
  match collect [] checked with
  | Error _ as e -> e
  | Ok results ->
      let artifact =
        Exact.Artifact.create
          ~meta:
            [
              ("system", match s.Pll.order with Pll.Third -> "third-order" | Pll.Fourth -> "fourth-order");
              ("degree", string_of_int cert.cfg.degree);
              ("slack", string_of_float slack);
            ]
          (List.map (fun (name, c, _) -> (name, c)) results)
      in
      let verdicts = List.map (fun (name, _, v) -> (name, v)) results in
      let margins =
        List.filter_map
          (fun (_, v) -> match v with Exact.Check.Proven { margin } -> Some margin | _ -> None)
          verdicts
      in
      let all_proven = List.length margins = List.length verdicts in
      let min_margin =
        match margins with
        | hd :: tl when all_proven -> Some (List.fold_left Exact.Rat.min hd tl)
        | _ -> None
      in
      Ok { artifact; verdicts; all_proven; min_margin; vs_exact = vq }

(* The public certificate search, defined after [validate_exactly] so a
   Degraded float solve can be gated on the exact kernel re-proving it.
   When the resilience policy allows retries, a failed (or rejected
   degraded) search is re-run with the positivity/decrease margins
   scaled down — a certificate with smaller strict margins is still a
   sound certificate, just a weaker time-to-lock bound. The returned
   [t.cfg] records the margins actually certified. *)
let find_multi_lyapunov ?config (s : Pll.scaled) =
  let cfg = match config with Some c -> c | None -> default_config s.Pll.order in
  let fracs =
    if cfg.resilience.Resilient.retries_enabled then [ 1.0; 0.5; 0.25 ] else [ 1.0 ]
  in
  let describe (diag : Resilient.diagnosis) =
    Printf.sprintf
      "multi-Lyapunov SOS program failed — try a higher degree; diagnosis: %s"
      (Substrate.Json.to_string (Resilient.diagnosis_to_json diag))
  in
  let rec go last_err = function
    | [] -> (
        match last_err with
        | Some e -> Error e
        | None -> Error "multi-Lyapunov search: empty margin schedule")
    | frac :: rest -> (
        let cfg_f =
          if frac = 1.0 then cfg
          else { cfg with eps_pos = cfg.eps_pos *. frac; eps_decr = cfg.eps_decr *. frac }
        in
        if frac < 1.0 then
          Log.warn (fun k ->
              k "multi-Lyapunov: retrying with margins scaled by %g (eps_pos %.2e, \
                 eps_decr %.2e)"
                frac cfg_f.eps_pos cfg_f.eps_decr);
        let _sol, diag, candidate = search_multi_lyapunov cfg_f s in
        match diag.Resilient.outcome with
        | Resilient.Certified -> Ok (candidate ())
        | Resilient.Degraded -> (
            let cand = candidate () in
            Log.warn (fun k ->
                k "multi-Lyapunov: degraded float solve — gating acceptance on exact \
                   validation");
            match validate_exactly s cand with
            | Ok v ->
                Option.iter
                  (fun path -> Log.info (fun k -> k "exact proof artifact persisted to %s" path))
                  (Supervise.save_artifact (Resilient.supervisor cfg.resilience)
                     ~name:"exact-validation.artifact" (Exact.Artifact.write v.artifact));
                if v.all_proven then begin
                  Log.warn (fun k ->
                      k "multi-Lyapunov: degraded solve ACCEPTED — exact kernel re-proved \
                         all %d conditions"
                        (List.length v.verdicts));
                  Ok cand
                end
                else go (Some (describe diag)) rest
            | Error _ -> go (Some (describe diag)) rest)
        | Resilient.Failed -> go (Some (describe diag)) rest)
  in
  go None fracs

(* The Lemma-1 level check, one containment program at a time: mode [m]'s
   slice [{V_m <= beta} ∩ slab_m] must keep a strict margin inside
   containment constraint [g]. The programs, in mode-major order: *)
let level_programs (s : Pll.scaled) =
  Array.concat
    (List.init Pll.n_modes (fun m ->
         Array.of_list (List.map (fun g -> (m, g)) (Pll.containment_constraints s m))))

let level_margin = 1e-3

(* [lowest] keeps the smallest value, ties going to the smaller program
   index. *)
let keep_lowest lowest v p =
  match !lowest with
  | Some (w, q) when not (v < w || (v = w && p < q)) -> ()
  | _ -> lowest := Some (v, p)

(* Witness search: a point of D_m in the band [0 <= g < level_margin]
   refutes program [(m, g)] at every level at or above its [V_m], with
   no solve. Each face ([w_max² − w_i²], [theta_max ∓ θ]) is monotone
   along every ray from the origin, so a ray meets its band at most once,
   and bisecting [t] on [g(t·d) >= level_margin] lands on the band's
   inner edge, its point nearest the origin on that ray, where a [V_m]
   growing outward is lowest. Per program, the best of
   [witness_rays] fixed-seed directions starts a compass search over the
   direction (each coordinate ± a step, the step halved when no move
   improves, [witness_probes] rays at most). All evaluators are staged
   once and every ray reuses the same buffers. *)
let witness_rays = 100
let witness_halvings = 30
let witness_probes = 300

let level_witnesses (s : Pll.scaled) cert =
  let n = s.Pll.nvars in
  let bound =
    Array.init n (fun i -> if i = Pll.theta_index s then s.Pll.theta_max else s.Pll.w_max)
  in
  let rng = Random.State.make [| 37 |] in
  let rays =
    Array.init (witness_rays * n) (fun k -> (Random.State.float rng 2.0 -. 1.0) *. bound.(k mod n))
  in
  let vs = Array.map Poly.evaluator cert.vs
  and domains =
    Array.init Pll.n_modes (fun m -> Array.of_list (List.map Poly.evaluator (Pll.mode_domain s m)))
  in
  let x = Array.make n 0.0 and dir = Array.make n 0.0 and trial = Array.make n 0.0 in
  let place d t =
    for i = 0 to n - 1 do
      x.(i) <- t *. d.(i)
    done
  in
  let search p (m, g) =
    let v = vs.(m) and domain = domains.(m) and g = Poly.evaluator g in
    let rec inside k = k = Array.length domain || (domain.(k) x >= 0.0 && inside (k + 1)) in
    (* [V_m] at the band's inner edge on the ray along [d], left in [x];
       nan when that point is no witness. *)
    let probe d =
      let reach = ref 0.0 in
      for i = 0 to n - 1 do
        reach := Float.max !reach (Float.abs d.(i) /. bound.(i))
      done;
      let lo = ref 0.0 and hi = ref (1.0 /. !reach) in
      place d !hi;
      if not (!reach > 0.0 && g x < level_margin) then Float.nan
      else begin
        for _ = 1 to witness_halvings do
          let mid = 0.5 *. (!lo +. !hi) in
          place d mid;
          if g x >= level_margin then lo := mid else hi := mid
        done;
        place d !hi;
        if g x >= 0.0 && inside 0 then v x else Float.nan
      end
    in
    let best = ref Float.infinity and point = Array.make n 0.0 in
    let improves d =
      let w = probe d in
      w < !best
      && begin
           best := w;
           Array.blit x 0 point 0 n;
           Array.blit d 0 dir 0 n;
           true
         end
    in
    for r = 0 to witness_rays - 1 do
      Array.blit rays (r * n) trial 0 n;
      ignore (improves trial)
    done;
    if !best = Float.infinity then None
    else begin
      let step = ref 0.1 and probes = ref 0 in
      while !probes < witness_probes do
        let moved = ref false in
        for i = 0 to (2 * n) - 1 do
          Array.blit dir 0 trial 0 n;
          let c = i / 2 in
          trial.(c) <- dir.(c) +. (if i land 1 = 0 then !step else -. !step) *. bound.(c);
          incr probes;
          if improves trial then moved := true
        done;
        if not !moved then step := 0.5 *. !step
      done;
      Some (p, !best, point)
    end
  in
  List.filter_map Fun.id (Array.to_list (Array.mapi search (level_programs s)))

(* Cheap numeric prefilter: a counterexample refutes the level without
   touching the SDP. The witnesses of {!level_witnesses} are searched
   once per [check_level] or [maximize_level] call; the prefilter keeps
   the smallest [V_m] with the first program (by index) refuted at that
   value, [None] when no program has a witness. *)
let lowest_witness (s : Pll.scaled) cert =
  let lowest = ref None in
  List.iter (fun (p, w, _) -> keep_lowest lowest w p) (level_witnesses s cert);
  !lowest

(* The prefilter's verdict on [beta]: no witness refutes it. *)
let witness_check lowest beta = match lowest with None -> true | Some (v, _) -> not (v <= beta)

let level_prefilter s cert = witness_check (lowest_witness s cert)

(* One Lemma-1 program, solved under [pol]. *)
let level_program ~mult_deg pol (s : Pll.scaled) cert (m, g) beta =
  let v = cert.vs.(m) in
  let n = Poly.nvars v in
  let sublevel = Poly.sub (Poly.const n beta) v (* >= 0 inside *) in
  let prob = Sos.create ~nvars:n in
  let target = Ppoly.of_poly (Poly.sub g (Poly.const n level_margin)) in
  Sos.add_nonneg_on ~mult_deg prob ~domain:(sublevel :: Pll.mode_domain s m) target;
  let sol, _ =
    Resilient.solve_sos pol ~label:(Printf.sprintf "level:%s" (Pll.mode_name m)) prob
  in
  sol.Sos.certified

(* A failed level check is an expected answer that steers the
   bisection, not an error: probe policy (no retries, quiet), but
   sharing the pipeline clock and fault plan. *)
let level_policy cert = Resilient.probe cert.cfg.resilience

let check_level ?(mult_deg = 2) (s : Pll.scaled) cert beta =
  let pol = level_policy cert in
  (not (Resilient.out_of_time pol))
  && level_prefilter s cert beta
  && Array.for_all (fun p -> level_program ~mult_deg pol s cert p beta) (level_programs s)

(* Bisection over [check_level] that solves, at each midpoint, only the
   prefilter and the {e active} programs — those that have failed
   somewhere — and then confirms the final level against every program.
   Each Lemma-1 program is monotone in β (a certificate at β is one at
   any β' < β: add s₀·(β − β')), so a program that fails at a midpoint
   the active set passed also fails at the final level; the confirmation
   then activates it and the bisection is replayed from the start, the
   memo making every step already solved free. The active set only
   grows, so this ends, on the path and β of the plain bisection.
   The active set starts with the program whose witness reaches the
   smallest [V_m] (ties by index): the lowest face is likely the
   binding one. It is picked with the prefilter, in
   the first check the deadline lets through. A midpoint at or above
   the lowest witness fails the prefilter, so it never reaches a solve.
   Under a pipeline deadline, until some level has passed every program
   (the floor), a check runs them all, active ones first, so a deadline
   hit past the floor leaves a level certified by every program to
   degrade to. Without a deadline the walk always finishes, so the floor
   is never read and not bought. *)
let maximize_level ?(bisect_steps = 20) ?(beta_hi = 2000.0) (s : Pll.scaled) cert =
  let t_start = Unix.gettimeofday () in
  let pol = level_policy cert in
  let programs = level_programs s in
  let memo = Hashtbl.create 64 in
  let indices = List.init (Array.length programs) Fun.id in
  let lowest = lazy (lowest_witness s cert) in
  let passes beta i =
    match Hashtbl.find_opt memo (i, beta) with
    | Some r -> r
    | None ->
        let r = level_program ~mult_deg:2 pol s cert programs.(i) beta in
        Hashtbl.add memo (i, beta) r;
        r
  in
  (* Active programs in the order they were activated, so a replayed
     step reaches the program that failed it before any activated
     later; the prefilter's lowest one until then. *)
  let active = ref [] in
  let active_programs () =
    if !active = [] then
      active := [ (match Lazy.force lowest with Some (_, p) -> p | None -> 0) ];
    !active
  in
  (* Every program, active ones first, then in index (mode-major)
     order; the first one failing at [beta] is activated. *)
  let all_pass beta =
    let act = active_programs () in
    let rest = List.filter (fun i -> not (List.mem i act)) indices in
    match List.find_opt (fun i -> not (passes beta i)) (act @ rest) with
    | Some i ->
        if not (List.mem i act) then active := act @ [ i ];
        false
    | None -> true
  in
  (* The floor: the level every program passed at; [0.] until one has.
     Bought only under a deadline. *)
  let buy_floor = pol.Resilient.pipeline_deadline_s <> None in
  let certified = ref 0.0 in
  let check beta =
    (not (Resilient.out_of_time pol))
    && witness_check (Lazy.force lowest) beta
    &&
    if buy_floor && !certified = 0.0 then begin
      let ok = all_pass beta in
      if ok then certified := beta;
      ok
    end
    else List.for_all (passes beta) (active_programs ())
  in
  (* One walk of the bisection; [None] when the pipeline deadline
     stopped it. *)
  let bisect () =
    let lo = ref 0.0 and hi = ref beta_hi in
    let stopped = ref false in
    if check !hi then lo := !hi
    else begin
      let step = ref 0 in
      while !step < bisect_steps && not !stopped do
        incr step;
        if Resilient.out_of_time pol then stopped := true
        else begin
          let mid = 0.5 *. (!lo +. !hi) in
          if check mid then lo := mid else hi := mid
        end
      done
    end;
    if !stopped then None else Some !lo
  in
  let rec settle () =
    match bisect () with
    | None ->
        (* A stuck/over-budget bisection degrades gracefully: the largest
           level every program certified — a smaller but still sound
           attractive invariant. *)
        Log.warn (fun k ->
            k "level bisection: pipeline deadline hit — degrading to certified β = %g"
              !certified);
        !certified
    | Some lo when lo = 0.0 -> 0.0
    | Some lo -> if all_pass lo then lo else settle ()
  in
  let beta = settle () in
  ( beta,
    {
      time_s = Unix.gettimeofday () -. t_start;
      sdp_iterations = 0;
      n_constraints = 0;
      n_gram_blocks = 0;
      min_gram_eig = 0.0;
      max_residual = 0.0;
    } )

type attractive_invariant = { cert : t; beta : float; level_stats : stats }

let attractive_invariant ?config ?bisect_steps (s : Pll.scaled) =
  match find_multi_lyapunov ?config s with
  | Error e -> Error e
  | Ok cert ->
      let beta, level_stats = maximize_level ?bisect_steps s cert in
      if beta <= 0.0 then Error "level maximization failed: no positive certified level"
      else Ok { cert; beta; level_stats }

(* The slabs and certificates are staged once, so a partial application
   [member s ai] tests many points at staged cost. *)
let member (s : Pll.scaled) ai =
  let domains = Array.init Pll.n_modes (fun m -> List.map Poly.evaluator (Pll.mode_domain s m))
  and vs = Array.map Poly.evaluator ai.cert.vs in
  fun x ->
    let ok = ref false in
    for m = 0 to Pll.n_modes - 1 do
      if List.for_all (fun g -> g x >= 0.0) domains.(m) && vs.(m) x <= ai.beta then ok := true
    done;
    !ok

let upper_bound_on_set ?(extra_domain = []) (s : Pll.scaled) cert ~set =
  let n = s.Pll.nvars in
  let bound = ref 0.0 in
  let failed = ref None in
  let pol = cert.cfg.resilience in
  for m = 0 to Pll.n_modes - 1 do
    if !failed = None then begin
      let domain = (Poly.neg set :: extra_domain) @ Pll.mode_domain s m in
      (* When the set misses this mode's domain entirely, the bound over
         it is vacuous — certified by an SOS emptiness certificate
         (−1 >= 0 on the region is provable iff the region is empty). *)
      let budget = { Sdp.default_params with Sdp.max_iter = 60 } in
      let empty =
        (* Emptiness failing just means the region is non-empty — probe. *)
        let prob = Sos.create ~nvars:n in
        Sos.add_nonneg_on ~mult_deg:2 prob ~domain
          (Ppoly.of_poly (Poly.const n (-1.0)));
        (fst
           (Resilient.solve_sos (Resilient.probe pol)
              ~label:(Printf.sprintf "bound-empty:%s" (Pll.mode_name m))
              ~params:budget prob))
          .Sos.certified
      in
      if not empty then begin
        let prob = Sos.create ~nvars:n in
        let u = Sos.fresh_free prob in
        (* u - V_m >= 0 on {set <= 0} ∩ C_m (∩ extra_domain) *)
        Sos.add_nonneg_on ~mult_deg:2 prob ~domain
          (Ppoly.sub (Ppoly.scale_expr u (Poly.one n)) (Ppoly.of_poly cert.vs.(m)));
        Sos.maximize prob (Sos.Lexpr.neg u);
        (* An uncertified bound aborts the advection pipeline — full
           retry ladder. *)
        let sol, _ =
          Resilient.solve_sos pol
            ~label:(Printf.sprintf "bound:%s" (Pll.mode_name m))
            ~params:budget prob
        in
        if sol.Sos.certified then begin
          let v = Sos.Lexpr.eval sol.Sos.assign u in
          if v > !bound then bound := v
        end
        else failed := Some m
      end
    end
  done;
  match !failed with
  | Some m -> Error (Printf.sprintf "upper_bound_on_set: mode %d bound not certified" m)
  | None -> Ok (!bound *. 1.001)

let time_to_lock_bound ?(samples = 200) (s : Pll.scaled) ai ~from_level =
  let beta = ai.beta in
  if from_level <= beta then 0.0
  else begin
    let eps = ai.cert.cfg.eps_decr in
    let n = s.Pll.nvars in
    (* Smallest ‖x‖ on the boundary {V_q = β} over all modes: sample ray
       directions, bisect the radius where the active certificate
       crosses β. *)
    let rng = Random.State.make [| 17 |] in
    let vs = Array.map Poly.evaluator ai.cert.vs in
    let r_min = ref infinity in
    for _ = 1 to samples do
      let dir = Array.init n (fun _ -> Random.State.float rng 2.0 -. 1.0) in
      let nrm = sqrt (Array.fold_left (fun a v -> a +. (v *. v)) 0.0 dir) in
      if nrm > 1e-9 then begin
        let dir = Array.map (fun v -> v /. nrm) dir in
        let active_v r =
          let x = Array.map (fun d -> r *. d) dir in
          let th = x.(Pll.theta_index s) in
          let m =
            if Float.abs th <= s.Pll.theta_on then Pll.off
            else if th > 0.0 then Pll.up
            else Pll.down
          in
          vs.(m) x
        in
        let r_hi = 2.0 *. Float.max s.Pll.w_max s.Pll.theta_max in
        if active_v r_hi >= beta then begin
          let lo = ref 0.0 and hi = ref r_hi in
          for _ = 1 to 50 do
            let mid = 0.5 *. (!lo +. !hi) in
            if active_v mid < beta then lo := mid else hi := mid
          done;
          if !lo < !r_min then r_min := !lo
        end
      end
    done;
    if !r_min = infinity || !r_min <= 0.0 then infinity
    else (from_level -. beta) /. (eps *. !r_min *. !r_min)
  end

let check_escape ?(mult_deg = 2) ?(eps = 1e-2) ?(policy = Resilient.default ()) ~nvars ~flow
    ~domain ~certificate () =
  let prob = Sos.create ~nvars in
  Sos.add_nonneg_on ~mult_deg prob ~domain
    (Ppoly.of_poly
       (Poly.sub
          (Poly.neg (Poly.lie_derivative certificate flow))
          (Poly.const nvars eps)));
  let params = { Sdp.default_params with Sdp.max_iter = 60 } in
  (* Failure falls back to the escape search — probe. *)
  (fst (Resilient.solve_sos (Resilient.probe policy) ~label:"escape-check" ~params prob))
    .Sos.certified

let find_escape ?(deg = 4) ?(eps = 1e-2) ?sdp_params
    ?(policy = Resilient.probe (Resilient.default ())) ~nvars ~flow ~domain () =
  let t_start = Unix.gettimeofday () in
  let prob = Sos.create ~nvars in
  let e = Sos.fresh_poly prob ~deg ~min_deg:1 in
  (* -dE/dt - eps >= 0 on the domain *)
  Sos.add_nonneg_on prob ~domain
    (Ppoly.sub
       (Ppoly.neg (Ppoly.lie_derivative e flow))
       (Ppoly.of_poly (Poly.const nvars eps)));
  (* No escape certificate stalls the advection loop — ladder. *)
  let sol = fst (Resilient.solve_sos policy ~label:"escape-search" ?params:sdp_params prob) in
  let time_s = Unix.gettimeofday () -. t_start in
  if sol.Sos.certified then Ok (Poly.chop ~tol:1e-9 (Sos.value sol e), stats_of prob sol time_s)
  else Error "no escape certificate at this degree"

let validate_by_simulation ?(trials = 50) ?(t_max = 120.0) ?(seed = 42) (s : Pll.scaled) ai =
  let rng = Random.State.make [| seed |] in
  let n = s.Pll.nvars in
  let sys = Pll.hybrid_system s (Pll.nominal s) in
  let inside = member s ai and vs = Array.map Poly.evaluator ai.cert.vs in
  let sound = ref true in
  let found = ref 0 in
  let attempts = ref 0 in
  while !found < trials && !attempts < trials * 200 do
    incr attempts;
    let x0 =
      Array.init n (fun i ->
          let bound = if i = Pll.theta_index s then s.Pll.theta_max else s.Pll.w_max in
          (Random.State.float rng 2.0 -. 1.0) *. bound)
    in
    (* Pick the mode whose slab contains x0. *)
    let th = x0.(Pll.theta_index s) in
    let m =
      if Float.abs th <= s.Pll.theta_on then Pll.off
      else if th > 0.0 then Pll.up
      else Pll.down
    in
    if inside x0 then begin
      incr found;
      let r = Hybrid.simulate ~dt:1e-3 sys ~mode0:m ~x0 ~t_max in
      if r.Hybrid.blocked then sound := false;
      if not (Pll.in_lock ~tol:0.05 s r.Hybrid.final.Hybrid.state) then sound := false;
      (* The active certificate must be non-increasing along the arc
         (up to integration tolerance). *)
      let prev = ref infinity in
      List.iter
        (fun (st : Hybrid.step) ->
          let v = vs.(st.Hybrid.mode_at) st.Hybrid.state in
          if v > !prev +. 1e-6 then sound := false;
          prev := v)
        r.Hybrid.arc
    end
  done;
  !sound && !found > 0

let invariant_boundary (s : Pll.scaled) ai ~plane:(i, j) ~n =
  let nvars = s.Pll.nvars in
  let r_max = 2.0 *. Float.max s.Pll.w_max s.Pll.theta_max in
  let member = member s ai in
  let pts = ref [] in
  for k = 0 to n - 1 do
    let angle = 2.0 *. Float.pi *. float_of_int k /. float_of_int n in
    let dir_i = cos angle and dir_j = sin angle in
    let at r =
      let x = Array.make nvars 0.0 in
      x.(i) <- r *. dir_i;
      x.(j) <- r *. dir_j;
      x
    in
    if member (at 0.0) && not (member (at r_max)) then begin
      let lo = ref 0.0 and hi = ref r_max in
      for _ = 1 to 50 do
        let mid = 0.5 *. (!lo +. !hi) in
        if member (at mid) then lo := mid else hi := mid
      done;
      pts := (!lo *. dir_i, !lo *. dir_j) :: !pts
    end
  done;
  List.rev !pts

let level_curve v ~beta ~plane:(i, j) ~nvars ~n =
  let r_max = 1e3 in
  let v = Poly.evaluator v in
  let pts = ref [] in
  for k = 0 to n - 1 do
    let angle = 2.0 *. Float.pi *. float_of_int k /. float_of_int n in
    let dir_i = cos angle and dir_j = sin angle in
    let value r =
      let x = Array.make nvars 0.0 in
      x.(i) <- r *. dir_i;
      x.(j) <- r *. dir_j;
      v x
    in
    (* V(0) = 0 <= beta; find r with V(r·dir) = beta by bisection if the
       ray reaches beta. *)
    if value r_max >= beta then begin
      let lo = ref 0.0 and hi = ref r_max in
      for _ = 1 to 60 do
        let mid = 0.5 *. (!lo +. !hi) in
        if value mid < beta then lo := mid else hi := mid
      done;
      pts := (!hi *. dir_i, !hi *. dir_j) :: !pts
    end
  done;
  List.rev !pts
