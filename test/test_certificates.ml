(* Tests of the certificate machinery: multiple Lyapunov search, level
   maximization, escape certificates and figure extraction.

   The heavy searches are shared through a lazily computed degree-4
   attractive invariant of the third-order PLL. *)

let s3 = lazy (Pll.scale Pll.table1_third)

let cfg4 =
  lazy { (Certificates.default_config Pll.Third) with Certificates.degree = 4 }

let ai3 =
  lazy
    (match Certificates.attractive_invariant ~config:(Lazy.force cfg4) (Lazy.force s3) with
    | Ok ai -> ai
    | Error e -> failwith ("attractive_invariant failed: " ^ e))

let s4 = lazy (Pll.scale Pll.table1_fourth)

(* The nominal fourth-order degree-4 certificate. *)
let cert4 =
  lazy
    (let cfg = { (Certificates.default_config Pll.Fourth) with Certificates.degree = 4 } in
     match Certificates.find_multi_lyapunov ~config:cfg (Lazy.force s4) with
     | Ok cert -> cert
     | Error e -> failwith ("fourth-order Lyapunov search failed: " ^ e))

let test_default_config () =
  Alcotest.(check int) "3rd order degree" 6 (Certificates.default_config Pll.Third).Certificates.degree;
  Alcotest.(check int) "4th order degree" 4 (Certificates.default_config Pll.Fourth).Certificates.degree

let sample_in_mode s rng m =
  let n = s.Pll.nvars in
  let theta = Pll.theta_index s in
  let rec go tries =
    if tries = 0 then None
    else begin
      let x =
        Array.init n (fun i ->
            let b = if i = theta then s.Pll.theta_max else s.Pll.w_max in
            (Random.State.float rng 2.0 -. 1.0) *. b)
      in
      if List.for_all (fun g -> Poly.eval g x >= 0.0) (Pll.mode_domain s m) then Some x
      else go (tries - 1)
    end
  in
  go 500

let test_lyapunov_positivity () =
  let s = Lazy.force s3 and ai = Lazy.force ai3 in
  let rng = Random.State.make [| 1 |] in
  for m = 0 to Pll.n_modes - 1 do
    for _ = 1 to 50 do
      match sample_in_mode s rng m with
      | None -> ()
      | Some x ->
          let nrm = Array.fold_left (fun a v -> a +. (v *. v)) 0.0 x in
          let v = Poly.eval ai.Certificates.cert.Certificates.vs.(m) x in
          Alcotest.(check bool) "V >= eps|x|^2 on domain" true (v >= (0.009 *. nrm) -. 1e-9)
    done
  done

let test_lyapunov_decrease () =
  let s = Lazy.force s3 and ai = Lazy.force ai3 in
  let pt = Pll.nominal s in
  let rng = Random.State.make [| 2 |] in
  for m = 0 to Pll.n_modes - 1 do
    let f = Pll.flow s pt m in
    for _ = 1 to 50 do
      match sample_in_mode s rng m with
      | None -> ()
      | Some x ->
          let vdot = Poly.eval (Poly.lie_derivative ai.Certificates.cert.Certificates.vs.(m) f) x in
          Alcotest.(check bool) "dV/dt <= 0 on domain" true (vdot <= 1e-7)
    done
  done

let test_jump_non_increase () =
  let s = Lazy.force s3 and ai = Lazy.force ai3 in
  let rng = Random.State.make [| 3 |] in
  List.iter
    (fun (src, dst, h, dir) ->
      ignore h;
      (* Sample the half-surface theta = ±theta_on with the crossing
         direction. *)
      for _ = 1 to 50 do
        let x =
          [|
            (Random.State.float rng 2.0 -. 1.0) *. s.Pll.w_max;
            (Random.State.float rng 2.0 -. 1.0) *. s.Pll.w_max;
            0.0;
          |]
        in
        let theta_star = if dst = Pll.up || src = Pll.up then s.Pll.theta_on else -.s.Pll.theta_on in
        x.(2) <- theta_star;
        if List.for_all (fun d -> Poly.eval d x >= 0.0) dir then begin
          let vs = Poly.eval ai.Certificates.cert.Certificates.vs.(src) x in
          let vd = Poly.eval ai.Certificates.cert.Certificates.vs.(dst) x in
          Alcotest.(check bool) "V_dst <= V_src at switch" true (vd <= vs +. 1e-6 *. (1.0 +. Float.abs vs))
        end
      done)
    (Pll.switching_surfaces s)

let test_level_monotone () =
  let s = Lazy.force s3 and ai = Lazy.force ai3 in
  Alcotest.(check bool) "certified level passes" true
    (Certificates.check_level s ai.Certificates.cert ai.Certificates.beta);
  Alcotest.(check bool) "much larger level fails" false
    (Certificates.check_level s ai.Certificates.cert (100.0 *. ai.Certificates.beta))

(* The plain bisection over the public Lemma-1 check that
   [maximize_level] must reproduce, bit for bit. *)
let plain_bisection ~steps s cert =
  let beta_hi = 2000.0 in
  if Certificates.check_level s cert beta_hi then beta_hi
  else begin
    let lo = ref 0.0 and hi = ref beta_hi in
    for _ = 1 to steps do
      let mid = 0.5 *. (!lo +. !hi) in
      if Certificates.check_level s cert mid then lo := mid else hi := mid
    done;
    !lo
  end

let with_policy cert pol =
  { cert with Certificates.cfg = { cert.Certificates.cfg with Certificates.resilience = pol } }

(* Scaling V_0 by 2 shrinks mode 0's slices, so the programs that bind
   change: a program that never failed before fails at the lazily
   reached level, and only the final confirmation and replay recover the
   plain bisection's answer. On the fourth order the prefilter's samples
   rank program 2 first (its face's lowest sampled V is about 10, program
   0's about 160), so the walk does not start from program 0. *)
let test_level_matches_plain_bisection () =
  let same_level ~steps s (cert : Certificates.t) c =
    let vs = Array.mapi (fun m v -> if m = 0 then Poly.scale c v else v) cert.Certificates.vs in
    let cert () = with_policy { cert with Certificates.vs } (Resilient.default ()) in
    let plain = plain_bisection ~steps s (cert ()) in
    let beta, _ = Certificates.maximize_level ~bisect_steps:steps s (cert ()) in
    Alcotest.(check bool)
      (Printf.sprintf "V_0 x %g: same level as plain bisection (%h vs %h)" c beta plain)
      true (beta = plain);
    Alcotest.(check bool) "positive level" true (beta > 0.0);
    Alcotest.(check bool) "check_level passes at the returned level" true
      (Certificates.check_level s (cert ()) beta)
  in
  let ai = Lazy.force ai3 in
  List.iter (same_level ~steps:12 (Lazy.force s3) ai.Certificates.cert) [ 1.0; 2.0 ];
  same_level ~steps:10 (Lazy.force s4) (Lazy.force cert4) 1.0

let is_level_label l = String.length l >= 6 && String.sub l 0 6 = "level:"

(* [maximize_level] under a supervisor with no deadline: the level and
   the number of level solves the journal records. *)
let supervised_level ~bisect_steps s cert =
  let run_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pll-test-level-%d-%.0f" (Unix.getpid ()) (Unix.gettimeofday () *. 1e6))
  in
  let ctx = Supervise.create ~run_dir ~jobs:1 () in
  Fun.protect
    ~finally:(fun () ->
      Supervise.release ctx;
      ignore (Sys.command ("rm -rf " ^ Filename.quote run_dir)))
    (fun () ->
      let beta, _ =
        Certificates.maximize_level ~bisect_steps s
          (with_policy cert (Resilient.make ~supervise:ctx ()))
      in
      let entries, _ = Supervise.Journal.read run_dir in
      (beta, List.length (List.filter (fun e -> is_level_label e.Supervise.Journal.label) entries)))

let test_level_solve_count () =
  let s = Lazy.force s3 and ai = Lazy.force ai3 in
  let beta, levels = supervised_level ~bisect_steps:20 s ai.Certificates.cert in
  Alcotest.(check bool) "supervised level equals the shared invariant's" true
    (beta = ai.Certificates.beta);
  Alcotest.(check bool)
    (Printf.sprintf "at most 24 level solves journaled (%d)" levels)
    true
    (levels > 0 && levels <= 24)

(* Without a deadline no floor is bought, and the walk starts from the
   sample-ranked program, which binds: 13 level solves instead of 25. *)
let test_fourth_level_solve_count () =
  let beta, levels = supervised_level ~bisect_steps:10 (Lazy.force s4) (Lazy.force cert4) in
  Alcotest.(check string) "fourth-order level" "0x1.77p+2" (Printf.sprintf "%h" beta);
  Alcotest.(check bool)
    (Printf.sprintf "at most 13 level solves journaled (%d)" levels)
    true
    (levels > 0 && levels <= 13)

(* The pipeline deadline fires once 20 solves have run: past the first
   level every program passed, before the bisection ends. *)
let test_level_deadline_degrades () =
  let s = Lazy.force s3 and ai = Lazy.force ai3 in
  let pol = Resilient.make ~pipeline_deadline_s:10.0 () in
  Resilient.set_wall_clock_source
    (Some (fun () -> if Resilient.solves pol >= 20 then 1e9 else 0.0));
  let beta, hit =
    Fun.protect
      ~finally:(fun () -> Resilient.set_wall_clock_source None)
      (fun () ->
        Resilient.begin_pipeline pol;
        let beta, _ =
          Certificates.maximize_level ~bisect_steps:20 s (with_policy ai.Certificates.cert pol)
        in
        (beta, Resilient.out_of_time pol))
  in
  Alcotest.(check bool) "the deadline fired" true hit;
  Alcotest.(check bool) (Printf.sprintf "degraded level %g is positive" beta) true (beta > 0.0);
  Alcotest.(check bool) "degraded level is below the full one" true
    (beta < ai.Certificates.beta);
  Alcotest.(check bool) "check_level passes at the degraded level" true
    (Certificates.check_level s (with_policy ai.Certificates.cert (Resilient.default ())) beta)

let test_member () =
  let s = Lazy.force s3 and ai = Lazy.force ai3 in
  Alcotest.(check bool) "origin inside X1" true (Certificates.member s ai [| 0.0; 0.0; 0.0 |]);
  Alcotest.(check bool) "far point outside X1" false
    (Certificates.member s ai [| 10.0; 10.0; 10.0 |])

let test_validate_by_simulation () =
  let s = Lazy.force s3 and ai = Lazy.force ai3 in
  Alcotest.(check bool) "certificate sound on sampled arcs" true
    (Certificates.validate_by_simulation ~trials:10 s ai)

let test_escape_drift () =
  let n = 2 in
  let x = Poly.var n 0 and y = Poly.var n 1 in
  let disc = Poly.sub (Poly.one n) (Poly.add (Poly.mul x x) (Poly.mul y y)) in
  (match
     Certificates.find_escape ~deg:2 ~eps:0.1 ~nvars:n
       ~flow:[| Poly.one n; Poly.zero n |]
       ~domain:[ disc ] ()
   with
  | Ok (e, _) ->
      (* dE/dt = dE/dx must be <= -eps on the disc: check at samples. *)
      let dex = Poly.partial 0 e in
      List.iter
        (fun (px, py) ->
          Alcotest.(check bool) "decrease" true (Poly.eval dex [| px; py |] <= -0.099))
        [ (0.0, 0.0); (0.5, 0.5); (-0.9, 0.0) ]
  | Error m -> Alcotest.fail m)

let test_escape_impossible () =
  (* A region containing a stable equilibrium cannot be escaped. *)
  let n = 2 in
  let x = Poly.var n 0 and y = Poly.var n 1 in
  let disc = Poly.sub (Poly.one n) (Poly.add (Poly.mul x x) (Poly.mul y y)) in
  let flow = [| Poly.sub y x; Poly.sub (Poly.neg x) y |] in
  match Certificates.find_escape ~deg:4 ~eps:0.1 ~nvars:n ~flow ~domain:[ disc ] () with
  | Ok _ -> Alcotest.fail "unsound escape certificate"
  | Error _ -> ()

let test_level_curve_circle () =
  (* V = x0^2 + x1^2, beta = 4: the level curve is the radius-2 circle. *)
  let v = Poly.of_terms 2 [ (Poly.Monomial.of_exponents [ 2; 0 ], 1.0); (Poly.Monomial.of_exponents [ 0; 2 ], 1.0) ] in
  let pts = Certificates.level_curve v ~beta:4.0 ~plane:(0, 1) ~nvars:2 ~n:8 in
  Alcotest.(check int) "all rays hit" 8 (List.length pts);
  List.iter
    (fun (a, b) ->
      Alcotest.(check (float 1e-6)) "radius 2" 2.0 (sqrt ((a *. a) +. (b *. b))))
    pts

let test_invariant_boundary_inside_box () =
  let s = Lazy.force s3 and ai = Lazy.force ai3 in
  let pts = Certificates.invariant_boundary s ai ~plane:(0, 1) ~n:16 in
  Alcotest.(check bool) "nonempty" true (List.length pts > 0);
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) "within verification box" true
        (Float.abs a <= s.Pll.w_max +. 1e-6 && Float.abs b <= s.Pll.w_max +. 1e-6))
    pts

let test_upper_bound_on_set () =
  let s = Lazy.force s3 and ai = Lazy.force ai3 in
  let small = Advect.ellipsoid_front s ~radii:[| 0.3; 0.3; 0.3 |] in
  match Certificates.upper_bound_on_set s ai.Certificates.cert ~set:small with
  | Error e -> Alcotest.fail e
  | Ok bound ->
      Alcotest.(check bool) "positive" true (bound > 0.0);
      (* The bound must dominate sampled values of V on the set. *)
      let rng = Random.State.make [| 2 |] in
      for _ = 1 to 2000 do
        let x = Array.init 3 (fun _ -> (Random.State.float rng 0.6) -. 0.3) in
        if Poly.eval small x <= 0.0 then begin
          let th = x.(2) in
          let m =
            if Float.abs th <= s.Pll.theta_on then Pll.off
            else if th > 0.0 then Pll.up
            else Pll.down
          in
          let v = Poly.eval ai.Certificates.cert.Certificates.vs.(m) x in
          Alcotest.(check bool) "bound dominates" true (v <= bound +. 1e-6)
        end
      done

let test_time_to_lock_bound () =
  let s = Lazy.force s3 and ai = Lazy.force ai3 in
  let beta = ai.Certificates.beta in
  let t1 = Certificates.time_to_lock_bound s ai ~from_level:(1.5 *. beta) in
  let t2 = Certificates.time_to_lock_bound s ai ~from_level:(3.0 *. beta) in
  Alcotest.(check bool) "finite" true (Float.is_finite t1 && Float.is_finite t2);
  Alcotest.(check bool) "monotone in level" true (t2 >= t1);
  Alcotest.(check (float 1e-9)) "zero below beta" 0.0
    (Certificates.time_to_lock_bound s ai ~from_level:(0.5 *. beta))

(* MD5 over the [%h] coefficients of every V_m, in [Poly.terms] order. *)
let cert_digest (cert : Certificates.t) =
  let b = Buffer.create 4096 in
  Array.iter
    (fun v -> List.iter (fun (_, c) -> Buffer.add_string b (Printf.sprintf "%h;" c)) (Poly.terms v))
    cert.Certificates.vs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The nominal models' degree-4 Lyapunov certificates and the
   third-order level, pinned bit for bit: interior-point rewrites that
   claim the same iterates must leave these unchanged. *)
let test_pinned_answers () =
  let ai = Lazy.force ai3 in
  Alcotest.(check string) "third-order degree-4 certificate" "3673564a67e3d0cf2a4b7bc8c28aea71"
    (cert_digest ai.Certificates.cert);
  Alcotest.(check string) "third-order level" "0x1.8d8d7p+7"
    (Printf.sprintf "%h" ai.Certificates.beta);
  Alcotest.(check string) "fourth-order degree-4 certificate" "ad0ceb02d7be104d96e4efbdef472cb8"
    (cert_digest (Lazy.force cert4))

(* A fresh supervised verdict's cache keys: how many [cache/*.solve]
   entries it stores, and the MD5 of their sorted names joined by
   newlines. Each name is an [Sdp.fingerprint] of a posed program, so a
   posing change that moves one orphans every run dir written before
   it. *)
let cache_keys spec =
  let run_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pll-test-keys-%d-%.0f" (Unix.getpid ()) (Unix.gettimeofday () *. 1e6))
  in
  let ctx = Supervise.create ~run_dir ~jobs:2 () in
  Fun.protect
    ~finally:(fun () ->
      Supervise.release ctx;
      ignore (Sys.command ("rm -rf " ^ Filename.quote run_dir)))
    (fun () ->
      ignore (Service.Job.run ~policy:(Resilient.make ~supervise:ctx ()) spec);
      let names =
        Sys.readdir (Filename.concat run_dir "cache")
        |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".solve")
        |> List.sort String.compare
      in
      (List.length names, Digest.to_hex (Digest.string (String.concat "\n" names))))

(* The seed-0 verdicts of the benchmark's verify workloads, keys pinned
   from a fresh run: third order, full pipeline, degree 4, 4 advection
   iterations; fourth order, P1, degree 4, 10 bisection steps. The
   third-order keys also follow the advection sampler's draws, which
   pick the fronts its transport, inclusion and escape programs are
   posed on. *)
let test_pinned_replay_keys () =
  let check name spec (count, digest) =
    let n, d = cache_keys spec in
    Alcotest.(check int) (name ^ " key count") count n;
    Alcotest.(check string) (name ^ " keys") digest d
  in
  check "third order"
    {
      (Service.Job.default_spec Pll.Third) with
      Service.Job.property = Service.Job.Full;
      degree = 4;
      advect_iters = 4;
    }
    (61, "533699a347ae8d08807115121fc2dcfd");
  check "fourth order"
    { (Service.Job.default_spec Pll.Fourth) with Service.Job.degree = 4; bisect_steps = 10 }
    (14, "edf380f4ba14685849446d54694a9423")

(* Mode 0's first Lemma-1 program at [beta], as the bisection poses it. *)
let level_problem s (cert : Certificates.t) beta =
  let v = cert.Certificates.vs.(0) in
  let n = Poly.nvars v in
  let prob = Sos.create ~nvars:n in
  let g = List.hd (Pll.containment_constraints s 0) in
  Sos.add_nonneg_on ~mult_deg:2 prob
    ~domain:(Poly.sub (Poly.const n beta) v :: Pll.mode_domain s 0)
    (Sos.Ppoly.of_poly (Poly.sub g (Poly.const n 1e-3)));
  Sos.sdp_problem prob

(* The nominal third-order bisection rejects β = 203.125 (0x1.964p+7):
   its cold solve spikes past 1e4 x its best score by iteration 30 and
   never recovers. It must stop there, uncertified, not run on to the
   150-iteration limit. *)
let test_diverged_level_stops () =
  let s = Lazy.force s3 and ai = Lazy.force ai3 in
  let sol = Sdp.solve (level_problem s ai.Certificates.cert 0x1.964p+7) in
  Alcotest.(check bool) "uncertified" true
    (sol.Sdp.status <> Sdp.Optimal && sol.Sdp.status <> Sdp.Near_optimal);
  Alcotest.(check bool)
    (Printf.sprintf "stopped at its spike (%d iterations)" sol.Sdp.iterations)
    true (sol.Sdp.iterations < 60)

let suite =
  [
    Alcotest.test_case "default config degrees" `Quick test_default_config;
    Alcotest.test_case "upper bound on set" `Slow test_upper_bound_on_set;
    Alcotest.test_case "time to lock bound" `Slow test_time_to_lock_bound;
    Alcotest.test_case "escape exists for drift" `Quick test_escape_drift;
    Alcotest.test_case "escape impossible at equilibrium" `Quick test_escape_impossible;
    Alcotest.test_case "level curve of circle" `Quick test_level_curve_circle;
    Alcotest.test_case "V positive on domains" `Slow test_lyapunov_positivity;
    Alcotest.test_case "V decreases along flows" `Slow test_lyapunov_decrease;
    Alcotest.test_case "V non-increasing at jumps" `Slow test_jump_non_increase;
    Alcotest.test_case "level check monotone" `Slow test_level_monotone;
    Alcotest.test_case "level matches plain bisection" `Slow test_level_matches_plain_bisection;
    Alcotest.test_case "level solve count" `Slow test_level_solve_count;
    Alcotest.test_case "fourth-order level solve count" `Slow test_fourth_level_solve_count;
    Alcotest.test_case "level deadline degrades" `Slow test_level_deadline_degrades;
    Alcotest.test_case "membership" `Slow test_member;
    Alcotest.test_case "simulation validation" `Slow test_validate_by_simulation;
    Alcotest.test_case "invariant boundary in box" `Slow test_invariant_boundary_inside_box;
    Alcotest.test_case "pinned certificates and level" `Slow test_pinned_answers;
    Alcotest.test_case "pinned replay keys" `Slow test_pinned_replay_keys;
    Alcotest.test_case "diverged level program stops" `Slow test_diverged_level_stops;
  ]
