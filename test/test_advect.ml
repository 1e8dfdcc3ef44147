(* Tests of the bounded advection machinery (Algorithm 1). *)

let s3 = lazy (Pll.scale Pll.table1_third)

let cfg4 = lazy { (Certificates.default_config Pll.Third) with Certificates.degree = 4 }

let ai3 =
  lazy
    (match Certificates.attractive_invariant ~config:(Lazy.force cfg4) (Lazy.force s3) with
    | Ok ai -> ai
    | Error e -> failwith ("attractive_invariant failed: " ^ e))

let test_ellipsoid_front () =
  let s = Lazy.force s3 in
  let f = Advect.ellipsoid_front s ~radii:[| 2.0; 1.0; 0.5 |] in
  Alcotest.(check (float 1e-9)) "center" (-1.0) (Poly.eval f [| 0.0; 0.0; 0.0 |]);
  Alcotest.(check (float 1e-9)) "on boundary" 0.0 (Poly.eval f [| 2.0; 0.0; 0.0 |]);
  Alcotest.(check bool) "outside" true (Poly.eval f [| 0.0; 0.0; 1.0 |] > 0.0)

let test_advect_step_sound () =
  let s = Lazy.force s3 in
  let pt = Pll.nominal s in
  let init = Advect.ellipsoid_front s ~radii:[| 2.0; 2.0; 1.6 |] in
  match Advect.advect_step s pt init with
  | Error e -> Alcotest.fail e
  | Ok st ->
      Alcotest.(check bool) "gamma positive" true (st.Advect.gamma > 0.0);
      Alcotest.(check bool) "front centered" true (Poly.eval st.Advect.front (Pll.equilibrium s) < 0.0);
      Alcotest.(check bool) "numerically sound" true
        (Advect.validate_step_by_simulation ~samples:100 s pt
           ~h:Advect.default_config.Advect.h ~old_front:init st.Advect.front)

let test_containment_checks () =
  let s = Lazy.force s3 and ai = Lazy.force ai3 in
  (* A tiny ball around the origin is inside X1; the huge outer ellipsoid
     is not. *)
  let tiny = Advect.ellipsoid_front s ~radii:[| 0.05; 0.05; 0.05 |] in
  let huge = Advect.ellipsoid_front s ~radii:[| 2.0; 2.0; 1.6 |] in
  Alcotest.(check bool) "tiny inside" true (Advect.contained_in_invariant s ai tiny);
  Alcotest.(check bool) "huge not inside" false (Advect.contained_in_invariant s ai huge)

let test_taylor_map_agrees_for_small_h () =
  (* For small h the Taylor and Exact pull-backs must nearly agree. *)
  let s = Lazy.force s3 in
  let pt = Pll.nominal s in
  let init = Advect.ellipsoid_front s ~radii:[| 2.0; 2.0; 1.6 |] in
  let run map =
    let config =
      { Advect.default_config with Advect.h = 0.02; map; gamma_bisect = 2; gamma_max = 0.05 }
    in
    Advect.advect_step ~config s pt init
  in
  match (run Advect.Exact, run Advect.Taylor) with
  | Ok a, Ok b ->
      (* Both produce sound fronts; compare their values at sample points. *)
      List.iter
        (fun x ->
          let va = Poly.eval a.Advect.front x and vb = Poly.eval b.Advect.front x in
          Alcotest.(check bool) "same sign structure" true (Float.abs (va -. vb) < 0.5))
        [ [| 0.0; 0.0; 0.0 |]; [| 1.0; 0.5; 0.2 |]; [| -1.0; 1.0; -0.5 |] ]
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_caps_tighten_containment () =
  let s = Lazy.force s3 and ai = Lazy.force ai3 in
  (* A front that spills outside X1 only at high-V states: with a cap at
     a level just above beta, the capped containment check passes while
     the uncapped one fails. *)
  let front = Advect.ellipsoid_front s ~radii:[| 1.2; 1.2; 1.0 |] in
  let uncapped = Advect.contained_in_invariant s ai front in
  let vmax = 1.02 *. ai.Certificates.beta in
  let caps =
    Array.map
      (fun v -> Poly.sub (Poly.const 3 vmax) v)
      ai.Certificates.cert.Certificates.vs
  in
  let capped = Advect.contained_in_invariant ~caps s ai front in
  Alcotest.(check bool) "uncapped fails" false uncapped;
  (* The capped check restricts to {V <= 1.02*beta}, whose distance to
     {V <= beta} is small; it may still fail for thin margins, but it must
     never be *harder* than the uncapped check. *)
  Alcotest.(check bool) "capped no harder" true (capped || not uncapped)

let test_run_verifies () =
  let s = Lazy.force s3 and ai = Lazy.force ai3 in
  let init = Advect.ellipsoid_front s ~radii:[| 1.8; 1.8; 1.5 |] in
  let r = Advect.run ~max_iter:25 s ai ~init in
  Alcotest.(check bool) "P2 verified (advection or escape)" true r.Advect.verified;
  Alcotest.(check bool) "made progress" true (r.Advect.iterations >= 1)

(* MD5 over the [%h] coefficients of a front, in [Poly.terms] order. *)
let front_digest front =
  let b = Buffer.create 1024 in
  List.iter (fun (_, c) -> Buffer.add_string b (Printf.sprintf "%h;" c)) (Poly.terms front);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The first advection front on the nominal third order, uncapped and
   capped at 1.02 beta, pinned bit for bit: the covering ellipsoid is
   fitted to the accepted samples, so a sampler that draws or accepts
   one point differently moves these digests. *)
let test_pinned_step () =
  let s = Lazy.force s3 and ai = Lazy.force ai3 in
  let pt = Pll.nominal s in
  let init = Advect.ellipsoid_front s ~radii:[| 2.0; 2.0; 1.6 |] in
  let vmax = 1.02 *. ai.Certificates.beta in
  let caps =
    Array.map (fun v -> Poly.sub (Poly.const 3 vmax) v) ai.Certificates.cert.Certificates.vs
  in
  List.iter
    (fun (what, caps, expected) ->
      match Advect.advect_step ?caps s pt init with
      | Error e -> Alcotest.fail (what ^ ": " ^ e)
      | Ok st ->
          Alcotest.(check string) (what ^ " front") expected (front_digest st.Advect.front);
          Alcotest.(check string) (what ^ " gamma") "0x1.3333333333333p-7"
            (Printf.sprintf "%h" st.Advect.gamma))
    [
      ("uncapped", None, "8a1257c878818b3421866e4490d3bb7e");
      ("capped", Some caps, "a24e22c8a3d9218e1abd46d9f6faa49d");
    ]

(* --- The sampler's proposal box -------------------------------------- *)

module Mat = Linalg.Mat

(* A quadratic's form, linear part and constant: q = xᵀAx + bᵀx + c₀. *)
let quadratic_parts n q =
  let a = Mat.create n n and b = Array.make n 0.0 and c0 = ref 0.0 in
  List.iter
    (fun (m, c) ->
      match List.concat (List.init n (fun i -> List.init m.(i) (fun _ -> i))) with
      | [] -> c0 := c
      | [ i ] -> b.(i) <- c
      | [ i; j ] when i = j -> Mat.set a i i c
      | [ i; j ] ->
          Mat.set a i j (0.5 *. c);
          Mat.set a j i (0.5 *. c)
      | _ -> invalid_arg "quadratic_parts: degree above 2")
    (Poly.terms q);
  (a, b, !c0)

(* Points on and near the boundary of {q <= 0} for a positive-definite
   quadratic q, found by elimination rather than by the Cholesky factor
   [sublevel_box] uses: each axis extreme c ± r·A⁻¹eᵢ/√(A⁻¹)ᵢᵢ and points
   along random directions, each scaled by 1 + t for small t of either
   sign, plus uniform points of the region. *)
let boundary_probes rand ~bound q =
  let n = Array.length bound in
  let a, b, _ = quadratic_parts n q in
  let inv = Mat.inverse a in
  let c = Array.map (fun v -> -0.5 *. v) (Mat.mul_vec inv b) in
  let r2 = -.Poly.eval q c in
  let r = sqrt (Float.max 0.0 r2) in
  let along d scale =
    List.map (fun t -> Array.mapi (fun i ci -> ci +. ((1.0 +. t) *. scale *. d.(i))) c)
  in
  let ts () =
    [ 0.0; 1e-15; -1e-15; 1e-12; -1e-12; 1e-9; 1e-6; (Random.State.float rand 2e-7) -. 1e-7 ]
  in
  let extremes =
    List.concat
      (List.init n (fun i ->
           let col = Array.init n (fun k -> Mat.get inv k i) in
           let s = r /. sqrt (Mat.get inv i i) in
           along col s (ts ()) @ along col (-.s) (ts ())))
  in
  let random_dirs =
    List.concat
      (List.init 8 (fun _ ->
           let d = Array.init n (fun _ -> Random.State.float rand 2.0 -. 1.0) in
           let dad = Linalg.Vec.dot d (Mat.mul_vec a d) in
           if dad > 0.0 then along d (r /. sqrt dad) (ts ()) else []))
  in
  let uniform =
    List.init 32 (fun _ -> Array.map (fun bi -> Random.State.float rand (2.0 *. bi) -. bi) bound)
  in
  extremes @ random_dirs @ uniform

(* A random rotation of Rⁿ: the Q factor of a random matrix. *)
let random_rotation rand n =
  fst (Mat.qr (Mat.init n n (fun _ _ -> Random.State.float rand 2.0 -. 1.0)))

(* Q·diag(eigs)·Qᵀ. *)
let with_eigs q eigs =
  let n = Array.length eigs in
  Mat.symmetrize
    (Mat.init n n (fun i j ->
         let s = ref 0.0 in
         for k = 0 to n - 1 do
           s := !s +. (Mat.get q i k *. eigs.(k) *. Mat.get q j k)
         done;
         !s))

type box_case = {
  bound : float array;
  q : Poly.t;
  whole : bool;  (** [q] is no positive-definite quadratic: the box must be the region *)
  probes : float array list;
}

let log_uniform rand lo hi = Float.pow 10.0 (lo +. Random.State.float rand (hi -. lo))

(* One case from a generator seed: a random, strongly tilted
   positive-definite quadratic (eigenvalues over up to six decades); a
   covering-quadric front fitted to a tilted point cloud; an indefinite
   quadratic; or a quartic or affine polynomial. *)
let box_case seed =
  let rand = Random.State.make [| seed |] in
  let n = 2 + Random.State.int rand 3 in
  let bound = Array.init n (fun _ -> 0.5 +. Random.State.float rand 7.5) in
  let rot = random_rotation rand n in
  let centre () = Array.map (fun bi -> (Random.State.float rand 2.4 -. 1.2) *. bi) bound in
  let quadric a c level =
    Poly.sub (Poly.shift (Poly.quadratic_form a) (Array.map Float.neg c)) (Poly.const n level)
  in
  let pd q = { bound; q; whole = false; probes = boundary_probes rand ~bound q } in
  match Random.State.int rand 5 with
  | 0 | 1 ->
      let eigs = Array.init n (fun _ -> log_uniform rand (-3.0) 3.0) in
      pd (quadric (with_eigs rot eigs) (centre ()) (log_uniform rand (-4.0) 1.5))
  | 2 ->
      let mean = centre () and sd = Array.init n (fun _ -> log_uniform rand (-2.0) 0.3) in
      let points =
        List.init
          (n + 1 + Random.State.int rand 60)
          (fun _ ->
            let z = Array.init n (fun k -> sd.(k) *. (Random.State.float rand 2.0 -. 1.0)) in
            Array.init n (fun i ->
                let s = ref mean.(i) in
                for k = 0 to n - 1 do
                  s := !s +. (Mat.get rot i k *. z.(k))
                done;
                !s))
      in
      pd (Advect.covering_quadric n points (1.0 +. Random.State.float rand 1.0))
  | 3 ->
      let eigs =
        Array.init n (fun k ->
            let e = log_uniform rand (-2.0) 1.0 in
            if k = 0 then -.e else e)
      in
      let q = quadric (with_eigs rot eigs) (centre ()) 1.0 in
      { bound; q; whole = true; probes = [] }
  | _ ->
      let e = quadric (with_eigs rot (Array.make n 1.0)) (centre ()) 0.0 in
      let q =
        if Random.State.bool rand then Poly.sub (Poly.mul e e) (Poly.one n)
        else Poly.sub (Poly.var n 0) (Poly.one n)
      in
      { bound; q; whole = true; probes = [] }

let prop_sublevel_box =
  QCheck.Test.make ~name:"proposal box holds every point where the front reads <= 0" ~count:400
    (QCheck.make ~print:(fun seed -> Poly.to_string (box_case seed).q) QCheck.Gen.nat)
    (fun seed ->
      let { bound; q; whole; probes } = box_case seed in
      let lo, hi = Advect.sublevel_box ~bound q in
      let n = Array.length bound in
      let eval = Poly.evaluator q in
      let in_region x = Array.for_all2 (fun xi bi -> Float.abs xi <= bi) x bound in
      let inside x =
        Array.for_all Fun.id (Array.init n (fun i -> lo.(i) <= x.(i) && x.(i) <= hi.(i)))
      in
      (if whole then
         Array.for_all2 (fun l b -> l = -.b) lo bound && Array.for_all2 ( = ) hi bound
       else
         Array.for_all2 (fun l b -> l >= -.b) lo bound && Array.for_all2 ( <= ) hi bound)
      && List.for_all (fun x -> (not (in_region x && eval x <= 0.0)) || inside x) probes)

(* The sampler before proposal boxes: uniform draws over the whole
   verification region, at most 300 attempts per wanted point, testing
   the front, then the cap, then the mode domain. *)
let full_region_sample ?caps (s : Pll.scaled) q m rng count =
  let n = s.Pll.nvars in
  let bound =
    Array.init n (fun i -> if i = Pll.theta_index s then s.Pll.theta_max else s.Pll.w_max)
  in
  let q = Poly.evaluator q
  and cap = Option.map (fun c -> Poly.evaluator c.(m)) caps
  and domain = List.map Poly.evaluator (Pll.mode_domain s m) in
  let cap_ok x = match cap with None -> true | Some c -> c x >= 0.0 in
  let x = Array.make n 0.0 in
  let pts = ref [] and found = ref 0 and attempts = ref 0 in
  while !found < count && !attempts < count * 300 do
    incr attempts;
    for i = 0 to n - 1 do
      x.(i) <- (Random.State.float rng 2.0 -. 1.0) *. bound.(i)
    done;
    if q x <= 0.0 && cap_ok x && List.for_all (fun g -> g x >= 0.0) domain then begin
      incr found;
      pts := Array.copy x :: !pts
    end
  done;
  !pts

let mean_var xs =
  let k = float_of_int (List.length xs) in
  let m = List.fold_left ( +. ) 0.0 xs /. k in
  let ss = List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
  (m, ss /. Float.max 1.0 (k -. 1.0))

(* On the verdict's initial front X2 ({!Pll_core.Inevitability.default_init_radii}),
   where its first step's up and down modes run out of attempts, per
   mode, uncapped and capped at 0.3 beta (a cap that cuts the front,
   halving what those modes take): over 8 seeds each, the
   proposal-box sampler and the full-region one take the same expected
   number of points and the same sample mean. Both are two-sample
   z-tests at 4 standard errors (plus half a point on the counts, for
   modes where both always take all 300). *)
let test_sampler_law () =
  let s = Lazy.force s3 and ai = Lazy.force ai3 in
  let init = Advect.ellipsoid_front s ~radii:(Pll_core.Inevitability.default_init_radii s) in
  let vmax = 0.3 *. ai.Certificates.beta in
  let caps =
    Array.map (fun v -> Poly.sub (Poly.const 3 vmax) v) ai.Certificates.cert.Certificates.vs
  in
  let seeds = List.init 8 Fun.id in
  (* Two-sample z-test of the means of [a] and [b] at 4 standard errors. *)
  let within ?(slack = 0.0) what a b =
    let (ma, va), (mb, vb) = (mean_var a, mean_var b) in
    let se = sqrt ((va /. float_of_int (List.length a)) +. (vb /. float_of_int (List.length b))) in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %g vs %g (se %g)" what ma mb se)
      true
      (Float.abs (ma -. mb) <= (4.0 *. se) +. slack)
  in
  List.iter
    (fun (cap_name, caps) ->
      for m = 0 to Pll.n_modes - 1 do
        let runs sampler salt =
          List.map (fun k -> sampler ?caps s init m (Random.State.make [| salt; k |]) 300) seeds
        in
        let before = runs full_region_sample 1 and after = runs Advect.sample_piece 2 in
        let what = Printf.sprintf "%s %s" cap_name (Pll.mode_name m) in
        let counts r = List.map (fun pts -> float_of_int (List.length pts)) r in
        within ~slack:0.5 (what ^ " points taken") (counts before) (counts after);
        match (List.concat before, List.concat after) with
        | [], [] -> ()
        | [], _ | _, [] -> Alcotest.fail (what ^ ": one sampler found no point")
        | pb, pa ->
            for i = 0 to s.Pll.nvars - 1 do
              let coord = List.map (fun x -> x.(i)) in
              within (Printf.sprintf "%s mean x%d" what i) (coord pb) (coord pa)
            done
      done)
    [ ("uncapped", None); ("capped", Some caps) ]

let suite =
  [
    Alcotest.test_case "ellipsoid front" `Quick test_ellipsoid_front;
    Alcotest.test_case "single step soundness" `Slow test_advect_step_sound;
    Alcotest.test_case "containment checks" `Slow test_containment_checks;
    Alcotest.test_case "taylor vs exact maps" `Slow test_taylor_map_agrees_for_small_h;
    Alcotest.test_case "caps never harden containment" `Slow test_caps_tighten_containment;
    Alcotest.test_case "algorithm 1 verifies P2" `Slow test_run_verifies;
    Alcotest.test_case "pinned first step" `Slow test_pinned_step;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 35 |]) prop_sublevel_box;
    Alcotest.test_case "sampler keeps the full-region law" `Slow test_sampler_law;
  ]
