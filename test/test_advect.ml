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
      ("uncapped", None, "e05baf341c6f4882df4675b0fd470b35");
      ("capped", Some caps, "b04e6b571bbace598b4ba8c6e1a0904d");
    ]

let suite =
  [
    Alcotest.test_case "ellipsoid front" `Quick test_ellipsoid_front;
    Alcotest.test_case "single step soundness" `Slow test_advect_step_sound;
    Alcotest.test_case "containment checks" `Slow test_containment_checks;
    Alcotest.test_case "taylor vs exact maps" `Slow test_taylor_map_agrees_for_small_h;
    Alcotest.test_case "caps never harden containment" `Slow test_caps_tighten_containment;
    Alcotest.test_case "algorithm 1 verifies P2" `Slow test_run_verifies;
    Alcotest.test_case "pinned first step" `Slow test_pinned_step;
  ]
