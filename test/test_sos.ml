(* End-to-end tests of the SOS programming layer: decompositions that must
   exist, ones that must not, optimization via free scalars, S-procedure
   domain restrictions, Lemma-1 set inclusions, and a small Lyapunov
   search. *)

module Ppoly = Sos.Ppoly
module Lexpr = Sos.Lexpr

let p1 terms = Poly.of_terms 1 (List.map (fun (es, c) -> (Poly.Monomial.of_exponents es, c)) terms)

let p2 terms = Poly.of_terms 2 (List.map (fun (es, c) -> (Poly.Monomial.of_exponents es, c)) terms)

(* (x+1)^2 = x^2 + 2x + 1 is SOS. *)
let test_sos_feasible () =
  let prob = Sos.create ~nvars:1 in
  Sos.add_sos prob (Ppoly.of_poly (p1 [ ([ 2 ], 1.0); ([ 1 ], 2.0); ([ 0 ], 1.0) ]));
  let sol = Sos.solve prob in
  Alcotest.(check bool) "certified" true sol.Sos.certified

(* x^2 - 1 is not SOS (negative at 0). *)
let test_sos_infeasible () =
  let prob = Sos.create ~nvars:1 in
  Sos.add_sos prob (Ppoly.of_poly (p1 [ ([ 2 ], 1.0); ([ 0 ], -1.0) ]));
  let sol = Sos.solve prob in
  Alcotest.(check bool) "not certified" false sol.Sos.certified

(* The Motzkin polynomial is nonnegative but famously not SOS. *)
let test_motzkin_not_sos () =
  let motzkin =
    Poly.of_terms 2
      [
        (Poly.Monomial.of_exponents [ 4; 2 ], 1.0);
        (Poly.Monomial.of_exponents [ 2; 4 ], 1.0);
        (Poly.Monomial.of_exponents [ 2; 2 ], -3.0);
        (Poly.Monomial.of_exponents [ 0; 0 ], 1.0);
      ]
  in
  let prob = Sos.create ~nvars:2 in
  Sos.add_sos prob (Ppoly.of_poly motzkin);
  let sol = Sos.solve prob in
  Alcotest.(check bool) "not certified" false sol.Sos.certified

(* Global lower bound: max γ s.t. (x-1)^2 + 2 - γ ∈ Σ. Optimum γ = 2. *)
let test_global_minimum () =
  let prob = Sos.create ~nvars:1 in
  let gamma = Sos.fresh_free prob in
  let p = p1 [ ([ 2 ], 1.0); ([ 1 ], -2.0); ([ 0 ], 3.0) ] in
  Sos.add_sos prob (Ppoly.sub (Ppoly.of_poly p) (Ppoly.scale_expr gamma (Poly.one 1)));
  Sos.maximize prob gamma;
  let sol = Sos.solve prob in
  Alcotest.(check bool) "certified" true sol.Sos.certified;
  Alcotest.(check (float 1e-5)) "gamma = 2" 2.0 sol.Sos.objective

(* Bivariate: min of x^2 + y^2 - 2x - 4y + 6 is 1 (at (1,2)). *)
let test_global_minimum_2d () =
  let prob = Sos.create ~nvars:2 in
  let gamma = Sos.fresh_free prob in
  let p =
    p2 [ ([ 2; 0 ], 1.0); ([ 0; 2 ], 1.0); ([ 1; 0 ], -2.0); ([ 0; 1 ], -4.0); ([ 0; 0 ], 6.0) ]
  in
  Sos.add_sos prob (Ppoly.sub (Ppoly.of_poly p) (Ppoly.scale_expr gamma (Poly.one 2)));
  Sos.maximize prob gamma;
  let sol = Sos.solve prob in
  Alcotest.(check bool) "certified" true sol.Sos.certified;
  Alcotest.(check (float 1e-5)) "gamma = 1" 1.0 sol.Sos.objective

(* S-procedure: x >= 1/2 on the set {x - 1 >= 0} — needs the domain. *)
let test_s_procedure () =
  let shifted = Ppoly.of_poly (p1 [ ([ 1 ], 1.0); ([ 0 ], -0.5) ]) in
  let domain = p1 [ ([ 1 ], 1.0); ([ 0 ], -1.0) ] in
  let prob0 = Sos.create ~nvars:1 in
  Sos.add_nonneg_on prob0 ~domain:[] shifted;
  Alcotest.(check bool) "globally: not certified" false (Sos.solve prob0).Sos.certified;
  let prob1 = Sos.create ~nvars:1 in
  Sos.add_nonneg_on prob1 ~mult_deg:2 ~domain:[ domain ] shifted;
  Alcotest.(check bool) "on domain: certified" true (Sos.solve prob1).Sos.certified

(* Lemma 1 set inclusion: {x^2 - 1 <= 0} ⊆ {x^2 - 4 <= 0}, not conversely. *)
let test_set_inclusion () =
  let small = p1 [ ([ 2 ], 1.0); ([ 0 ], -1.0) ] in
  let big = p1 [ ([ 2 ], 1.0); ([ 0 ], -4.0) ] in
  let prob = Sos.create ~nvars:1 in
  Sos.add_set_inclusion prob ~outer:(Ppoly.of_poly big) small;
  Alcotest.(check bool) "inclusion holds" true (Sos.solve prob).Sos.certified;
  let prob' = Sos.create ~nvars:1 in
  Sos.add_set_inclusion prob' ~outer:(Ppoly.of_poly small) big;
  Alcotest.(check bool) "reverse fails" false (Sos.solve prob').Sos.certified

(* Lyapunov search for the linear system dx = -x + y, dy = -x - y:
   find V with V - eps|x|^2 ∈ Σ and -∇V·f - eps|x|^2 ∈ Σ. *)
let test_lyapunov_linear () =
  let f = [| p2 [ ([ 1; 0 ], -1.0); ([ 0; 1 ], 1.0) ]; p2 [ ([ 1; 0 ], -1.0); ([ 0; 1 ], -1.0) ] |] in
  let norm2 = p2 [ ([ 2; 0 ], 1.0); ([ 0; 2 ], 1.0) ] in
  let prob = Sos.create ~nvars:2 in
  let v = Sos.fresh_poly prob ~deg:2 ~min_deg:2 in
  Sos.add_sos prob (Ppoly.sub v (Ppoly.of_poly (Poly.scale 0.01 norm2)));
  Sos.add_sos prob
    (Ppoly.sub (Ppoly.neg (Ppoly.lie_derivative v f)) (Ppoly.of_poly (Poly.scale 0.01 norm2)));
  (* Normalize: trace-like condition pins the scale of V. *)
  Sos.add_zero prob
    (Ppoly.sub
       (Ppoly.of_terms 2 [ (Poly.Monomial.of_exponents [ 2; 0 ], Ppoly.coeff v (Poly.Monomial.of_exponents [ 2; 0 ])) ])
       (Ppoly.of_poly (p2 [ ([ 2; 0 ], 1.0) ])));
  let sol = Sos.solve prob in
  Alcotest.(check bool) "certified" true sol.Sos.certified;
  let vp = Sos.value sol v in
  (* The certificate must decrease along a simulated trajectory. *)
  let x = ref [| 1.0; -0.7 |] in
  let prev = ref (Poly.eval vp !x) in
  for _ = 1 to 200 do
    let dt = 0.01 in
    let dx0 = Poly.eval f.(0) !x and dx1 = Poly.eval f.(1) !x in
    x := [| !x.(0) +. (dt *. dx0); !x.(1) +. (dt *. dx1) |];
    let now = Poly.eval vp !x in
    Alcotest.(check bool) "V decreases" true (now <= !prev +. 1e-9);
    prev := now
  done

(* Nonlinear: dx = -x^3 admits V = x^2 with -V' * f = 2x^4. *)
let test_lyapunov_cubic () =
  let f = [| p1 [ ([ 3 ], -1.0) ] |] in
  let prob = Sos.create ~nvars:1 in
  let v = Sos.fresh_poly prob ~deg:2 ~min_deg:2 in
  Sos.add_sos prob (Ppoly.sub v (Ppoly.of_poly (p1 [ ([ 2 ], 0.1) ])));
  Sos.add_sos prob (Ppoly.neg (Ppoly.lie_derivative v f));
  let sol = Sos.solve prob in
  Alcotest.(check bool) "certified" true sol.Sos.certified

(* An SOS witness must reconstruct the polynomial: Σ p_i² = p. *)
let test_sos_witness () =
  let p = p1 [ ([ 4 ], 1.0); ([ 2 ], 2.0); ([ 0 ], 1.0 ) ] in
  let prob = Sos.create ~nvars:1 in
  Sos.add_sos prob (Ppoly.of_poly p);
  let sol = Sos.solve prob in
  Alcotest.(check bool) "certified" true sol.Sos.certified;
  let parts = Sos.sos_witness prob sol 0 in
  let reconstructed = Poly.sum 1 (List.map (fun q -> Poly.mul q q) parts) in
  Alcotest.(check bool) "reconstruction" true (Poly.approx_equal ~tol:1e-5 reconstructed p)

(* --- Lexpr / Ppoly primitives ---------------------------------------- *)

let test_lexpr_ops () =
  let open Sos.Lexpr in
  let v0 = Sos.Dvar.Free 0 and v1 = Sos.Dvar.Free 1 in
  let e = add (scale 2.0 (var v0)) (add_const 3.0 (var v1)) in
  let assign = function Sos.Dvar.Free 0 -> 5.0 | Sos.Dvar.Free 1 -> -1.0 | _ -> 0.0 in
  Alcotest.(check (float 1e-12)) "eval" (10.0 +. (-1.0) +. 3.0) (eval assign e);
  Alcotest.(check (float 1e-12)) "max_coeff" 3.0 (max_coeff e);
  Alcotest.(check bool) "sub to zero" true (is_const (sub e e));
  Alcotest.(check (float 1e-12)) "neg flips" (-3.0) (constant (neg e))

let test_ppoly_fix_var () =
  (* p = t0 * x0^2 * x1; fixing x1 := 2 gives 2*t0*x0^2 *)
  let e = Sos.Lexpr.var (Sos.Dvar.Free 0) in
  let p = Ppoly.of_terms 2 [ (Poly.Monomial.of_exponents [ 2; 1 ], e) ] in
  let q = Ppoly.fix_var 1 2.0 p in
  let assign = function Sos.Dvar.Free 0 -> 3.0 | _ -> 0.0 in
  let v = Ppoly.value assign q in
  Alcotest.(check (float 1e-12)) "value" (2.0 *. 3.0 *. 16.0) (Poly.eval v [| 4.0; 7.0 |])

let test_ppoly_apply_poly_map () =
  (* w = t0·x0^2 composed with x0 := x0 + x1: t0·(x0+x1)^2 *)
  let e = Sos.Lexpr.var (Sos.Dvar.Free 0) in
  let w = Ppoly.of_terms 2 [ (Poly.Monomial.of_exponents [ 2; 0 ], e) ] in
  let m =
    [| Poly.add (Poly.var 2 0) (Poly.var 2 1); Poly.var 2 1 |]
  in
  let composed = Ppoly.apply_poly_map m w in
  let assign = function Sos.Dvar.Free 0 -> 1.5 | _ -> 0.0 in
  let v = Ppoly.value assign composed in
  Alcotest.(check (float 1e-12)) "composition" (1.5 *. 25.0) (Poly.eval v [| 2.0; 3.0 |])

(* Equality multipliers: x >= 0 does not hold globally, but on the line
   {x - 1 = 0} it does. *)
let test_equality_multiplier () =
  let h = p1 [ ([ 1 ], 1.0); ([ 0 ], -1.0) ] in
  let x = Ppoly.of_poly (p1 [ ([ 1 ], 1.0) ]) in
  let prob0 = Sos.create ~nvars:1 in
  Sos.add_nonneg_on prob0 ~domain:[] x;
  Alcotest.(check bool) "globally fails" false (Sos.solve prob0).Sos.certified;
  let prob1 = Sos.create ~nvars:1 in
  Sos.add_nonneg_on prob1 ~equalities:[ h ] ~domain:[] x;
  Alcotest.(check bool) "on the surface holds" true (Sos.solve prob1).Sos.certified

(* Variable-restricted Gram bases must not change satisfiability: a
   polynomial in x0 only, posed in a 3-variable problem. *)
let test_var_restricted_basis () =
  let p3v = Poly.of_terms 3 [ (Poly.Monomial.of_exponents [ 4; 0; 0 ], 1.0); (Poly.Monomial.of_exponents [ 0; 0; 0 ], 1.0) ] in
  let prob = Sos.create ~nvars:3 in
  Sos.add_sos prob (Ppoly.of_poly p3v);
  let sol = Sos.solve prob in
  Alcotest.(check bool) "certified" true sol.Sos.certified;
  (* the Gram block only needs the x0-monomials 1, x0, x0^2 *)
  match Sos.gram_blocks sol with
  | [ g ] -> Alcotest.(check int) "basis pruned to 3" 3 g.Linalg.Mat.rows
  | _ -> Alcotest.fail "expected one gram block"

let test_objective_scale_expr () =
  (* maximize c subject to c <= 2 expressed via SOS slack: c + s = 2. *)
  let prob = Sos.create ~nvars:1 in
  let c = Sos.fresh_free prob in
  let slack = Sos.fresh_sos prob ~deg:0 in
  Sos.add_zero prob
    (Ppoly.add (Ppoly.scale_expr c (Poly.one 1))
       (Ppoly.sub slack (Ppoly.of_poly (Poly.const 1 2.0))));
  Sos.maximize prob c;
  let sol = Sos.solve prob in
  Alcotest.(check bool) "certified" true sol.Sos.certified;
  Alcotest.(check (float 1e-6)) "optimum" 2.0 sol.Sos.objective

(* fig2-family warm/cold agreement: inclusion-style S-procedure checks
   over the third-order PLL's mode domains (the exact problem shape the
   advection loop fans out every iteration), swept through one session.
   Warm solves must certify exactly what cold solves certify. *)
let test_session_fig2_family () =
  let s = Pll.scale Pll.table1_third in
  let n = s.Pll.nvars in
  let ball r =
    let sq = ref (Poly.const n (-.(r *. r))) in
    for i = 0 to n - 1 do
      let e = List.init n (fun j -> if j = i then 2 else 0) in
      sq :=
        Poly.add !sq (Poly.of_terms n [ (Poly.Monomial.of_exponents e, 1.0) ])
    done;
    !sq
  in
  let sess = Sdp.Session.create () in
  let contained ?session r_in r_out =
    (* S(ball r_in) ∩ D_0 inside the r_out ball — the Line-6 check shape. *)
    let prob = Sos.create ~nvars:n in
    Sos.add_nonneg_on ~mult_deg:2 prob
      ~domain:(Poly.neg (ball r_in) :: Pll.mode_domain s 0)
      (Sos.Ppoly.of_poly (Poly.neg (ball r_out)));
    let solver = Option.map (fun sess ?params p -> Sdp.Session.solve sess ?params p) session in
    let options = Sos.Options.make ?solver () in
    (Sos.solve ~options prob).Sos.certified
  in
  List.iter
    (fun r ->
      let cold = contained r 1.0 in
      let warm = contained ~session:sess r 1.0 in
      Alcotest.(check bool)
        (Printf.sprintf "verdict agrees at r=%g" r)
        cold warm;
      Alcotest.(check bool) (Printf.sprintf "certifies at r=%g" r) true warm)
    [ 0.2; 0.25; 0.3; 0.35 ];
  let c = Sdp.Session.counters sess in
  Alcotest.(check bool) "sweep actually warm" true (c.Sdp.Session.warm_accepted >= 1)

let suite =
  [
    Alcotest.test_case "lexpr ops" `Quick test_lexpr_ops;
    Alcotest.test_case "ppoly fix_var" `Quick test_ppoly_fix_var;
    Alcotest.test_case "ppoly apply_poly_map" `Quick test_ppoly_apply_poly_map;
    Alcotest.test_case "equality multiplier" `Quick test_equality_multiplier;
    Alcotest.test_case "variable-restricted basis" `Quick test_var_restricted_basis;
    Alcotest.test_case "objective via scale_expr" `Quick test_objective_scale_expr;
    Alcotest.test_case "sos feasible" `Quick test_sos_feasible;
    Alcotest.test_case "sos infeasible" `Quick test_sos_infeasible;
    Alcotest.test_case "motzkin not sos" `Quick test_motzkin_not_sos;
    Alcotest.test_case "global minimum 1d" `Quick test_global_minimum;
    Alcotest.test_case "global minimum 2d" `Quick test_global_minimum_2d;
    Alcotest.test_case "s-procedure" `Quick test_s_procedure;
    Alcotest.test_case "set inclusion" `Quick test_set_inclusion;
    Alcotest.test_case "lyapunov linear 2d" `Quick test_lyapunov_linear;
    Alcotest.test_case "lyapunov cubic" `Quick test_lyapunov_cubic;
    Alcotest.test_case "sos witness" `Quick test_sos_witness;
    Alcotest.test_case "session: fig2-family warm/cold verdicts" `Quick
      test_session_fig2_family;
  ]
