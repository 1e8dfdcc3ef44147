(* Unit and property tests for monomials and sparse multivariate
   polynomials. *)

module M = Poly.Monomial

let mono es = M.of_exponents es

let p2 terms = Poly.of_terms 2 (List.map (fun (es, c) -> (mono es, c)) terms)

(* --- Monomials --------------------------------------------------------- *)

let test_monomial_basics () =
  let m = mono [ 2; 1 ] in
  Alcotest.(check int) "degree" 3 (M.degree m);
  Alcotest.(check int) "arity" 2 (M.arity m);
  Alcotest.(check bool) "mul" true (M.equal (M.mul m (mono [ 0; 2 ])) (mono [ 2; 3 ]));
  Alcotest.(check bool) "divide ok" true (M.divide m (mono [ 1; 1 ]) = Some (mono [ 1; 0 ]));
  Alcotest.(check bool) "divide fail" true (M.divide (mono [ 1; 0 ]) (mono [ 0; 1 ]) = None);
  Alcotest.(check (float 1e-12)) "eval" 12.0 (Poly.eval (p2 [ ([ 2; 1 ], 1.0) ]) [| 2.0; 3.0 |]);
  Alcotest.(check string) "to_string" "x0^2*x1" (M.to_string m)

let test_monomial_enumeration () =
  Alcotest.(check int) "count deg<=3 in 2 vars" 10 (List.length (M.all_upto 2 3));
  Alcotest.(check int) "count deg=2 in 3 vars" 6 (List.length (M.all_of_degree 3 2));
  (* graded order: degrees non-decreasing *)
  let ds = List.map M.degree (M.all_upto 3 4) in
  Alcotest.(check bool) "graded order" true (List.sort compare ds = ds)

let test_monomial_order_consistency () =
  let l = M.all_upto 2 4 in
  let sorted = List.sort M.compare l in
  Alcotest.(check bool) "enumeration is sorted" true (List.equal M.equal l sorted)

(* --- Polynomial ring --------------------------------------------------- *)

let test_poly_arith () =
  let p = p2 [ ([ 1; 0 ], 1.0); ([ 0; 1 ], 1.0) ] in
  (* (x+y)^2 = x^2 + 2xy + y^2 *)
  let sq = Poly.mul p p in
  Alcotest.(check bool) "square" true
    (Poly.equal sq (p2 [ ([ 2; 0 ], 1.0); ([ 1; 1 ], 2.0); ([ 0; 2 ], 1.0) ]));
  Alcotest.(check bool) "pow agrees with mul" true (Poly.equal (Poly.pow p 2) sq);
  Alcotest.(check bool) "sub to zero" true (Poly.is_zero (Poly.sub sq sq));
  Alcotest.(check int) "degree" 2 (Poly.degree sq);
  Alcotest.(check (float 1e-12)) "eval" 25.0 (Poly.eval sq [| 2.0; 3.0 |])

let test_poly_cancellation () =
  let p = p2 [ ([ 1; 0 ], 1.0) ] and q = p2 [ ([ 1; 0 ], -1.0) ] in
  let z = Poly.add p q in
  Alcotest.(check bool) "exact cancellation drops term" true (Poly.is_zero z);
  Alcotest.(check int) "zero degree convention" (-1) (Poly.degree z)

let test_poly_partial () =
  (* d/dx (x^3 y + 2 x) = 3 x^2 y + 2 *)
  let p = p2 [ ([ 3; 1 ], 1.0); ([ 1; 0 ], 2.0) ] in
  let px = Poly.partial 0 p in
  Alcotest.(check bool) "partial" true
    (Poly.equal px (p2 [ ([ 2; 1 ], 3.0); ([ 0; 0 ], 2.0) ]))

let test_lie_derivative () =
  (* V = x^2 + y^2 along f = (-y, x) (rotation): dV/dt = 0 *)
  let v = p2 [ ([ 2; 0 ], 1.0); ([ 0; 2 ], 1.0) ] in
  let f = [| p2 [ ([ 0; 1 ], -1.0) ]; p2 [ ([ 1; 0 ], 1.0) ] |] in
  Alcotest.(check bool) "rotation conserves norm" true (Poly.is_zero (Poly.lie_derivative v f));
  (* along f = (-x, -y): dV/dt = -2V *)
  let g = [| p2 [ ([ 1; 0 ], -1.0) ]; p2 [ ([ 0; 1 ], -1.0) ] |] in
  Alcotest.(check bool) "contraction" true
    (Poly.approx_equal (Poly.lie_derivative v g) (Poly.scale (-2.0) v))

let test_subst_shift () =
  (* p(x,y) = x*y; substitute x := x+1, y := y-2 *)
  let p = p2 [ ([ 1; 1 ], 1.0) ] in
  let shifted = Poly.shift p [| 1.0; -2.0 |] in
  Alcotest.(check (float 1e-12)) "shift eval" ((3.0 +. 1.0) *. (4.0 -. 2.0))
    (Poly.eval shifted [| 3.0; 4.0 |]);
  (* subst into polynomials of another arity *)
  let q3 = Poly.of_terms 3 [ (M.of_exponents [ 1; 0; 0 ], 1.0) ] in
  let r3 = Poly.of_terms 3 [ (M.of_exponents [ 0; 1; 1 ], 1.0) ] in
  let composed = Poly.subst p [| q3; r3 |] in
  Alcotest.(check (float 1e-12)) "subst eval" (2.0 *. (3.0 *. 5.0))
    (Poly.eval composed [| 2.0; 3.0; 5.0 |])

let test_hessian_symmetry () =
  let p = p2 [ ([ 3; 1 ], 2.0); ([ 1; 2 ], -1.0); ([ 2; 0 ], 0.5 ) ] in
  let h = Poly.hessian p in
  Alcotest.(check bool) "hessian symmetric" true (Poly.equal h.(0).(1) h.(1).(0))

let test_quadratic_form () =
  let q = Linalg.Mat.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let p = Poly.quadratic_form q in
  Alcotest.(check (float 1e-12)) "x'Qx" (2.0 +. 2.0 +. 3.0) (Poly.eval p [| 1.0; 1.0 |])

let test_chop_max_coeff () =
  let p = p2 [ ([ 1; 0 ], 1e-14); ([ 0; 1 ], 2.0) ] in
  Alcotest.(check bool) "chop drops tiny" true
    (Poly.equal (Poly.chop p) (p2 [ ([ 0; 1 ], 2.0) ]));
  Alcotest.(check (float 1e-12)) "max_coeff" 2.0 (Poly.max_coeff p)

let test_to_string () =
  let p = p2 [ ([ 2; 0 ], 1.5); ([ 0; 1 ], -2.0); ([ 0; 0 ], 1.0) ] in
  Alcotest.(check string) "printing" "1 - 2*x1 + 1.5*x0^2" (Poly.to_string p)

let test_of_string () =
  let p = Poly.of_string 2 "1.5*x0^2 - 2*x1 + 3" in
  Alcotest.(check bool) "basic" true
    (Poly.equal p (p2 [ ([ 2; 0 ], 1.5); ([ 0; 1 ], -2.0); ([ 0; 0 ], 3.0) ]));
  let q = Poly.of_string 2 "(x0 + x1)^2" in
  Alcotest.(check bool) "parenthesized power" true
    (Poly.equal q (p2 [ ([ 2; 0 ], 1.0); ([ 1; 1 ], 2.0); ([ 0; 2 ], 1.0) ]));
  let r = Poly.of_string ~names:[| "v"; "theta" |] 2 "-v*theta + 2e-1" in
  Alcotest.(check (float 1e-12)) "custom names + scientific" (-5.8)
    (Poly.eval r [| 2.0; 3.0 |]);
  Alcotest.check_raises "unknown variable"
    (Invalid_argument "Poly.of_string: unknown variable y") (fun () ->
      ignore (Poly.of_string 2 "y + 1"));
  (match Poly.of_string 2 "x0 + " with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "must reject dangling operator")

(* --- Property tests ----------------------------------------------------- *)

let poly_gen =
  let open QCheck.Gen in
  let term = pair (pair (int_bound 3) (int_bound 3)) (float_bound_inclusive 4.0) in
  list_size (int_bound 6) term
  |> map (fun terms ->
         Poly.of_terms 2 (List.map (fun ((i, j), c) -> (mono [ i; j ], c)) terms))

let arb_poly = QCheck.make ~print:Poly.to_string poly_gen

let arb_point =
  QCheck.make
    QCheck.Gen.(pair (float_bound_inclusive 2.0) (float_bound_inclusive 2.0))

let prop_ring_distributive =
  QCheck.Test.make ~name:"distributivity p(q+r) = pq + pr" ~count:200
    (QCheck.triple arb_poly arb_poly arb_poly)
    (fun (p, q, r) ->
      Poly.approx_equal ~tol:1e-6
        (Poly.mul p (Poly.add q r))
        (Poly.add (Poly.mul p q) (Poly.mul p r)))

let prop_mul_commutative =
  QCheck.Test.make ~name:"multiplication commutes" ~count:200 (QCheck.pair arb_poly arb_poly)
    (fun (p, q) -> Poly.approx_equal (Poly.mul p q) (Poly.mul q p))

let prop_eval_homomorphism =
  QCheck.Test.make ~name:"eval is a ring homomorphism" ~count:200
    (QCheck.triple arb_poly arb_poly arb_point)
    (fun (p, q, (x, y)) ->
      let pt = [| x; y |] in
      let lhs = Poly.eval (Poly.mul p q) pt and rhs = Poly.eval p pt *. Poly.eval q pt in
      Float.abs (lhs -. rhs) <= 1e-6 *. (1.0 +. Float.abs rhs))

let prop_derivative_linear =
  QCheck.Test.make ~name:"partial is linear" ~count:200 (QCheck.pair arb_poly arb_poly)
    (fun (p, q) ->
      Poly.approx_equal
        (Poly.partial 0 (Poly.add p q))
        (Poly.add (Poly.partial 0 p) (Poly.partial 0 q)))

let prop_leibniz =
  QCheck.Test.make ~name:"Leibniz rule d(pq) = p dq + q dp" ~count:200
    (QCheck.pair arb_poly arb_poly)
    (fun (p, q) ->
      Poly.approx_equal ~tol:1e-6
        (Poly.partial 1 (Poly.mul p q))
        (Poly.add (Poly.mul p (Poly.partial 1 q)) (Poly.mul q (Poly.partial 1 p))))

let arb_mono =
  QCheck.make
    QCheck.Gen.(
      pair (int_bound 4) (int_bound 4) |> map (fun (i, j) -> mono [ i; j ]))

let prop_mono_mul_degree =
  QCheck.Test.make ~name:"deg(m*n) = deg m + deg n" ~count:200 (QCheck.pair arb_mono arb_mono)
    (fun (a, b) -> M.degree (M.mul a b) = M.degree a + M.degree b)

let prop_mono_divide_mul =
  QCheck.Test.make ~name:"(m*n)/n = m" ~count:200 (QCheck.pair arb_mono arb_mono)
    (fun (a, b) ->
      match M.divide (M.mul a b) b with Some q -> M.equal q a | None -> false)

let prop_parse_roundtrip =
  (* to_string prints with %g (6 significant digits), so the roundtrip is
     exact only to that precision. *)
  QCheck.Test.make ~name:"of_string (to_string p) = p" ~count:200 arb_poly (fun p ->
      let tol = 1e-5 *. (1.0 +. Poly.max_coeff p) in
      Poly.approx_equal ~tol (Poly.of_string 2 (Poly.to_string p)) p)

let prop_shift_inverse =
  QCheck.Test.make ~name:"shift by c then -c is identity" ~count:100
    (QCheck.pair arb_poly arb_point)
    (fun (p, (cx, cy)) ->
      Poly.approx_equal ~tol:1e-5 (Poly.shift (Poly.shift p [| cx; cy |]) [| -.cx; -.cy |]) p)

(* The evaluation [Poly.eval] replaced: a fold over the terms in map
   order, each monomial built by repeated multiplication in variable
   order. Kept here as the oracle the staged evaluator must match bit
   for bit. *)
let fold_eval p x =
  let mono_eval m =
    let v = ref 1.0 in
    Array.iteri
      (fun i e ->
        for _ = 1 to e do
          v := !v *. x.(i)
        done)
      m;
    !v
  in
  List.fold_left (fun acc (m, c) -> acc +. (c *. mono_eval m)) 0.0 (Poly.terms p)

(* Awkward floats: signed zeros, subnormals, and ordinary magnitudes. *)
let awkward_float =
  let open QCheck.Gen in
  frequency
    [
      (1, return 0.0);
      (1, return (-0.0));
      (1, map (fun k -> float_of_int (k - 8) *. 4.9e-324) (int_bound 16));
      (1, map (fun f -> f *. 1e-310) (float_bound_inclusive 5.0));
      (6, float_range (-8.0) 8.0);
    ]

(* A polynomial in 1-4 variables of degree <= 6 (possibly zero or
   constant) and a point of its arity. *)
let poly_point_gen =
  let open QCheck.Gen in
  let* n = int_range 1 4 in
  (* Exponents of total degree <= 6, drawn variable by variable. *)
  let mono_gen =
    let rec go i left acc =
      if i = n then return (Array.of_list (List.rev acc))
      else
        let* e = int_bound left in
        go (i + 1) (left - e) (e :: acc)
    in
    go 0 6 []
  in
  let* terms = list_size (int_bound 8) (pair mono_gen awkward_float) in
  let* x =
    array_repeat n
      (frequency
         [ (1, return 0.0); (1, return (-0.0)); (6, float_range (-3.0) 3.0) ])
  in
  return (Poly.of_terms n terms, x)

let prop_eval_matches_fold =
  QCheck.Test.make ~name:"eval equals the map fold bit for bit" ~count:500
    (QCheck.make
       ~print:(fun (p, x) ->
         Printf.sprintf "%s at [%s]" (Poly.to_string p)
           (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") x))))
       poly_point_gen)
    (fun (p, x) ->
      Int64.equal (Int64.bits_of_float (Poly.eval p x)) (Int64.bits_of_float (fold_eval p x)))

(* The monomial order is part of the cache-key contract (DESIGN.md §3):
   it fixes every map's binding order, so the SDPs posed from them. Its
   definition: lower total degree first, then polymorphic compare on
   the exponent vectors. Pairs are drawn small so that equal degrees and
   equal vectors are common; a third of them are a permutation of the
   first vector (same degree) and some are copies of it. *)
let mono_pair_gen =
  let open QCheck.Gen in
  let* n = int_range 0 5 in
  let* a = array_repeat n (int_bound 3) in
  let* b =
    frequency
      [
        (3, array_repeat n (int_bound 3));
        (2, (let c = Array.copy a in shuffle_a c >|= fun () -> c));
        (1, return (Array.copy a));
      ]
  in
  return (a, b)

let prop_mono_compare_order =
  let sign c = Int.compare c 0 in
  QCheck.Test.make ~name:"Monomial.compare is degree, then polymorphic compare" ~count:1000
    (QCheck.make
       ~print:(fun (a, b) -> Printf.sprintf "%s vs %s" (M.to_string a) (M.to_string b))
       mono_pair_gen)
    (fun (a, b) ->
      let reference =
        let c = Int.compare (M.degree a) (M.degree b) in
        if c <> 0 then c else Stdlib.compare a b
      in
      sign (M.compare a b) = sign reference)

let suite =
  [
    Alcotest.test_case "monomial basics" `Quick test_monomial_basics;
    Alcotest.test_case "monomial enumeration" `Quick test_monomial_enumeration;
    Alcotest.test_case "monomial order" `Quick test_monomial_order_consistency;
    Alcotest.test_case "poly arithmetic" `Quick test_poly_arith;
    Alcotest.test_case "poly cancellation" `Quick test_poly_cancellation;
    Alcotest.test_case "poly partial" `Quick test_poly_partial;
    Alcotest.test_case "lie derivative" `Quick test_lie_derivative;
    Alcotest.test_case "subst and shift" `Quick test_subst_shift;
    Alcotest.test_case "hessian symmetry" `Quick test_hessian_symmetry;
    Alcotest.test_case "quadratic form" `Quick test_quadratic_form;
    Alcotest.test_case "chop and max_coeff" `Quick test_chop_max_coeff;
    Alcotest.test_case "to_string" `Quick test_to_string;
    Alcotest.test_case "of_string" `Quick test_of_string;
    QCheck_alcotest.to_alcotest prop_ring_distributive;
    QCheck_alcotest.to_alcotest prop_mul_commutative;
    QCheck_alcotest.to_alcotest prop_eval_homomorphism;
    QCheck_alcotest.to_alcotest prop_derivative_linear;
    QCheck_alcotest.to_alcotest prop_leibniz;
    QCheck_alcotest.to_alcotest prop_mono_mul_degree;
    QCheck_alcotest.to_alcotest prop_mono_divide_mul;
    QCheck_alcotest.to_alcotest prop_parse_roundtrip;
    QCheck_alcotest.to_alcotest prop_shift_inverse;
    QCheck_alcotest.to_alcotest prop_eval_matches_fold;
    QCheck_alcotest.to_alcotest prop_mono_compare_order;
  ]
