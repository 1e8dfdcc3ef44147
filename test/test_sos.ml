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

(* --- Posing's order and arithmetic contracts ---------------------------- *)

(* The decision-variable order is part of the cache-key contract
   (DESIGN.md §3): every constraint lists its variables in it. Its
   definition is polymorphic compare on [Dvar.t]. Small index ranges make
   equal values and equal leading fields common. *)
let dvar_gen =
  let open QCheck.Gen in
  frequency
    [
      (1, map (fun i -> Sos.Dvar.Free i) (int_range (-2) 3));
      ( 2,
        map3 (fun b i j -> Sos.Dvar.Gram (b, i, j)) (int_range (-1) 2) (int_bound 2) (int_bound 2)
      );
    ]

let print_dvar v = Format.asprintf "%a" Sos.Dvar.pp v

let prop_dvar_compare_order =
  let sign c = Int.compare c 0 in
  QCheck.Test.make ~name:"Dvar.compare is polymorphic compare" ~count:1000
    (QCheck.make
       ~print:(fun (a, b) -> print_dvar a ^ " vs " ^ print_dvar b)
       QCheck.Gen.(frequency [ (4, pair dvar_gen dvar_gen); (1, dvar_gen >|= fun v -> (v, v)) ]))
    (fun (a, b) -> sign (Sos.Dvar.compare a b) = sign (Stdlib.compare a b))

(* The map arithmetic posing replaced, kept as the oracle it must match
   bit for bit: monomials ordered by degree, then polymorphic compare;
   variables by polymorphic compare; a term added with [find_opt] then
   [add] or [remove]; subtraction through a negated copy; a product
   term scaled before it is added. *)
module Old = struct
  module M = Poly.Monomial

  module MonoMap = Map.Make (struct
    type t = M.t

    let compare a b =
      let c = Int.compare (M.degree a) (M.degree b) in
      if c <> 0 then c else Stdlib.compare a b
  end)

  module VMap = Map.Make (struct
    type t = Sos.Dvar.t

    let compare = Stdlib.compare
  end)

  type lexpr = { const : float; vars : float VMap.t }

  let l_zero = { const = 0.0; vars = VMap.empty }

  let l_add_term v c m =
    let c' = c +. (match VMap.find_opt v m with Some x -> x | None -> 0.0) in
    if c' = 0.0 then VMap.remove v m else VMap.add v c' m

  let l_of_terms c terms =
    { const = c; vars = List.fold_left (fun m (v, c) -> l_add_term v c m) VMap.empty terms }

  let l_add a b = { const = a.const +. b.const; vars = VMap.fold l_add_term b.vars a.vars }
  let l_neg a = { const = -.a.const; vars = VMap.map (fun c -> -.c) a.vars }

  let l_scale s a =
    if s = 0.0 then l_zero else { const = s *. a.const; vars = VMap.map (fun c -> s *. c) a.vars }

  let l_is_zero e = VMap.is_empty e.vars && e.const = 0.0

  (* Ppoly *)
  let p_add_term m e map =
    let e' = match MonoMap.find_opt m map with Some x -> l_add x e | None -> e in
    if l_is_zero e' then MonoMap.remove m map else MonoMap.add m e' map

  let p_of_terms l = List.fold_left (fun acc (m, e) -> p_add_term m e acc) MonoMap.empty l
  let p_add a b = MonoMap.fold p_add_term b a
  let p_sub a b = p_add a (MonoMap.map l_neg b)
  let p_scale s a = if s = 0.0 then MonoMap.empty else MonoMap.map (l_scale s) a

  let p_mul_poly q a =
    MonoMap.fold
      (fun mq cq acc ->
        MonoMap.fold (fun ma ea acc -> p_add_term (M.mul mq ma) (l_scale cq ea) acc) a acc)
      q MonoMap.empty

  let p_partial i a =
    MonoMap.fold
      (fun m e acc ->
        let ei = m.(i) in
        if ei = 0 then acc
        else begin
          let m' = Array.copy m in
          m'.(i) <- ei - 1;
          p_add_term m' (l_scale (float_of_int ei) e) acc
        end)
      a MonoMap.empty

  let p_fix_var i c a =
    MonoMap.fold
      (fun m e acc ->
        let ei = m.(i) in
        if ei = 0 then p_add_term m e acc
        else begin
          let m' = Array.copy m in
          m'.(i) <- 0;
          p_add_term m' (l_scale (Float.pow c (float_of_int ei)) e) acc
        end)
      a MonoMap.empty

  (* Poly *)
  let add_term m c map =
    let c' = c +. (match MonoMap.find_opt m map with Some v -> v | None -> 0.0) in
    if c' = 0.0 then MonoMap.remove m map else MonoMap.add m c' map

  let of_terms l = List.fold_left (fun acc (m, c) -> add_term m c acc) MonoMap.empty l
  let add a b = MonoMap.fold add_term b a
  let sub a b = add a (MonoMap.map (fun c -> -.c) b)

  let mul a b =
    MonoMap.fold
      (fun ma ca acc ->
        MonoMap.fold (fun mb cb acc -> add_term (M.mul ma mb) (ca *. cb) acc) b acc)
      a MonoMap.empty
end

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let pairwise f a b = List.compare_lengths a b = 0 && List.for_all2 f a b

let same_poly p o =
  pairwise
    (fun (m, c) (m', c') -> Poly.Monomial.equal m m' && same_bits c c')
    (Poly.terms p) (Old.MonoMap.bindings o)

let same_lexpr e (o : Old.lexpr) =
  same_bits (Lexpr.constant e) o.Old.const
  && pairwise
       (fun (v, c) (v', c') -> Sos.Dvar.equal v v' && same_bits c c')
       (Lexpr.terms e) (Old.VMap.bindings o.Old.vars)

let same_ppoly p o =
  pairwise
    (fun (m, e) (m', e') -> Poly.Monomial.equal m m' && same_lexpr e e')
    (Ppoly.terms p) (Old.MonoMap.bindings o)

(* Few monomials (two variables, exponents <= 2), few variables and
   coefficients that cancel: signed zeros, +-x pairs, and subnormals
   that a product flushes to zero. *)
let coeff_gen =
  QCheck.Gen.oneofl [ 1.0; -1.0; 0.5; -0.5; 0.1; -0.1; 3.0; 0.0; -0.0; 1e-310; -1e-310 ]

let mono_gen = QCheck.Gen.(map2 (fun i j -> Poly.Monomial.of_exponents [ i; j ]) (int_bound 2) (int_bound 2))

let lexpr_gen =
  QCheck.Gen.(pair coeff_gen (list_size (int_bound 4) (pair dvar_gen coeff_gen)))

(* A partner for the terms [t]: each kept whole, negated, or dropped,
   then fresh terms, so adding or subtracting the two cancels terms
   exactly. *)
let partner_gen neg fresh t =
  let open QCheck.Gen in
  let* kept =
    flatten_l
      (List.map
         (fun (m, x) ->
           oneofl [ Some (m, x); Some (m, neg x); None ])
         t)
  in
  let* extra = fresh in
  return (List.filter_map Fun.id kept @ extra)

let neg_lexpr (c, vs) = (-.c, List.map (fun (v, c) -> (v, -.c)) vs)

let ppoly_terms_gen = QCheck.Gen.(list_size (int_bound 6) (pair mono_gen lexpr_gen))
let poly_terms_gen = QCheck.Gen.(list_size (int_bound 6) (pair mono_gen coeff_gen))

type case = {
  pt : (Poly.Monomial.t * (float * (Sos.Dvar.t * float) list)) list;
  pt' : (Poly.Monomial.t * (float * (Sos.Dvar.t * float) list)) list;
  qt : (Poly.Monomial.t * float) list;
  qt' : (Poly.Monomial.t * float) list;
  s : float;
}

let case_gen =
  let open QCheck.Gen in
  let* pt = ppoly_terms_gen in
  let* pt' = partner_gen neg_lexpr ppoly_terms_gen pt in
  let* qt = poly_terms_gen in
  let* qt' = partner_gen (fun c -> -.c) poly_terms_gen qt in
  let* s = coeff_gen in
  return { pt; pt'; qt; qt'; s }

let print_case c =
  let mono = Poly.Monomial.to_string in
  let lexpr (k, vs) =
    String.concat " + "
      (Printf.sprintf "%h" k :: List.map (fun (v, c) -> Printf.sprintf "%h*%s" c (print_dvar v)) vs)
  in
  let pterms t = String.concat "; " (List.map (fun (m, e) -> Printf.sprintf "%s: %s" (mono m) (lexpr e)) t) in
  let qterms t = String.concat "; " (List.map (fun (m, c) -> Printf.sprintf "%h*%s" c (mono m)) t) in
  Printf.sprintf "p = [%s]\np' = [%s]\nq = [%s]\nq' = [%s]\ns = %h" (pterms c.pt) (pterms c.pt')
    (qterms c.qt) (qterms c.qt') c.s

let prop_map_arithmetic_oracle =
  QCheck.Test.make ~name:"Ppoly and Poly arithmetic match the find/add/remove oracle bit for bit"
    ~count:1000 (QCheck.make ~print:print_case case_gen) (fun c ->
      let lexprs t = List.map (fun (m, (k, vs)) -> (m, Lexpr.of_terms k vs)) t in
      let old_lexprs t = List.map (fun (m, (k, vs)) -> (m, Old.l_of_terms k vs)) t in
      let p = Ppoly.of_terms 2 (lexprs c.pt) and p' = Ppoly.of_terms 2 (lexprs c.pt') in
      let op = Old.p_of_terms (old_lexprs c.pt) and op' = Old.p_of_terms (old_lexprs c.pt') in
      let q = Poly.of_terms 2 c.qt and q' = Poly.of_terms 2 c.qt' in
      let oq = Old.of_terms c.qt and oq' = Old.of_terms c.qt' in
      same_ppoly p op && same_ppoly p' op'
      && same_ppoly (Ppoly.add p p') (Old.p_add op op')
      && same_ppoly (Ppoly.sub p p') (Old.p_sub op op')
      && same_ppoly (Ppoly.mul_poly q p) (Old.p_mul_poly oq op)
      && same_ppoly (Ppoly.mul_poly q' p') (Old.p_mul_poly oq' op')
      && same_ppoly (Ppoly.scale c.s p) (Old.p_scale c.s op)
      && same_ppoly (Ppoly.partial 0 p) (Old.p_partial 0 op)
      && same_ppoly (Ppoly.fix_var 1 c.s p') (Old.p_fix_var 1 c.s op')
      && same_poly q oq
      && same_poly (Poly.add q q') (Old.add oq oq')
      && same_poly (Poly.sub q q') (Old.sub oq oq')
      && same_poly (Poly.mul q q') (Old.mul oq oq'))

(* Correct results, not only unchanged bytes: a polynomial built as a
   sum of 1-3 squares of random polynomials of degree <= 2 in 2-3
   variables is certified SOS by posing it and solving. Fixed seed. *)
let square_sum_gen =
  let open QCheck.Gen in
  let* n = int_range 2 3 in
  let term =
    pair
      (array_repeat n (int_bound 2)
      |> map (fun e -> Poly.Monomial.of_exponents (Array.to_list e)))
      (oneofl [ -2.0; -1.5; -1.0; -0.5; 0.5; 1.0; 1.5; 2.0 ])
  in
  let factor =
    list_size (int_range 1 4) term
    |> map (fun ts ->
           List.filter (fun (m, _) -> Poly.Monomial.degree m <= 2) ts |> Poly.of_terms n)
  in
  let* qs = list_size (int_range 1 3) factor in
  let qs = List.filter (fun q -> not (Poly.is_zero q)) qs in
  return (n, if qs = [] then [ Poly.one n ] else qs)

let prop_random_sos_certified =
  QCheck.Test.make ~name:"a random sum of squares is certified SOS" ~count:30
    (QCheck.make
       ~print:(fun (_, qs) -> String.concat " ; " (List.map Poly.to_string qs))
       square_sum_gen)
    (fun (n, qs) ->
      let p = Poly.sum n (List.map (fun q -> Poly.mul q q) qs) in
      let prob = Sos.create ~nvars:n in
      Sos.add_sos prob (Ppoly.of_poly p);
      (Sos.solve prob).Sos.certified)

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
    QCheck_alcotest.to_alcotest prop_dvar_compare_order;
    QCheck_alcotest.to_alcotest prop_map_arithmetic_oracle;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20151 |]) prop_random_sos_certified;
  ]
