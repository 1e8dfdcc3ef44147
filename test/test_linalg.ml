(* Unit and property tests for the dense linear algebra kernel. *)

module Mat = Linalg.Mat
module Vec = Linalg.Vec

let check_float = Alcotest.(check (float 1e-9))

(* --- Vec ------------------------------------------------------------ *)

let test_vec_ops () =
  let x = Vec.of_list [ 1.0; 2.0; 3.0 ] and y = Vec.of_list [ 4.0; -1.0; 0.5 ] in
  check_float "dot" 3.5 (Vec.dot x y);
  Alcotest.(check bool) "add" true (Vec.approx_equal (Vec.add x y) (Vec.of_list [ 5.0; 1.0; 3.5 ]));
  Alcotest.(check bool) "sub" true (Vec.approx_equal (Vec.sub x y) (Vec.of_list [ -3.0; 3.0; 2.5 ]));
  check_float "norm2" (sqrt 14.0) (Vec.norm2 x);
  check_float "norm_inf" 4.0 (Vec.norm_inf y);
  Alcotest.(check int) "max_abs_index" 0 (Vec.max_abs_index y)

let test_vec_axpy () =
  let x = Vec.of_list [ 1.0; 2.0 ] in
  let y = Vec.of_list [ 10.0; 20.0 ] in
  Vec.axpy 2.0 x y;
  Alcotest.(check bool) "axpy" true (Vec.approx_equal y (Vec.of_list [ 12.0; 24.0 ]))

let test_vec_dim_mismatch () =
  Alcotest.check_raises "dot mismatch" (Invalid_argument "Vec.dot: dimension mismatch (2 vs 3)")
    (fun () -> ignore (Vec.dot [| 1.0; 2.0 |] [| 1.0; 2.0; 3.0 |]))

(* --- Mat basics ------------------------------------------------------ *)

let test_mat_mul () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Mat.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Mat.mul a b in
  Alcotest.(check bool) "product" true
    (Mat.approx_equal c (Mat.of_arrays [| [| 19.0; 22.0 |]; [| 43.0; 50.0 |] |]))

let test_mat_transpose_identities () =
  let a = Mat.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let att = Mat.transpose (Mat.transpose a) in
  Alcotest.(check bool) "transpose involution" true (Mat.approx_equal a att);
  let x = [| 1.0; -1.0; 2.0 |] in
  Alcotest.(check bool) "tmul_vec = transpose mul_vec" true
    (Vec.approx_equal (Mat.mul_vec a x) (Mat.tmul_vec (Mat.transpose a) x))

let test_mat_trace_frob () =
  let a = Mat.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  check_float "trace" 5.0 (Mat.trace a);
  check_float "frob self" (4.0 +. 1.0 +. 1.0 +. 9.0) (Mat.frob_dot a a)

(* --- Solvers ---------------------------------------------------------- *)

let random_spd rng n =
  let b = Mat.init n n (fun _ _ -> Random.State.float rng 2.0 -. 1.0) in
  Mat.add (Mat.mul b (Mat.transpose b)) (Mat.scale (float_of_int n *. 0.1) (Mat.identity n))

let test_cholesky_roundtrip () =
  let rng = Random.State.make [| 7 |] in
  for n = 1 to 8 do
    let a = random_spd rng n in
    match Mat.cholesky a with
    | None -> Alcotest.fail "SPD matrix must factor"
    | Some l ->
        let reconstructed = Mat.mul l (Mat.transpose l) in
        Alcotest.(check bool) "L L' = A" true (Mat.approx_equal ~tol:1e-8 reconstructed a)
  done

let test_cholesky_rejects_indefinite () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  Alcotest.(check bool) "indefinite rejected" true (Mat.cholesky a = None)

let test_chol_solve () =
  let rng = Random.State.make [| 11 |] in
  let a = random_spd rng 6 in
  let x_true = Array.init 6 (fun i -> float_of_int i -. 2.5) in
  let b = Mat.mul_vec a x_true in
  match Mat.cholesky a with
  | None -> Alcotest.fail "factor"
  | Some l ->
      let x = Mat.chol_solve l b in
      Alcotest.(check bool) "solution" true (Vec.approx_equal ~tol:1e-7 x x_true)

let test_gauss_solve () =
  let a = Mat.of_arrays [| [| 0.0; 2.0; 1.0 |]; [| 1.0; -1.0; 0.0 |]; [| 3.0; 0.0; -1.0 |] |] in
  let x_true = [| 1.0; 2.0; -1.0 |] in
  let b = Mat.mul_vec a x_true in
  let x = Mat.solve a b in
  Alcotest.(check bool) "pivoting solve" true (Vec.approx_equal ~tol:1e-9 x x_true)

let test_solve_singular () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" (Failure "Mat.solve: singular matrix") (fun () ->
      ignore (Mat.solve a [| 1.0; 1.0 |]))

let test_inverse () =
  let a = Mat.of_arrays [| [| 4.0; 7.0 |]; [| 2.0; 6.0 |] |] in
  let ai = Mat.inverse a in
  Alcotest.(check bool) "A * A^-1 = I" true
    (Mat.approx_equal ~tol:1e-9 (Mat.mul a ai) (Mat.identity 2))

let test_lstsq () =
  (* Overdetermined consistent system. *)
  let a = Mat.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  let x_true = [| 2.0; -1.0 |] in
  let b = Mat.mul_vec a x_true in
  let x = Mat.lstsq a b in
  Alcotest.(check bool) "least squares" true (Vec.approx_equal ~tol:1e-5 x x_true)

(* --- Eigenvalues ------------------------------------------------------ *)

let test_sym_eig_diag () =
  let a = Mat.diag [| 3.0; 1.0; 2.0 |] in
  let w, _ = Mat.sym_eig a in
  Alcotest.(check bool) "sorted eigenvalues" true (Vec.approx_equal w [| 1.0; 2.0; 3.0 |])

let test_sym_eig_reconstruction () =
  let rng = Random.State.make [| 3 |] in
  for n = 2 to 7 do
    let a = Mat.symmetrize (Mat.init n n (fun _ _ -> Random.State.float rng 2.0 -. 1.0)) in
    let w, v = Mat.sym_eig a in
    (* A = V diag(w) V' *)
    let reconstructed = Mat.mul v (Mat.mul (Mat.diag w) (Mat.transpose v)) in
    Alcotest.(check bool) "eigendecomposition" true (Mat.approx_equal ~tol:1e-7 reconstructed a);
    (* V orthogonal *)
    Alcotest.(check bool) "orthogonal" true
      (Mat.approx_equal ~tol:1e-8 (Mat.mul (Mat.transpose v) v) (Mat.identity n))
  done

let test_qr_roundtrip () =
  let rng = Random.State.make [| 13 |] in
  List.iter
    (fun (m, n) ->
      let a = Mat.init m n (fun _ _ -> Random.State.float rng 2.0 -. 1.0) in
      let q, r = Mat.qr a in
      Alcotest.(check bool) "QR = A" true (Mat.approx_equal ~tol:1e-9 (Mat.mul q r) a);
      Alcotest.(check bool) "Q'Q = I" true
        (Mat.approx_equal ~tol:1e-9 (Mat.mul (Mat.transpose q) q) (Mat.identity n));
      (* R upper triangular *)
      let upper = ref true in
      for i = 0 to n - 1 do
        for j = 0 to i - 1 do
          if Float.abs (Mat.get r i j) > 1e-12 then upper := false
        done
      done;
      Alcotest.(check bool) "R upper" true !upper)
    [ (3, 3); (5, 3); (8, 8); (10, 2) ]

let test_qr_rejects_wide () =
  Alcotest.check_raises "wide matrix" (Invalid_argument "Mat.qr: needs rows >= cols")
    (fun () -> ignore (Mat.qr (Mat.create 2 3)))

let test_expm_diagonal () =
  let a = Mat.diag [| 1.0; -2.0 |] in
  let e = Mat.expm a in
  check_float "e^1" (exp 1.0) (Mat.get e 0 0);
  check_float "e^-2" (exp (-2.0)) (Mat.get e 1 1);
  check_float "off-diagonal" 0.0 (Mat.get e 0 1)

let test_expm_rotation () =
  (* exp(t·[[0,-1],[1,0]]) is a rotation by t. *)
  let t = 0.7 in
  let a = Mat.of_arrays [| [| 0.0; -.t |]; [| t; 0.0 |] |] in
  let e = Mat.expm a in
  check_float "cos" (cos t) (Mat.get e 0 0);
  check_float "sin" (sin t) (Mat.get e 1 0)

let test_expm_nilpotent () =
  (* exp([[0,1],[0,0]]) = [[1,1],[0,1]] exactly. *)
  let a = Mat.of_arrays [| [| 0.0; 1.0 |]; [| 0.0; 0.0 |] |] in
  let e = Mat.expm a in
  Alcotest.(check bool) "unipotent" true
    (Mat.approx_equal ~tol:1e-12 e (Mat.of_arrays [| [| 1.0; 1.0 |]; [| 0.0; 1.0 |] |]))

let test_expm_large_norm () =
  (* Scaling-and-squaring must handle |A| >> 1: exp(diag(5, -5)). *)
  let e = Mat.expm (Mat.diag [| 5.0; -5.0 |]) in
  Alcotest.(check bool) "e^5" true (Float.abs (Mat.get e 0 0 -. exp 5.0) < 1e-6 *. exp 5.0);
  Alcotest.(check bool) "e^-5" true (Float.abs (Mat.get e 1 1 -. exp (-5.0)) < 1e-9)

let test_min_eig_known () =
  let a = Mat.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 2.0 |] |] in
  check_float "min eig" 1.0 (Mat.min_eig a);
  Alcotest.(check bool) "psd" true (Mat.is_psd a)

(* --- Property tests --------------------------------------------------- *)

let mat_gen n =
  QCheck.Gen.(
    array_size (return (n * n)) (float_bound_inclusive 2.0)
    |> map (fun data -> { Mat.rows = n; cols = n; data }))

let prop_cholesky_psd =
  QCheck.Test.make ~name:"chol succeeds => matrix is PSD" ~count:100
    (QCheck.make (mat_gen 4))
    (fun m ->
      let a = Mat.add (Mat.symmetrize m) (Mat.scale 0.0 (Mat.identity 4)) in
      match Mat.cholesky a with
      | None -> true
      | Some _ -> Mat.min_eig a >= -1e-8)

let prop_expm_inverse =
  QCheck.Test.make ~name:"expm(A) · expm(-A) = I" ~count:60 (QCheck.make (mat_gen 3))
    (fun a ->
      let e = Mat.mul (Mat.expm a) (Mat.expm (Mat.scale (-1.0) a)) in
      Mat.approx_equal ~tol:1e-7 e (Mat.identity 3))

let prop_qr_orthonormal =
  QCheck.Test.make ~name:"QR: Q'Q = I and QR = A" ~count:60 (QCheck.make (mat_gen 4))
    (fun a ->
      let q, r = Mat.qr a in
      Mat.approx_equal ~tol:1e-8 (Mat.mul (Mat.transpose q) q) (Mat.identity 4)
      && Mat.approx_equal ~tol:1e-8 (Mat.mul q r) a)

let prop_eig_trace =
  QCheck.Test.make ~name:"sum of eigenvalues = trace" ~count:60 (QCheck.make (mat_gen 4))
    (fun m ->
      let a = Mat.symmetrize m in
      let w, _ = Mat.sym_eig a in
      Float.abs (Array.fold_left ( +. ) 0.0 w -. Mat.trace a)
      <= 1e-8 *. (1.0 +. Float.abs (Mat.trace a)))

let prop_solve_residual =
  QCheck.Test.make ~name:"solve has small residual" ~count:100
    (QCheck.make (QCheck.Gen.pair (mat_gen 5) (QCheck.Gen.array_size (QCheck.Gen.return 5) (QCheck.Gen.float_bound_inclusive 3.0))))
    (fun (a, b) ->
      match Mat.solve a b with
      | exception Failure _ -> true
      | x ->
          let r = Vec.sub (Mat.mul_vec a x) b in
          Vec.norm2 r <= 1e-6 *. (1.0 +. Vec.norm2 b) *. (1.0 +. Mat.norm_inf a) *. 100.0)

(* --- Component Cholesky against the dense factor -------------------- *)

(* A symmetric matrix that is block diagonal up to an interleaving
   permutation: random components of sizes 1-12 scattered over m <= 60
   rows. [`Zero] is a 1x1 zero component (a row no block touches), which
   only a regularized factor accepts; [`Indefinite] is -c J with c
   above every other component's scale, so no rung of the ladder
   rescues it. *)
type scattered = {
  parts : int array array;
  comps : Mat.t array;
  dense : Mat.t;
  rhs : Vec.t;
}

let scattered_gen : scattered QCheck.Gen.t =
 fun rng ->
  let kinds = ref [] and m = ref 0 in
  let add kind n =
    if !m + n <= 60 then begin
      kinds := (kind, n) :: !kinds;
      m := !m + n
    end
  in
  for _ = 1 to 1 + Random.State.int rng 8 do
    add `Spd (1 + Random.State.int rng 12)
  done;
  if Random.State.int rng 3 = 0 then add `Zero 1;
  if Random.State.int rng 4 = 0 then add `Indefinite (2 + Random.State.int rng 11);
  let kinds = Array.of_list (List.rev !kinds) and m = !m in
  let perm = Array.init m Fun.id in
  for i = m - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let next = ref 0 in
  let parts =
    Array.map
      (fun (_, n) ->
        let rows = Array.sub perm !next n in
        next := !next + n;
        Array.sort compare rows;
        rows)
      kinds
  in
  let spd n =
    let b =
      Mat.init n n (fun _ _ ->
          if Random.State.bool rng then 0.0 else Random.State.float rng 2.0 -. 1.0)
    in
    Mat.add (Mat.mul b (Mat.transpose b)) (Mat.scale 0.1 (Mat.identity n))
  in
  let comps =
    Array.map (fun (kind, n) -> match kind with `Spd -> spd n | _ -> Mat.create n n) kinds
  in
  let scale = Array.fold_left (fun a c -> Float.max a (Mat.norm_inf c)) 0.0 comps in
  Array.iteri
    (fun c (kind, n) ->
      if kind = `Indefinite then comps.(c) <- Mat.init n n (fun _ _ -> -2.0 *. (1.0 +. scale)))
    kinds;
  let dense = Mat.create m m in
  Array.iteri
    (fun c rows ->
      Array.iteri
        (fun k i -> Array.iteri (fun l j -> Mat.set dense i j (Mat.get comps.(c) k l)) rows)
        rows)
    parts;
  (* A right-hand side that is +0 on a random subset of components. *)
  let rhs = Array.make m 0.0 in
  Array.iter
    (fun rows ->
      if Random.State.bool rng then
        Array.iter (fun i -> rhs.(i) <- Random.State.float rng 2.0 -. 1.0) rows)
    parts;
  { parts; comps; dense; rhs }

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* Both sides climb the regularization ladder; they must stop at the
   same rung (or both give up), and then agree bit for bit. *)
let prop_components_match_dense =
  QCheck.Test.make ~name:"component Cholesky and solves = dense, bit for bit" ~count:300
    (QCheck.make scattered_gen)
    (fun t ->
      let climb norm factor =
        let tries = ref 0 in
        let r =
          Mat.reg_ladder ~norm (fun reg ->
              incr tries;
              Option.map (fun l -> (reg, l)) (factor reg))
        in
        (r, !tries)
      in
      let dense, dense_tries =
        climb (fun () -> Mat.norm_inf t.dense) (fun reg -> Mat.cholesky ~reg t.dense)
      in
      let comp, comp_tries =
        climb
          (fun () -> Array.fold_left (fun a c -> Float.max a (Mat.norm_inf c)) 0.0 t.comps)
          (fun reg -> Mat.cholesky_components ~reg t.parts t.comps)
      in
      dense_tries = comp_tries
      &&
      match (dense, comp) with
      | None, None -> true
      | Some (rd, l), Some (rc, f) ->
          same_bits [| rd |] [| rc |]
          && Array.for_all2
               (fun rows (lc : Mat.t) ->
                 same_bits lc.Mat.data
                   (Array.concat
                      (Array.to_list
                         (Array.map (fun i -> Array.map (fun j -> Mat.get l i j) rows) rows))))
               t.parts f.Mat.factors
          && same_bits (Mat.chol_solve l t.rhs) (Mat.chol_solve_components f t.rhs)
      | _ -> false)

(* --- Two-row Cholesky against the one-row loop ----------------------- *)

(* The one-row factorization [Mat.cholesky] ran before it took rows two
   at a time: the reference it must match bit for bit. *)
let cholesky_one_row ?(reg = 0.0) (a : Mat.t) =
  let n = a.Mat.rows in
  let l = Mat.create n n in
  let ad = a.Mat.data and ld = l.Mat.data in
  let ok = ref true in
  (try
     for i = 0 to n - 1 do
       let ri = i * n in
       for j = 0 to i do
         let rj = j * n in
         let s = ref ad.(ri + j) in
         if i = j then s := !s +. reg;
         for k = 0 to j - 1 do
           s := !s -. (ld.(ri + k) *. ld.(rj + k))
         done;
         if i = j then begin
           if !s <= 0.0 || not (Float.is_finite !s) then begin
             ok := false;
             raise Exit
           end;
           ld.(ri + i) <- sqrt !s
         end
         else ld.(ri + j) <- !s /. ld.(rj + j)
       done
     done
   with Exit -> ());
  if !ok then Some l else None

(* A random SPD matrix of order 0-40; sometimes with one row and column
   zeroed (only a regularized factor accepts it) or one diagonal entry
   negated (no factor exists); half the time a positive [reg]. *)
let chol_case_gen : (Mat.t * float) QCheck.Gen.t =
 fun rng ->
  let n = Random.State.int rng 41 in
  let b = Mat.init n n (fun _ _ -> Random.State.float rng 2.0 -. 1.0) in
  let a = Mat.add (Mat.mul b (Mat.transpose b)) (Mat.scale 1e-3 (Mat.identity n)) in
  (if n > 0 then
     let i = Random.State.int rng n in
     match Random.State.int rng 4 with
     | 0 ->
         for j = 0 to n - 1 do
           Mat.set a i j 0.0;
           Mat.set a j i 0.0
         done
     | 1 -> Mat.set a i i (-.Mat.get a i i)
     | _ -> ());
  (a, if Random.State.bool rng then 0.0 else Random.State.float rng 1e-2)

let prop_cholesky_two_row =
  QCheck.Test.make ~name:"two-row Cholesky = one-row loop, bit for bit" ~count:300
    (QCheck.make
       ~print:(fun ((a : Mat.t), reg) -> Printf.sprintf "order %d, reg %h" a.Mat.rows reg)
       chol_case_gen)
    (fun (a, reg) ->
      match (Mat.cholesky ~reg a, cholesky_one_row ~reg a) with
      | None, None -> true
      | Some l, Some r -> same_bits l.Mat.data r.Mat.data
      | _ -> false)

let suite =
  [
    Alcotest.test_case "vec ops" `Quick test_vec_ops;
    Alcotest.test_case "vec axpy" `Quick test_vec_axpy;
    Alcotest.test_case "vec dim mismatch" `Quick test_vec_dim_mismatch;
    Alcotest.test_case "mat mul" `Quick test_mat_mul;
    Alcotest.test_case "mat transpose" `Quick test_mat_transpose_identities;
    Alcotest.test_case "trace and frobenius" `Quick test_mat_trace_frob;
    Alcotest.test_case "cholesky roundtrip" `Quick test_cholesky_roundtrip;
    Alcotest.test_case "cholesky indefinite" `Quick test_cholesky_rejects_indefinite;
    Alcotest.test_case "cholesky solve" `Quick test_chol_solve;
    Alcotest.test_case "gauss solve with pivoting" `Quick test_gauss_solve;
    Alcotest.test_case "singular detection" `Quick test_solve_singular;
    Alcotest.test_case "inverse" `Quick test_inverse;
    Alcotest.test_case "least squares" `Quick test_lstsq;
    Alcotest.test_case "qr roundtrip" `Quick test_qr_roundtrip;
    Alcotest.test_case "qr rejects wide" `Quick test_qr_rejects_wide;
    Alcotest.test_case "expm diagonal" `Quick test_expm_diagonal;
    Alcotest.test_case "expm rotation" `Quick test_expm_rotation;
    Alcotest.test_case "expm nilpotent" `Quick test_expm_nilpotent;
    Alcotest.test_case "expm large norm" `Quick test_expm_large_norm;
    Alcotest.test_case "eig of diagonal" `Quick test_sym_eig_diag;
    Alcotest.test_case "eig reconstruction" `Quick test_sym_eig_reconstruction;
    Alcotest.test_case "min eig known" `Quick test_min_eig_known;
    QCheck_alcotest.to_alcotest prop_cholesky_psd;
    QCheck_alcotest.to_alcotest prop_solve_residual;
    QCheck_alcotest.to_alcotest prop_expm_inverse;
    QCheck_alcotest.to_alcotest prop_qr_orthonormal;
    QCheck_alcotest.to_alcotest prop_eig_trace;
    QCheck_alcotest.to_alcotest prop_components_match_dense;
    QCheck_alcotest.to_alcotest prop_cholesky_two_row;
  ]
