type t = { rows : int; cols : int; data : float array }

let create rows cols = { rows; cols; data = Array.make (rows * cols) 0.0 }

let init rows cols f =
  let d = Array.make (rows * cols) 0.0 in
  let k = ref 0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      Array.unsafe_set d !k (f i j);
      incr k
    done
  done;
  { rows; cols; data = d }

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let diag v =
  let n = Array.length v in
  init n n (fun i j -> if i = j then v.(i) else 0.0)

let get a i j = a.data.((i * a.cols) + j)

let set a i j v = a.data.((i * a.cols) + j) <- v

let of_arrays rows =
  let m = Array.length rows in
  if m = 0 then create 0 0
  else begin
    let n = Array.length rows.(0) in
    Array.iter
      (fun r -> if Array.length r <> n then invalid_arg "Mat.of_arrays: ragged rows")
      rows;
    init m n (fun i j -> rows.(i).(j))
  end

let dims a = (a.rows, a.cols)

let copy a = { a with data = Array.copy a.data }

let check_same name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "Mat.%s: dimension mismatch (%dx%d vs %dx%d)" name a.rows
         a.cols b.rows b.cols)

let add a b =
  check_same "add" a b;
  let n = Array.length a.data in
  let ad = a.data and bd = b.data in
  let d = Array.make n 0.0 in
  for k = 0 to n - 1 do
    Array.unsafe_set d k (Array.unsafe_get ad k +. Array.unsafe_get bd k)
  done;
  { a with data = d }

let sub a b =
  check_same "sub" a b;
  let n = Array.length a.data in
  let ad = a.data and bd = b.data in
  let d = Array.make n 0.0 in
  for k = 0 to n - 1 do
    Array.unsafe_set d k (Array.unsafe_get ad k -. Array.unsafe_get bd k)
  done;
  { a with data = d }

let scale s a =
  let n = Array.length a.data in
  let ad = a.data in
  let d = Array.make n 0.0 in
  for k = 0 to n - 1 do
    Array.unsafe_set d k (s *. Array.unsafe_get ad k)
  done;
  { a with data = d }

let neg a = scale (-1.0) a

let transpose a =
  let r = a.rows and c = a.cols in
  let d = Array.make (r * c) 0.0 in
  let ad = a.data in
  for i = 0 to r - 1 do
    let row = i * c in
    for j = 0 to c - 1 do
      Array.unsafe_set d ((j * r) + i) (Array.unsafe_get ad (row + j))
    done
  done;
  { rows = c; cols = r; data = d }

let mul a b =
  if a.cols <> b.rows then
    invalid_arg
      (Printf.sprintf "Mat.mul: dimension mismatch (%dx%d * %dx%d)" a.rows a.cols
         b.rows b.cols);
  let c = create a.rows b.cols in
  let ad = a.data and bd = b.data and cd = c.data in
  let n = b.cols in
  for i = 0 to a.rows - 1 do
    let arow = i * a.cols and crow = i * n in
    for k = 0 to a.cols - 1 do
      let aik = Array.unsafe_get ad (arow + k) in
      if aik <> 0.0 then begin
        let brow = k * n in
        for j = 0 to n - 1 do
          Array.unsafe_set cd (crow + j)
            (Array.unsafe_get cd (crow + j) +. (aik *. Array.unsafe_get bd (brow + j)))
        done
      end
    done
  done;
  c

let mul_vec a x =
  if a.cols <> Array.length x then invalid_arg "Mat.mul_vec: dimension mismatch";
  Array.init a.rows (fun i ->
      let s = ref 0.0 in
      for j = 0 to a.cols - 1 do
        s := !s +. (get a i j *. x.(j))
      done;
      !s)

let tmul_vec a x =
  if a.rows <> Array.length x then invalid_arg "Mat.tmul_vec: dimension mismatch";
  Array.init a.cols (fun j ->
      let s = ref 0.0 in
      for i = 0 to a.rows - 1 do
        s := !s +. (get a i j *. x.(i))
      done;
      !s)

let outer x y =
  init (Array.length x) (Array.length y) (fun i j -> x.(i) *. y.(j))

let symmetrize a =
  if a.rows <> a.cols then invalid_arg "Mat.symmetrize: not square";
  let n = a.rows in
  let ad = a.data in
  let d = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    Array.unsafe_set d ((i * n) + i) (Array.unsafe_get ad ((i * n) + i));
    for j = i + 1 to n - 1 do
      let v =
        0.5 *. (Array.unsafe_get ad ((i * n) + j) +. Array.unsafe_get ad ((j * n) + i))
      in
      Array.unsafe_set d ((i * n) + j) v;
      Array.unsafe_set d ((j * n) + i) v
    done
  done;
  { a with data = d }

let is_symmetric ?(tol = 1e-9) a =
  a.rows = a.cols
  &&
  let ok = ref true in
  for i = 0 to a.rows - 1 do
    for j = i + 1 to a.cols - 1 do
      if Float.abs (get a i j -. get a j i) > tol then ok := false
    done
  done;
  !ok

let trace a =
  if a.rows <> a.cols then invalid_arg "Mat.trace: not square";
  let s = ref 0.0 in
  for i = 0 to a.rows - 1 do
    s := !s +. get a i i
  done;
  !s

let frob_dot a b =
  check_same "frob_dot" a b;
  let s = ref 0.0 in
  for k = 0 to Array.length a.data - 1 do
    s := !s +. (a.data.(k) *. b.data.(k))
  done;
  !s

let norm_fro a = sqrt (frob_dot a a)

let norm_inf a = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 a.data

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= tol) a.data b.data

(* Rows are computed two at a time: for each earlier row j, rows i and
   i + 1 share one pass over L's row j. Every entry keeps its own sum,
   taken in increasing k exactly as the one-row loop does, so the factor
   is the same bit for bit, and a failing pivot is met in the same row. *)
let cholesky ?(reg = 0.0) a =
  if a.rows <> a.cols then invalid_arg "Mat.cholesky: not square";
  let n = a.rows in
  let l = create n n in
  let ad = a.data and ld = l.data in
  (* L[i,i] from row i's first i entries; [false] on a failing pivot. *)
  let pivot ri i =
    let s = ref (Array.unsafe_get ad (ri + i) +. reg) in
    for k = 0 to i - 1 do
      s := !s -. (Array.unsafe_get ld (ri + k) *. Array.unsafe_get ld (ri + k))
    done;
    if !s <= 0.0 || not (Float.is_finite !s) then false
    else begin
      Array.unsafe_set ld (ri + i) (sqrt !s);
      true
    end
  in
  (* Rows i and i + 1; on the last row of an odd order, row i twice. *)
  let rec rows i =
    if i >= n then true
    else begin
      let ri = i * n and ri1 = if i + 1 < n then (i + 1) * n else i * n in
      for j = 0 to i - 1 do
        let rj = j * n in
        let s0 = ref (Array.unsafe_get ad (ri + j)) and s1 = ref (Array.unsafe_get ad (ri1 + j)) in
        for k = 0 to j - 1 do
          let ljk = Array.unsafe_get ld (rj + k) in
          s0 := !s0 -. (Array.unsafe_get ld (ri + k) *. ljk);
          s1 := !s1 -. (Array.unsafe_get ld (ri1 + k) *. ljk)
        done;
        let d = Array.unsafe_get ld (rj + j) in
        Array.unsafe_set ld (ri + j) (!s0 /. d);
        Array.unsafe_set ld (ri1 + j) (!s1 /. d)
      done;
      pivot ri i
      && (i + 1 = n
         || begin
              let s = ref (Array.unsafe_get ad (ri1 + i)) in
              for k = 0 to i - 1 do
                s := !s -. (Array.unsafe_get ld (ri1 + k) *. Array.unsafe_get ld (ri + k))
              done;
              Array.unsafe_set ld (ri1 + i) (!s /. Array.unsafe_get ld (ri + i));
              pivot ri1 (i + 1) && rows (i + 2)
            end)
    end
  in
  if rows 0 then Some l else None

let forward_subst l b =
  let n = l.rows in
  let ld = l.data in
  let y = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let ri = i * n in
    let s = ref (Array.unsafe_get b i) in
    for k = 0 to i - 1 do
      s := !s -. (Array.unsafe_get ld (ri + k) *. Array.unsafe_get y k)
    done;
    y.(i) <- !s /. Array.unsafe_get ld (ri + i)
  done;
  y

let backward_subst_t l y =
  (* Solves Lᵀ x = y for lower-triangular L. *)
  let n = l.rows in
  let ld = l.data in
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let s = ref (Array.unsafe_get y i) in
    for k = i + 1 to n - 1 do
      s := !s -. (Array.unsafe_get ld ((k * n) + i) *. Array.unsafe_get x k)
    done;
    x.(i) <- !s /. Array.unsafe_get ld ((i * n) + i)
  done;
  x

let chol_solve l b = backward_subst_t l (forward_subst l b)

(* Multi-RHS L Lᵀ X = B, all columns swept together so the inner loops
   run over contiguous rows of the right-hand-side panel. *)
let chol_solve_mat l b =
  let n = l.rows and w = b.cols in
  if b.rows <> n then invalid_arg "Mat.chol_solve_mat: dimension mismatch";
  let ld = l.data in
  let x = copy b in
  let xd = x.data in
  (* Forward sweep: L Y = B. *)
  for i = 0 to n - 1 do
    let ri = i * n and rowi = i * w in
    for k = 0 to i - 1 do
      let lik = Array.unsafe_get ld (ri + k) in
      if lik <> 0.0 then begin
        let rowk = k * w in
        for j = 0 to w - 1 do
          Array.unsafe_set xd (rowi + j)
            (Array.unsafe_get xd (rowi + j) -. (lik *. Array.unsafe_get xd (rowk + j)))
        done
      end
    done;
    let d = Array.unsafe_get ld (ri + i) in
    for j = 0 to w - 1 do
      Array.unsafe_set xd (rowi + j) (Array.unsafe_get xd (rowi + j) /. d)
    done
  done;
  (* Backward sweep: Lᵀ X = Y. *)
  for i = n - 1 downto 0 do
    let rowi = i * w in
    for k = i + 1 to n - 1 do
      let lki = Array.unsafe_get ld ((k * n) + i) in
      if lki <> 0.0 then begin
        let rowk = k * w in
        for j = 0 to w - 1 do
          Array.unsafe_set xd (rowi + j)
            (Array.unsafe_get xd (rowi + j) -. (lki *. Array.unsafe_get xd (rowk + j)))
        done
      end
    done;
    let d = Array.unsafe_get ld ((i * n) + i) in
    for j = 0 to w - 1 do
      Array.unsafe_set xd (rowi + j) (Array.unsafe_get xd (rowi + j) /. d)
    done
  done;
  x

let reg_ladder ~norm factor =
  let rec go reg tries =
    if tries = 0 then None
    else
      match factor reg with
      | Some l -> Some l
      | None -> go (if reg = 0.0 then 1e-12 *. (1.0 +. norm ()) else reg *. 100.0) (tries - 1)
  in
  go 0.0 8

type components = { parts : int array array; factors : t array }

let check_order name f n =
  if Array.fold_left (fun acc rows -> acc + Array.length rows) 0 f.parts <> n then
    invalid_arg ("Mat." ^ name ^ ": dimension mismatch")

let cholesky_components ?reg parts mats =
  if Array.length parts <> Array.length mats then
    invalid_arg "Mat.cholesky_components: one matrix per part";
  match Array.map (fun a -> match cholesky ?reg a with Some l -> l | None -> raise Exit) mats with
  | factors -> Some { parts; factors }
  | exception Exit -> None

(* Off-part entries of the dense factor are exact +0s, and within a part
   the nonzero terms of every sum come in the same order, so gathering a
   part's rows and solving with its own factor reproduces the dense
   solve bit for bit. One part spans every row in order: no gather. *)
let chol_solve_components f b =
  match f.parts with
  | [| _ |] -> chol_solve f.factors.(0) b
  | parts ->
      check_order "chol_solve_components" f (Array.length b);
      let x = Array.make (Array.length b) 0.0 in
      Array.iteri
        (fun c rows ->
          let xc = chol_solve f.factors.(c) (Array.map (fun i -> b.(i)) rows) in
          Array.iteri (fun k i -> x.(i) <- xc.(k)) rows)
        parts;
      x

(* (L Lᵀ)⁻¹ from the Cholesky factor: T = L⁻¹ by triangular forward
   substitution (skipping the structural zeros above each unit column),
   then A⁻¹ = Tᵀ T filled symmetrically. Cheaper and allocation-free
   compared to [chol_solve_mat l (identity n)]. *)
let chol_inverse l =
  if l.rows <> l.cols then invalid_arg "Mat.chol_inverse: not square";
  let n = l.rows in
  let ld = l.data in
  let t = create n n in
  let td = t.data in
  for j = 0 to n - 1 do
    Array.unsafe_set td ((j * n) + j) (1.0 /. Array.unsafe_get ld ((j * n) + j));
    for i = j + 1 to n - 1 do
      let ri = i * n in
      let s = ref 0.0 in
      for k = j to i - 1 do
        s := !s +. (Array.unsafe_get ld (ri + k) *. Array.unsafe_get td ((k * n) + j))
      done;
      Array.unsafe_set td (ri + j) (-. !s /. Array.unsafe_get ld (ri + i))
    done
  done;
  let inv = create n n in
  let vd = inv.data in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      let s = ref 0.0 in
      (* T is lower triangular: row k contributes only for k >= j >= i. *)
      for k = j to n - 1 do
        let rk = k * n in
        s := !s +. (Array.unsafe_get td (rk + i) *. Array.unsafe_get td (rk + j))
      done;
      Array.unsafe_set vd ((i * n) + j) !s;
      Array.unsafe_set vd ((j * n) + i) !s
    done
  done;
  inv

(* Gaussian elimination with partial pivoting on an augmented system. *)
let gauss_solve a rhs_cols rhs =
  if a.rows <> a.cols then invalid_arg "Mat.solve: not square";
  let n = a.rows in
  let m = copy a in
  let b = copy rhs in
  for col = 0 to n - 1 do
    (* pivot *)
    let piv = ref col in
    for i = col + 1 to n - 1 do
      if Float.abs (get m i col) > Float.abs (get m !piv col) then piv := i
    done;
    if Float.abs (get m !piv col) < 1e-300 then failwith "Mat.solve: singular matrix";
    if !piv <> col then begin
      for j = 0 to n - 1 do
        let tmp = get m col j in
        set m col j (get m !piv j);
        set m !piv j tmp
      done;
      for j = 0 to rhs_cols - 1 do
        let tmp = get b col j in
        set b col j (get b !piv j);
        set b !piv j tmp
      done
    end;
    let d = get m col col in
    let md = m.data and bd = b.data in
    let rcol_m = col * n and rcol_b = col * rhs_cols in
    for i = col + 1 to n - 1 do
      let f = Array.unsafe_get md ((i * n) + col) /. d in
      if f <> 0.0 then begin
        let ri_m = i * n and ri_b = i * rhs_cols in
        for j = col to n - 1 do
          Array.unsafe_set md (ri_m + j)
            (Array.unsafe_get md (ri_m + j) -. (f *. Array.unsafe_get md (rcol_m + j)))
        done;
        for j = 0 to rhs_cols - 1 do
          Array.unsafe_set bd (ri_b + j)
            (Array.unsafe_get bd (ri_b + j) -. (f *. Array.unsafe_get bd (rcol_b + j)))
        done
      end
    done
  done;
  let x = create n rhs_cols in
  for j = 0 to rhs_cols - 1 do
    for i = n - 1 downto 0 do
      let s = ref (get b i j) in
      for k = i + 1 to n - 1 do
        s := !s -. (get m i k *. get x k j)
      done;
      set x i j (!s /. get m i i)
    done
  done;
  x

let solve a b =
  let bm = init (Array.length b) 1 (fun i _ -> b.(i)) in
  let x = gauss_solve a 1 bm in
  Array.init a.rows (fun i -> get x i 0)

let solve_mat a b =
  if a.rows <> b.rows then invalid_arg "Mat.solve_mat: dimension mismatch";
  gauss_solve a b.cols b

let inverse a = solve_mat a (identity a.rows)

let lstsq a b =
  if a.rows <> Array.length b then invalid_arg "Mat.lstsq: dimension mismatch";
  let at = transpose a in
  let ata = mul at a in
  let scale_reg = 1e-12 *. (1.0 +. norm_inf ata) in
  for i = 0 to ata.rows - 1 do
    set ata i i (get ata i i +. scale_reg)
  done;
  solve ata (mul_vec at b)

let qr a =
  let m = a.rows and n = a.cols in
  if m < n then invalid_arg "Mat.qr: needs rows >= cols";
  let r = copy a in
  (* Accumulate Q implicitly: start from the identity embedding and apply
     the same reflections. *)
  let q = init m m (fun i j -> if i = j then 1.0 else 0.0) in
  for k = 0 to n - 1 do
    (* Householder vector for column k below the diagonal. *)
    let norm = ref 0.0 in
    for i = k to m - 1 do
      norm := !norm +. (get r i k *. get r i k)
    done;
    let norm = sqrt !norm in
    if norm > 1e-300 then begin
      let alpha = if get r k k >= 0.0 then -.norm else norm in
      let v = Array.make m 0.0 in
      v.(k) <- get r k k -. alpha;
      for i = k + 1 to m - 1 do
        v.(i) <- get r i k
      done;
      let vtv = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 v in
      if vtv > 1e-300 then begin
        let apply (mat : t) =
          (* mat <- (I - 2 v v'/v'v) mat *)
          for j = 0 to mat.cols - 1 do
            let dot = ref 0.0 in
            for i = k to m - 1 do
              dot := !dot +. (v.(i) *. get mat i j)
            done;
            let f = 2.0 *. !dot /. vtv in
            for i = k to m - 1 do
              set mat i j (get mat i j -. (f *. v.(i)))
            done
          done
        in
        apply r;
        apply q
      end
    end
  done;
  (* q currently holds H_{n-1}…H_0; Q = (H_{n-1}…H_0)' — take the
     transpose and keep the first n columns; zero R's subdiagonal
     noise. *)
  let qt = transpose q in
  let q_thin = init m n (fun i j -> get qt i j) in
  let r_sq = init n n (fun i j -> if j >= i then get r i j else 0.0) in
  (q_thin, r_sq)

let expm a =
  if a.rows <> a.cols then invalid_arg "Mat.expm: not square";
  let n = a.rows in
  (* Scaling: bring |A/2^s| below 1/2. *)
  let nrm = norm_inf a in
  let s = if nrm <= 0.5 then 0 else int_of_float (ceil (log (nrm /. 0.5) /. log 2.0)) in
  let a1 = scale (1.0 /. Float.pow 2.0 (float_of_int s)) a in
  (* Padé(6,6): N = sum c_k A^k, D = sum (-1)^k c_k A^k. *)
  let c = Array.make 7 1.0 in
  for k = 1 to 6 do
    c.(k) <- c.(k - 1) *. float_of_int (6 - k + 1) /. float_of_int (k * ((2 * 6) - k + 1))
  done;
  let num = ref (scale c.(0) (identity n)) and den = ref (scale c.(0) (identity n)) in
  let pow = ref (identity n) in
  for k = 1 to 6 do
    pow := mul !pow a1;
    num := add !num (scale c.(k) !pow);
    den := add !den (scale (if k mod 2 = 0 then c.(k) else -.c.(k)) !pow)
  done;
  let e = ref (solve_mat !den !num) in
  for _ = 1 to s do
    e := mul !e !e
  done;
  !e

let sym_eig ?(tol = 1e-12) ?(max_sweeps = 64) a =
  if a.rows <> a.cols then invalid_arg "Mat.sym_eig: not square";
  let n = a.rows in
  let m = copy (symmetrize a) in
  let v = identity n in
  let off_norm () =
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        s := !s +. (get m i j *. get m i j)
      done
    done;
    sqrt (2.0 *. !s)
  in
  let scale_m = Float.max 1.0 (norm_inf m) in
  let sweeps = ref 0 in
  while off_norm () > tol *. scale_m && !sweeps < max_sweeps do
    incr sweeps;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        let apq = get m p q in
        if Float.abs apq > 1e-300 then begin
          let app = get m p p and aqq = get m q q in
          let theta = (aqq -. app) /. (2.0 *. apq) in
          let t =
            let sign = if theta >= 0.0 then 1.0 else -1.0 in
            sign /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.0))
          in
          let c = 1.0 /. sqrt ((t *. t) +. 1.0) in
          let s = t *. c in
          (* Update rows/cols p and q of m. *)
          let md = m.data and vd = v.data in
          for k = 0 to n - 1 do
            let kp = (k * n) + p and kq = (k * n) + q in
            let mkp = Array.unsafe_get md kp and mkq = Array.unsafe_get md kq in
            Array.unsafe_set md kp ((c *. mkp) -. (s *. mkq));
            Array.unsafe_set md kq ((s *. mkp) +. (c *. mkq))
          done;
          let rp = p * n and rq = q * n in
          for k = 0 to n - 1 do
            let mpk = Array.unsafe_get md (rp + k) and mqk = Array.unsafe_get md (rq + k) in
            Array.unsafe_set md (rp + k) ((c *. mpk) -. (s *. mqk));
            Array.unsafe_set md (rq + k) ((s *. mpk) +. (c *. mqk))
          done;
          for k = 0 to n - 1 do
            let kp = (k * n) + p and kq = (k * n) + q in
            let vkp = Array.unsafe_get vd kp and vkq = Array.unsafe_get vd kq in
            Array.unsafe_set vd kp ((c *. vkp) -. (s *. vkq));
            Array.unsafe_set vd kq ((s *. vkp) +. (c *. vkq))
          done
        end
      done
    done
  done;
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> Float.compare (get m i i) (get m j j)) order;
  let w = Array.init n (fun k -> get m order.(k) order.(k)) in
  let vs = init n n (fun i k -> get v i order.(k)) in
  (w, vs)

(* Householder reduction of a symmetric matrix to tridiagonal form
   (EISPACK TRED1 style, no eigenvector accumulation): returns the
   diagonal [d] and subdiagonal [e] ([e.(0)] unused) of an orthogonally
   similar tridiagonal matrix. Works on the lower triangle of a fresh
   symmetrized copy. O(n^3) with a small constant — much cheaper than a
   full Jacobi sweep when only eigenvalues are needed. *)
let tridiagonalize a =
  let n = a.rows in
  let m = symmetrize a in
  let md = m.data in
  let d = Array.make n 0.0 and e = Array.make n 0.0 in
  for i = n - 1 downto 1 do
    let l = i - 1 in
    if l > 0 then begin
      let scale = ref 0.0 in
      for k = 0 to l do
        scale := !scale +. Float.abs (Array.unsafe_get md ((i * n) + k))
      done;
      if !scale = 0.0 then e.(i) <- Array.unsafe_get md ((i * n) + l)
      else begin
        let h = ref 0.0 in
        for k = 0 to l do
          let v = Array.unsafe_get md ((i * n) + k) /. !scale in
          Array.unsafe_set md ((i * n) + k) v;
          h := !h +. (v *. v)
        done;
        let f = Array.unsafe_get md ((i * n) + l) in
        let g = if f >= 0.0 then -.sqrt !h else sqrt !h in
        e.(i) <- !scale *. g;
        h := !h -. (f *. g);
        Array.unsafe_set md ((i * n) + l) (f -. g);
        (* p = A u / h over the leading (l+1) block (lower triangle). *)
        let facc = ref 0.0 in
        for j = 0 to l do
          let g = ref 0.0 in
          let rj = j * n in
          for k = 0 to j do
            g := !g +. (Array.unsafe_get md (rj + k) *. Array.unsafe_get md ((i * n) + k))
          done;
          for k = j + 1 to l do
            g :=
              !g +. (Array.unsafe_get md ((k * n) + j) *. Array.unsafe_get md ((i * n) + k))
          done;
          e.(j) <- !g /. !h;
          facc := !facc +. (e.(j) *. Array.unsafe_get md ((i * n) + j))
        done;
        (* Rank-two update A <- A - u w' - w u'. *)
        let hh = !facc /. (!h +. !h) in
        for j = 0 to l do
          let fj = Array.unsafe_get md ((i * n) + j) in
          let gj = e.(j) -. (hh *. fj) in
          e.(j) <- gj;
          let rj = j * n in
          for k = 0 to j do
            Array.unsafe_set md (rj + k)
              (Array.unsafe_get md (rj + k)
              -. (fj *. e.(k))
              -. (gj *. Array.unsafe_get md ((i * n) + k)))
          done
        done
      end
    end
    else e.(i) <- Array.unsafe_get md ((i * n) + l)
  done;
  for i = 0 to n - 1 do
    d.(i) <- Array.unsafe_get md ((i * n) + i)
  done;
  (d, e)

(* Eigenvalues of the tridiagonal [(d, e)] strictly below [x], counted
   by the signs of the Sturm pivot sequence. *)
let sturm_count d e x =
  let n = Array.length d in
  let count = ref 0 in
  let q = ref 1.0 in
  for i = 0 to n - 1 do
    let sub = if i = 0 then 0.0 else e.(i) *. e.(i) /. !q in
    let v = d.(i) -. x -. sub in
    (* Keep the pivot away from exact zero so the recurrence never
       divides by 0; the sign convention counts it as negative. *)
    q := (if Float.abs v < 1e-300 then -1e-300 else v);
    if !q < 0.0 then incr count
  done;
  !count

let min_eig a =
  let n = a.rows in
  if n = 0 then 0.0
  else if n = 1 then a.data.(0)
  else begin
    let d, e = tridiagonalize a in
    (* Gershgorin bracket for the spectrum of the tridiagonal. *)
    let lo = ref infinity and hi = ref neg_infinity in
    for i = 0 to n - 1 do
      let r =
        (if i > 0 then Float.abs e.(i) else 0.0)
        +. if i < n - 1 then Float.abs e.(i + 1) else 0.0
      in
      lo := Float.min !lo (d.(i) -. r);
      hi := Float.max !hi (d.(i) +. r)
    done;
    let scale = Float.max 1.0 (Float.max (Float.abs !lo) (Float.abs !hi)) in
    let lo = ref !lo and hi = ref !hi in
    (* Bisection on the Sturm count: smallest x with count(x) >= 1. *)
    while !hi -. !lo > 1e-14 *. scale do
      let mid = 0.5 *. (!lo +. !hi) in
      if sturm_count d e mid >= 1 then hi := mid else lo := mid
    done;
    0.5 *. (!lo +. !hi)
  end

let is_psd ?(tol = 1e-8) a = min_eig a >= -.tol

let pp ppf a =
  Format.fprintf ppf "@[<v>";
  for i = 0 to a.rows - 1 do
    Format.fprintf ppf "[";
    for j = 0 to a.cols - 1 do
      if j > 0 then Format.fprintf ppf ", ";
      Format.fprintf ppf "%g" (get a i j)
    done;
    Format.fprintf ppf "]";
    if i < a.rows - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
