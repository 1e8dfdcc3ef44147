module Mat = Linalg.Mat
module Vec = Linalg.Vec

let src = Logs.Src.create "sdp" ~doc:"interior-point SDP solver"

module Log = (val Logs.src_log src : Logs.LOG)

type block_entry = { blk : int; row : int; col : int; value : float }

type constr = {
  lhs : block_entry list;
  free : (int * float) list;
  rhs : float;
}

type problem = {
  block_dims : int array;
  n_free : int;
  constraints : constr array;
  obj_blocks : block_entry list;
  obj_free : (int * float) list;
}

type status =
  | Optimal
  | Near_optimal
  | Primal_infeasible
  | Dual_infeasible
  | Max_iterations
  | Numerical_failure

type solution = {
  status : status;
  x_blocks : Mat.t array;
  f : Vec.t;
  y : Vec.t;
  s_blocks : Mat.t array;
  primal_obj : float;
  dual_obj : float;
  gap : float;
  primal_res : float;
  dual_res : float;
  iterations : int;
  best_score : float;
  trace : (int * float * float * float) list;
  injected : int;
}

type fault =
  | Fail_now
  | Stop_now
  | Perturb of float

type params = {
  max_iter : int;
  tol_gap : float;
  tol_res : float;
  near_factor : float;
  step_frac : float;
  init_scale : float;
  equilibrate : bool;
  on_iteration : (int -> fault option) option;
  verbose : bool;
}

let default_params =
  {
    max_iter = 150;
    tol_gap = 1e-8;
    tol_res = 1e-8;
    near_factor = 1e3;
    step_frac = 0.98;
    init_scale = 1.0;
    equilibrate = false;
    on_iteration = None;
    verbose = false;
  }

(* ------------------------------------------------------------------ *)
(* Internal representation: per-constraint, per-block sparse entries.  *)

type sparse_block = { entries : (int * int * float) array; touched : int array }
(* [entries] are upper-triangular (row <= col); [touched] is the sorted
   set of row/col indices occurring, used to bound dense products. *)

let sparse_block_of_entries dim entries =
  let touched = Hashtbl.create 8 in
  List.iter
    (fun (r, c, _) ->
      if r < 0 || c >= dim || r > c then invalid_arg "Sdp: bad block entry";
      Hashtbl.replace touched r ();
      Hashtbl.replace touched c ())
    entries;
  let t = Hashtbl.fold (fun k () acc -> k :: acc) touched [] in
  { entries = Array.of_list entries; touched = Array.of_list (List.sort compare t) }

(* <A, W> for symmetric sparse A and a dense (not necessarily symmetric) W. *)
let sb_dot sb (w : Mat.t) =
  let wd = w.Mat.data and n = w.Mat.cols in
  Array.fold_left
    (fun acc (r, c, v) ->
      if r = c then acc +. (v *. Array.unsafe_get wd ((r * n) + r))
      else
        acc
        +. (v
           *. (Array.unsafe_get wd ((r * n) + c) +. Array.unsafe_get wd ((c * n) + r))))
    0.0 sb.entries

(* W <- W + scale * A for symmetric sparse A, dense W. *)
let sb_add_to sb scale (w : Mat.t) =
  Array.iter
    (fun (r, c, v) ->
      Mat.set w r c (Mat.get w r c +. (scale *. v));
      if r <> c then Mat.set w c r (Mat.get w c r +. (scale *. v)))
    sb.entries

(* X * (A * Sinv) for sparse symmetric A: cost O(|touched| * n^2). The
   nonzero rows of P = A * Sinv are packed into one dense panel indexed
   by the touched set, so both the scatter (rows of Sinv) and the gather
   (rows of X against the panel) stream contiguous memory. *)
let sb_sandwich sb (x : Mat.t) (sinv : Mat.t) =
  let n = x.Mat.rows in
  let touched = sb.touched in
  let nt = Array.length touched in
  let slot = Array.make n (-1) in
  Array.iteri (fun k t -> slot.(t) <- k) touched;
  let p = Array.make (nt * n) 0.0 in
  let sd = sinv.Mat.data in
  Array.iter
    (fun (r, c, v) ->
      let pr = slot.(r) * n and rc = c * n in
      for j = 0 to n - 1 do
        Array.unsafe_set p (pr + j)
          (Array.unsafe_get p (pr + j) +. (v *. Array.unsafe_get sd (rc + j)))
      done;
      if r <> c then begin
        let pc = slot.(c) * n and rr = r * n in
        for j = 0 to n - 1 do
          Array.unsafe_set p (pc + j)
            (Array.unsafe_get p (pc + j) +. (v *. Array.unsafe_get sd (rr + j)))
        done
      end)
    sb.entries;
  let w = Mat.create n n in
  let wd = w.Mat.data and xd = x.Mat.data in
  for i = 0 to n - 1 do
    let row = i * n in
    for k = 0 to nt - 1 do
      let xit = Array.unsafe_get xd (row + Array.unsafe_get touched k) in
      if xit <> 0.0 then begin
        let prow = k * n in
        for j = 0 to n - 1 do
          Array.unsafe_set wd (row + j)
            (Array.unsafe_get wd (row + j) +. (xit *. Array.unsafe_get p (prow + j)))
        done
      end
    done
  done;
  w

type internal = {
  p : problem;
  m : int;
  nb : int; (* number of blocks *)
  n_total : int;
  (* per constraint i, per block b: sparse data (possibly empty) *)
  cons_blocks : sparse_block array array;
  (* per block: indices of constraints touching it *)
  block_cons : int array array;
  b_vec : Vec.t; (* scaled rhs *)
  b_mat : Mat.t; (* m x nf dense free-variable matrix, scaled *)
  c_blocks : sparse_block array;
  c_free : Vec.t;
  scales : Vec.t; (* per-constraint normalization *)
}

let build_internal p =
  let m = Array.length p.constraints in
  let nb = Array.length p.block_dims in
  let n_total = Array.fold_left ( + ) 0 p.block_dims in
  let scales =
    Array.map
      (fun c ->
        let s = ref 0.0 in
        List.iter
          (fun e ->
            let w = if e.row = e.col then e.value *. e.value else 2.0 *. e.value *. e.value in
            s := !s +. w)
          c.lhs;
        List.iter (fun (_, v) -> s := !s +. (v *. v)) c.free;
        Float.max 1e-8 (sqrt !s))
      p.constraints
  in
  let cons_blocks =
    Array.mapi
      (fun i c ->
        let per_block = Array.make nb [] in
        List.iter
          (fun e ->
            if e.blk < 0 || e.blk >= nb then invalid_arg "Sdp: block index out of range";
            per_block.(e.blk) <- (e.row, e.col, e.value /. scales.(i)) :: per_block.(e.blk))
          c.lhs;
        Array.mapi (fun b l -> sparse_block_of_entries p.block_dims.(b) l) per_block)
      p.constraints
  in
  let block_cons =
    Array.init nb (fun b ->
        let l = ref [] in
        for i = m - 1 downto 0 do
          if Array.length cons_blocks.(i).(b).entries > 0 then l := i :: !l
        done;
        Array.of_list !l)
  in
  let b_vec = Array.init m (fun i -> p.constraints.(i).rhs /. scales.(i)) in
  let b_mat = Mat.create m p.n_free in
  Array.iteri
    (fun i c ->
      List.iter
        (fun (k, v) ->
          if k < 0 || k >= p.n_free then invalid_arg "Sdp: free index out of range";
          Mat.set b_mat i k (v /. scales.(i)))
        c.free)
    p.constraints;
  let c_per_block = Array.make nb [] in
  List.iter
    (fun e -> c_per_block.(e.blk) <- (e.row, e.col, e.value) :: c_per_block.(e.blk))
    p.obj_blocks;
  let c_blocks = Array.mapi (fun b l -> sparse_block_of_entries p.block_dims.(b) l) c_per_block in
  let c_free = Array.make p.n_free 0.0 in
  List.iter (fun (k, v) -> c_free.(k) <- c_free.(k) +. v) p.obj_free;
  { p; m; nb; n_total; cons_blocks; block_cons; b_vec; b_mat; c_blocks; c_free; scales }

(* A(X): vector of <A_i, X> over all blocks. *)
let op_a it x_blocks =
  Array.init it.m (fun i ->
      let s = ref 0.0 in
      for b = 0 to it.nb - 1 do
        let sb = it.cons_blocks.(i).(b) in
        if Array.length sb.entries > 0 then s := !s +. sb_dot sb x_blocks.(b)
      done;
      !s)

(* A*(y): block-diagonal dense accumulation. *)
let op_a_star it y =
  Array.init it.nb (fun b ->
      let w = Mat.create it.p.block_dims.(b) it.p.block_dims.(b) in
      Array.iter
        (fun i ->
          if y.(i) <> 0.0 then sb_add_to it.cons_blocks.(i).(b) y.(i) w)
        it.block_cons.(b);
      w)

let dense_c it =
  Array.init it.nb (fun b ->
      let w = Mat.create it.p.block_dims.(b) it.p.block_dims.(b) in
      sb_add_to it.c_blocks.(b) 1.0 w;
      w)

(* Cholesky with escalating regularization. *)
let robust_chol a =
  let rec go reg tries =
    if tries = 0 then None
    else
      match Mat.cholesky ~reg a with
      | Some l -> Some l
      | None -> go (if reg = 0.0 then 1e-12 *. (1.0 +. Mat.norm_inf a) else reg *. 100.0) (tries - 1)
  in
  go 0.0 8

(* L^{-1} W L^{-T} for lower-triangular Cholesky factor L, as two
   forward-substitution sweeps over whole row panels (the second on the
   transpose), so the inner loops run over contiguous rows. *)
let chol_congruence (l : Mat.t) (w : Mat.t) =
  let n = l.Mat.rows in
  let ld = l.Mat.data in
  let forward_panel (m : Mat.t) =
    let md = m.Mat.data in
    for i = 0 to n - 1 do
      let ri = i * n in
      for k = 0 to i - 1 do
        let lik = Array.unsafe_get ld (ri + k) in
        if lik <> 0.0 then begin
          let rk = k * n in
          for j = 0 to n - 1 do
            Array.unsafe_set md (ri + j)
              (Array.unsafe_get md (ri + j) -. (lik *. Array.unsafe_get md (rk + j)))
          done
        end
      done;
      let d = Array.unsafe_get ld (ri + i) in
      for j = 0 to n - 1 do
        Array.unsafe_set md (ri + j) (Array.unsafe_get md (ri + j) /. d)
      done
    done
  in
  (* U = L^{-1} W *)
  let u = Mat.copy w in
  forward_panel u;
  (* V = U L^{-T} = (L^{-1} U^T)^T *)
  let ut = Mat.transpose u in
  forward_panel ut;
  Mat.transpose ut

(* Largest alpha in (0, 1] with X + alpha * dX >= 0 (to a fraction). *)
let max_step ~frac (x : Mat.t) (l : Mat.t) (dx : Mat.t) =
  ignore x;
  let t = Mat.symmetrize (chol_congruence l dx) in
  let lam_min = Mat.min_eig t in
  if lam_min >= 0.0 then 1.0 else Float.min 1.0 (-.frac /. lam_min)

(* ------------------------------------------------------------------ *)
(* Warm-start capsules: a strictly-feasible-shifted iterate from a prior
   solve, keyed by a structure fingerprint so it is only ever applied to
   a problem with the same block dimensions and sparsity pattern.       *)

(* Digest of the problem's *shape* only — block dims, free-variable
   count, and the (blk,row,col) sparsity pattern of every constraint and
   of the objective. Entry values are deliberately excluded: two
   bisection rungs or neighbouring sweep cells differ only in values and
   must share a fingerprint so one's iterate can seed the other. *)
let structure_fingerprint p =
  let buf = Buffer.create 2048 in
  let adds = Buffer.add_string buf in
  adds "pll-sdp-structure v1\nblocks";
  Array.iter (fun d -> adds (Printf.sprintf " %d" d)) p.block_dims;
  adds (Printf.sprintf "\nfree %d\n" p.n_free);
  Array.iter
    (fun c ->
      adds "A";
      List.iter (fun e -> adds (Printf.sprintf " %d:%d:%d" e.blk e.row e.col)) c.lhs;
      adds "\nB";
      List.iter (fun (k, _) -> adds (Printf.sprintf " %d" k)) c.free;
      Buffer.add_char buf '\n')
    p.constraints;
  adds "C";
  List.iter (fun e -> adds (Printf.sprintf " %d:%d:%d" e.blk e.row e.col)) p.obj_blocks;
  adds "\ncf";
  List.iter (fun (k, _) -> adds (Printf.sprintf " %d" k)) p.obj_free;
  Buffer.add_char buf '\n';
  Digest.to_hex (Digest.string (Buffer.contents buf))

type warm_start = {
  ws_structure : string;
  ws_x : Mat.t array;
  ws_s : Mat.t array;
  ws_y : float array;  (* multipliers in the original (unscaled) problem *)
  ws_f : float array;
}

let warm_start_structure w = w.ws_structure

let capsule_shape_ok p w =
  let nb = Array.length p.block_dims in
  Array.length w.ws_x = nb
  && Array.length w.ws_s = nb
  && Array.length w.ws_y = Array.length p.constraints
  && Array.length w.ws_f = p.n_free
  &&
  let ok = ref true in
  for b = 0 to nb - 1 do
    if
      w.ws_x.(b).Mat.rows <> p.block_dims.(b)
      || w.ws_s.(b).Mat.rows <> p.block_dims.(b)
    then ok := false
  done;
  !ok

let capsule_finite w =
  let mat_ok (m : Mat.t) = Array.for_all Float.is_finite m.Mat.data in
  Array.for_all mat_ok w.ws_x
  && Array.for_all mat_ok w.ws_s
  && Array.for_all Float.is_finite w.ws_y
  && Array.for_all Float.is_finite w.ws_f

let warm_start_of_solution p (sol : solution) =
  let w =
    {
      ws_structure = structure_fingerprint p;
      ws_x = Array.map Mat.copy sol.x_blocks;
      ws_s = Array.map Mat.copy sol.s_blocks;
      ws_y = Array.copy sol.y;
      ws_f = Array.copy sol.f;
    }
  in
  if capsule_shape_ok p w && capsule_finite w then Some w else None

(* Shift a prior iterate strictly inside the PSD cone: M + λI with λ
   chosen so the smallest eigenvalue clears a floor relative to the
   block's scale. The floor also pushes the pair back off the central
   path boundary, so the first warm iterations have room to move. *)
let warm_interior_floor = 1e-3

let shift_strictly_feasible (m : Mat.t) =
  let d = m.Mat.rows in
  if d = 0 then Mat.copy m
  else begin
    let lam = Mat.min_eig m in
    let scale = 1.0 +. (Float.max 0.0 (Mat.trace m) /. float_of_int d) in
    let floor_ = warm_interior_floor *. scale in
    let add = Float.max 0.0 (floor_ -. lam) in
    let out = Mat.copy m in
    for i = 0 to d - 1 do
      Mat.set out i i (Mat.get out i i +. add)
    done;
    out
  end

(* Process-wide interior-point iteration counter, read by the
   benchmark's in-process counting pass (forked workers keep their own
   counts). *)
let iterations_total = ref 0

let iteration_count () = !iterations_total

(* Deterministic pseudo-noise in [-1, 1] for fault injection — a fixed
   integer hash of the coordinates, so injected perturbations replay
   identically across runs. *)
let pseudo_noise iter b i j =
  let h =
    (iter * 0x9E3779B1) lxor (b * 0x85EBCA6B) lxor (i * 0xC2B2AE35) lxor (j * 0x27D4EB2F)
  in
  let h = h lxor (h lsr 15) in
  (float_of_int (h land 0xFFFFFF) /. float_of_int 0xFFFFFF *. 2.0) -. 1.0

let solve_core ?(params = default_params) ?warm p =
  let it = build_internal p in
  let m = it.m and nb = it.nb and nf = p.n_free in
  let dims = p.block_dims in
  let n_total = Float.max 1.0 (float_of_int it.n_total) in
  let c_dense = dense_c it in
  (* Initial point: either the cold scaled-identity pair, or a prior
     iterate shifted strictly inside the cone. The capsule carries
     multipliers in the original scaling; internally constraints are
     normalized, so y_i picks up the per-constraint scale factor. *)
  let norm_b = Array.fold_left (fun a v -> Float.max a (Float.abs v)) 0.0 it.b_vec in
  let norm_c =
    Array.fold_left (fun a w -> Float.max a (Mat.norm_inf w)) 0.0 c_dense
    |> Float.max (Vec.norm_inf it.c_free)
  in
  let x, s, y, f =
    match warm with
    | Some w when capsule_shape_ok p w ->
        ( Array.map shift_strictly_feasible w.ws_x,
          Array.map shift_strictly_feasible w.ws_s,
          Array.init m (fun i -> w.ws_y.(i) *. it.scales.(i)),
          Array.copy w.ws_f )
    | _ ->
        let xi = params.init_scale *. Float.max 10.0 (2.0 *. norm_b) in
        let eta = params.init_scale *. Float.max 10.0 (2.0 *. (norm_c +. 1.0)) in
        ( Array.init nb (fun b -> Mat.scale xi (Mat.identity dims.(b))),
          Array.init nb (fun b -> Mat.scale eta (Mat.identity dims.(b))),
          Array.make m 0.0,
          Array.make nf 0.0 )
  in
  let trace_rev = ref [] in
  let injected = ref 0 in
  (* Forward declaration: best_score lives below but [result] reads it. *)
  let best_score = ref infinity in
  let result status iter =
    (* Rescale multipliers back to the original constraint scaling. *)
    let y_orig = Array.init m (fun i -> y.(i) /. it.scales.(i)) in
    let ax = op_a it x in
    let bf = Mat.mul_vec it.b_mat f in
    let pres =
      let r = Array.init m (fun i -> it.b_vec.(i) -. ax.(i) -. bf.(i)) in
      Vec.norm2 r /. (1.0 +. Vec.norm2 it.b_vec)
    in
    let asy = op_a_star it y in
    let dres =
      let block_part =
        Array.init nb (fun b ->
            Mat.norm_fro (Mat.sub (Mat.sub c_dense.(b) s.(b)) asy.(b)))
        |> Array.fold_left Float.max 0.0
      in
      let free_part = Vec.norm2 (Vec.sub it.c_free (Mat.tmul_vec it.b_mat y)) in
      Float.max block_part free_part /. (1.0 +. norm_c)
    in
    let pobj =
      Array.fold_left ( +. ) (Vec.dot it.c_free f)
        (Array.init nb (fun b -> Mat.frob_dot c_dense.(b) x.(b)))
    in
    let dobj = Vec.dot it.b_vec y in
    let gap = Float.abs (pobj -. dobj) /. (1.0 +. Float.max (Float.abs pobj) (Float.abs dobj)) in
    {
      status;
      x_blocks = Array.map Mat.copy x;
      f = Array.copy f;
      y = y_orig;
      s_blocks = Array.map Mat.copy s;
      primal_obj = pobj;
      dual_obj = dobj;
      gap;
      primal_res = pres;
      dual_res = dres;
      iterations = iter;
      best_score = !best_score;
      trace = List.rev !trace_rev;
      injected = !injected;
    }
  in
  let exception Done of solution in
  (* Best-iterate tracking: interior-point iterations can overshoot the
     numerically attainable accuracy floor and then diverge; we keep the
     best iterate seen and fall back to it. *)
  let best_state = ref None in
  let maybe_snapshot score =
    if score < !best_score then begin
      best_score := score;
      best_state :=
        Some (Array.map Mat.copy x, Array.map Mat.copy s, Array.copy y, Array.copy f)
    end
  in
  let restore_best () =
    match !best_state with
    | None -> ()
    | Some (bx, bs, by, bf) ->
        Array.blit bx 0 x 0 nb;
        Array.blit bs 0 s 0 nb;
        Array.blit by 0 y 0 m;
        Array.blit bf 0 f 0 nf
  in
  let classify_best iter =
    restore_best ();
    let status =
      if !best_score <= Float.max params.tol_gap params.tol_res then Optimal
      else if !best_score <= params.near_factor *. Float.max params.tol_gap params.tol_res
      then Near_optimal
      else Max_iterations
    in
    result status iter
  in
  try
     for iter = 1 to params.max_iter do
       incr iterations_total;
       (* Injected faults and deadline interrupts (resilience layer). *)
       (match params.on_iteration with
       | None -> ()
       | Some hook -> (
           match hook iter with
           | None -> ()
           | Some action -> (
               incr injected;
               match action with
               | Fail_now -> raise (Done (result Numerical_failure iter))
               | Stop_now -> raise (Done (classify_best iter))
               | Perturb mag ->
                   (* Symmetric deterministic noise on the primal iterate;
                      magnitude is relative to each block's scale. *)
                   for b = 0 to nb - 1 do
                     let xb = x.(b) in
                     let scale = mag *. (1.0 +. Mat.norm_inf xb) in
                     let d = dims.(b) in
                     for i = 0 to d - 1 do
                       for j = i to d - 1 do
                         let u = scale *. pseudo_noise iter b i j in
                         Mat.set xb i j (Mat.get xb i j +. u);
                         if i <> j then Mat.set xb j i (Mat.get xb j i +. u)
                       done
                     done
                   done)));
       (* Factor S blocks; compute S^{-1}. *)
       let s_chol =
         Array.map
           (fun sb ->
             match robust_chol sb with
             | Some l -> l
             | None -> raise (Done (if !best_score < 1e-4 then classify_best iter else result Numerical_failure iter)))
           s
       in
       let s_inv = Array.map Mat.chol_inverse s_chol in
       let x_chol =
         Array.map
           (fun xb ->
             match robust_chol xb with
             | Some l -> l
             | None -> raise (Done (if !best_score < 1e-4 then classify_best iter else result Numerical_failure iter)))
           x
       in
       (* Residuals. *)
       let ax = op_a it x in
       let bf = Mat.mul_vec it.b_mat f in
       let r_p = Array.init m (fun i -> it.b_vec.(i) -. ax.(i) -. bf.(i)) in
       let asy = op_a_star it y in
       let r_d = Array.init nb (fun b -> Mat.sub (Mat.sub c_dense.(b) s.(b)) asy.(b)) in
       let r_f = Vec.sub it.c_free (Mat.tmul_vec it.b_mat y) in
       let mu =
         Array.init nb (fun b -> Mat.frob_dot x.(b) s.(b))
         |> Array.fold_left ( +. ) 0.0
         |> fun t -> t /. n_total
       in
       let pobj =
         Array.fold_left ( +. ) (Vec.dot it.c_free f)
           (Array.init nb (fun b -> Mat.frob_dot c_dense.(b) x.(b)))
       in
       let dobj = Vec.dot it.b_vec y in
       let gap = Float.abs (pobj -. dobj) /. (1.0 +. Float.max (Float.abs pobj) (Float.abs dobj)) in
       let pres = Vec.norm2 r_p /. (1.0 +. Vec.norm2 it.b_vec) in
       let dres =
         let bp = Array.fold_left (fun a w -> Float.max a (Mat.norm_fro w)) 0.0 r_d in
         Float.max bp (Vec.norm2 r_f) /. (1.0 +. norm_c)
       in
       if params.verbose then
         Log.app (fun k ->
             k "iter %3d  mu %.3e  gap %.3e  pres %.3e  dres %.3e  pobj %.6e" iter mu gap
               pres dres pobj);
       trace_rev := (iter, gap, pres, dres) :: !trace_rev;
       if gap <= params.tol_gap && pres <= params.tol_res && dres <= params.tol_res then
         raise (Done (result Optimal iter));
       let score = Float.max gap (Float.max pres dres) in
       maybe_snapshot score;
       (* Diverging past a converged iterate: fall back to the best one. *)
       if score > 1e4 *. !best_score && !best_score < 1e-4 then
         raise (Done (classify_best iter));
       (* Crude infeasibility detection. *)
       if Float.abs dobj > 1e9 *. (1.0 +. norm_b) && dres <= 1e-6 then
         raise (Done (result Primal_infeasible iter));
       if Float.abs pobj > 1e9 *. (1.0 +. norm_c) && pres <= 1e-6 then
         raise (Done (result Dual_infeasible iter));
       (* Schur complement M_ij = sum_b <A_i, X A_j Sinv>. Two regimes
          per block: when the constraints touching the block are sparse
          (the SOS coefficient-matching case, ~3 entries each), the
          pair sums are evaluated directly from per-constraint panels
          P_i = A_i Sinv restricted to touched rows — W_i = X P_i is
          never materialized, so the n^2 gather per constraint
          disappears. Dense blocks fall back to the sandwich-and-dot
          path. *)
       let mmat = Mat.create m m in
       let md = mmat.Mat.data in
       let w_cache = Array.make m None in
       for b = 0 to nb - 1 do
         let idx = it.block_cons.(b) in
         let ni = Array.length idx in
         if ni > 0 then begin
           let n = dims.(b) in
           let tot_nnz = ref 0 in
           Array.iter
             (fun i ->
               tot_nnz := !tot_nnz + Array.length it.cons_blocks.(i).(b).entries)
             idx;
           if !tot_nnz < 2 * n * n then begin
             let xd = x.(b).Mat.data and sd = s_inv.(b).Mat.data in
             (* slot.(t) is only ever read for t in the *current*
                constraint's touched set, so one scratch array per block
                needs no resetting between constraints. *)
             let slot = Array.make n 0 in
             (* Transposed panel per constraint: pt.((j*nt)+k) is
                (A_i Sinv)[touched_i.(k), j], so the on-demand dots
                stream it contiguously. *)
             let panels =
               Array.map
                 (fun i ->
                   let sb = it.cons_blocks.(i).(b) in
                   let nt = Array.length sb.touched in
                   Array.iteri (fun k t -> slot.(t) <- k) sb.touched;
                   let p = Array.make (n * nt) 0.0 in
                   Array.iter
                     (fun (r, c, v) ->
                       let sr = slot.(r) in
                       let rc = c * n in
                       for j = 0 to n - 1 do
                         let o = (j * nt) + sr in
                         Array.unsafe_set p o
                           (Array.unsafe_get p o
                           +. (v *. Array.unsafe_get sd (rc + j)))
                       done;
                       if r <> c then begin
                         let sc = slot.(c) in
                         let rr = r * n in
                         for j = 0 to n - 1 do
                           let o = (j * nt) + sc in
                           Array.unsafe_set p o
                             (Array.unsafe_get p o
                             +. (v *. Array.unsafe_get sd (rr + j)))
                         done
                       end)
                     sb.entries;
                   p)
                 idx
             in
             (* W_i[r,c] = sum_k X[r, touched_i.(k)] * pt_i[(c*nt)+k]. *)
             for ii = 0 to ni - 1 do
               let i = idx.(ii) in
               let sbi = it.cons_blocks.(i).(b) in
               let nt = Array.length sbi.touched in
               let tch = sbi.touched and pt = panels.(ii) in
               let w_entry r c =
                 let rr = r * n and cnt = c * nt in
                 let acc = ref 0.0 in
                 for k = 0 to nt - 1 do
                   acc :=
                     !acc
                     +. Array.unsafe_get xd (rr + Array.unsafe_get tch k)
                        *. Array.unsafe_get pt (cnt + k)
                 done;
                 !acc
               in
               for jj = ii to ni - 1 do
                 let j = idx.(jj) in
                 let acc = ref 0.0 in
                 Array.iter
                   (fun (r, c, v) ->
                     if r = c then acc := !acc +. (v *. w_entry r r)
                     else acc := !acc +. (v *. (w_entry r c +. w_entry c r)))
                   it.cons_blocks.(j).(b).entries;
                 let o = (i * m) + j in
                 Array.unsafe_set md o (Array.unsafe_get md o +. !acc)
               done
             done
           end
           else begin
             Array.iter
               (fun i ->
                 let w = sb_sandwich it.cons_blocks.(i).(b) x.(b) s_inv.(b) in
                 w_cache.(i) <- Some w)
               idx;
             Array.iter
               (fun i ->
                 match w_cache.(i) with
                 | None -> ()
                 | Some wi ->
                     Array.iter
                       (fun j ->
                         if j >= i then begin
                           let v = sb_dot it.cons_blocks.(j).(b) wi in
                           Mat.set mmat i j (Mat.get mmat i j +. v)
                         end)
                       idx)
               idx;
             Array.iter (fun i -> w_cache.(i) <- None) idx
           end
         end
       done;
       for i = 0 to m - 1 do
         for j = 0 to i - 1 do
           Mat.set mmat i j (Mat.get mmat j i)
         done
       done;
       let m_chol =
         match robust_chol mmat with
         | Some l -> l
         | None -> raise (Done (if !best_score < 1e-4 then classify_best iter else result Numerical_failure iter))
       in
       (* Saddle solve shared by predictor and corrector. The reduced
          free-variable system K = B' M^-1 B depends only on m_chol, so
          it is assembled and factored once per iteration and reused by
          both solve_direction calls. *)
       let k_solve =
         if nf = 0 then fun _ -> [||]
         else begin
           let minv_b = Mat.chol_solve_mat m_chol it.b_mat in
           let k = Mat.mul (Mat.transpose it.b_mat) minv_b in
           let kreg = 1e-12 *. (1.0 +. Mat.norm_inf k) in
           for d = 0 to nf - 1 do
             Mat.set k d d (Mat.get k d d +. kreg)
           done;
           match robust_chol k with
           | Some k_chol -> Mat.chol_solve k_chol
           | None -> Mat.solve k
         end
       in
       let solve_direction rhs_g =
         if nf = 0 then (Mat.chol_solve m_chol rhs_g, [||])
         else begin
           let minv_g = Mat.chol_solve m_chol rhs_g in
           let rhs_f = Vec.sub (Mat.tmul_vec it.b_mat minv_g) r_f in
           let df = k_solve rhs_f in
           let dy = Mat.chol_solve m_chol (Vec.sub rhs_g (Mat.mul_vec it.b_mat df)) in
           (dy, df)
         end
       in
       (* F_b = X R_d Sinv per block (shared). *)
       let f_term = Array.init nb (fun b -> Mat.mul x.(b) (Mat.mul r_d.(b) s_inv.(b))) in
       let direction e_blocks =
         (* g = r_p - A(E) + A(F) *)
         let ae = op_a it e_blocks in
         let af = op_a it f_term in
         let g = Array.init m (fun i -> r_p.(i) -. ae.(i) +. af.(i)) in
         let dy, df = solve_direction g in
         let a_star_dy = op_a_star it dy in
         let ds = Array.init nb (fun b -> Mat.sub r_d.(b) a_star_dy.(b)) in
         let dx =
           Array.init nb (fun b ->
               Mat.symmetrize
                 (Mat.sub e_blocks.(b) (Mat.mul x.(b) (Mat.mul ds.(b) s_inv.(b)))))
         in
         (dx, ds, dy, df)
       in
       (* Predictor: E = -X. *)
       let e_aff = Array.map Mat.neg x in
       let dx_a, ds_a, _, _ = direction e_aff in
       let alpha_p_aff =
         Array.init nb (fun b -> max_step ~frac:1.0 x.(b) x_chol.(b) dx_a.(b))
         |> Array.fold_left Float.min 1.0
       in
       let alpha_d_aff =
         Array.init nb (fun b -> max_step ~frac:1.0 s.(b) s_chol.(b) ds_a.(b))
         |> Array.fold_left Float.min 1.0
       in
       let mu_aff =
         Array.init nb (fun b ->
             let xn = Mat.add x.(b) (Mat.scale alpha_p_aff dx_a.(b)) in
             let sn = Mat.add s.(b) (Mat.scale alpha_d_aff ds_a.(b)) in
             Mat.frob_dot xn sn)
         |> Array.fold_left ( +. ) 0.0
         |> fun t -> t /. n_total
       in
       let sigma =
         let r = mu_aff /. Float.max mu 1e-300 in
         Float.min 0.9 (Float.max 1e-6 (r *. r *. r))
       in
       (* Corrector: E = sigma*mu*Sinv - X - dXa dSa Sinv. *)
       let e_corr =
         Array.init nb (fun b ->
             let corr = Mat.mul dx_a.(b) (Mat.mul ds_a.(b) s_inv.(b)) in
             Mat.sub (Mat.sub (Mat.scale (sigma *. mu) s_inv.(b)) x.(b)) corr)
       in
       let dx, ds, dy, df = direction e_corr in
       let alpha_p =
         Array.init nb (fun b -> max_step ~frac:params.step_frac x.(b) x_chol.(b) dx.(b))
         |> Array.fold_left Float.min 1.0
       in
       let alpha_d =
         Array.init nb (fun b -> max_step ~frac:params.step_frac s.(b) s_chol.(b) ds.(b))
         |> Array.fold_left Float.min 1.0
       in
       if alpha_p < 1e-10 && alpha_d < 1e-10 then
         raise (Done (if !best_score < 1e-4 then classify_best iter else result Numerical_failure iter));
       for b = 0 to nb - 1 do
         x.(b) <- Mat.symmetrize (Mat.add x.(b) (Mat.scale alpha_p dx.(b)));
         s.(b) <- Mat.symmetrize (Mat.add s.(b) (Mat.scale alpha_d ds.(b)))
       done;
       Vec.axpy alpha_d dy y;
       Vec.axpy alpha_p df f
     done;
     (* Iteration limit: return the best iterate seen, suitably classified. *)
     classify_best params.max_iter
  with Done r -> r

(* ------------------------------------------------------------------ *)
(* Jacobi equilibration: per-block diagonal scaling D chosen from the
   largest |entry| touching each row across all constraint and objective
   matrices. The scaled problem has A'_i = D A_i D, C' = D C D; its
   solution maps back exactly by X = D X' D, S = D^{-1} S' D^{-1} with y
   and f unchanged, so objective values and primal feasibility are
   preserved on the original data. Used as a retry-ladder rung for
   ill-conditioned instances. *)

let equilibration_scales p =
  let w = Array.map (fun d -> Array.make d 0.0) p.block_dims in
  let touch (e : block_entry) =
    let a = Float.abs e.value in
    let wb = w.(e.blk) in
    if a > wb.(e.row) then wb.(e.row) <- a;
    if a > wb.(e.col) then wb.(e.col) <- a
  in
  Array.iter (fun c -> List.iter touch c.lhs) p.constraints;
  List.iter touch p.obj_blocks;
  Array.map
    (Array.map (fun v ->
         if v <= 1e-12 then 1.0 else Float.min 1e4 (Float.max 1e-4 (1.0 /. sqrt v))))
    w

let equilibrate_problem p d =
  let scale_entry (e : block_entry) =
    { e with value = e.value *. d.(e.blk).(e.row) *. d.(e.blk).(e.col) }
  in
  {
    p with
    constraints =
      Array.map (fun c -> { c with lhs = List.map scale_entry c.lhs }) p.constraints;
    obj_blocks = List.map scale_entry p.obj_blocks;
  }

let unscale_solution d sol =
  let congruence f b (m : Mat.t) =
    Mat.init m.Mat.rows m.Mat.rows (fun i j -> f d.(b).(i) *. f d.(b).(j) *. Mat.get m i j)
  in
  {
    sol with
    x_blocks = Array.mapi (congruence (fun v -> v)) sol.x_blocks;
    s_blocks = Array.mapi (congruence (fun v -> 1.0 /. v)) sol.s_blocks;
  }

(* Process-wide count of interior-point solves, read by the
   benchmark's in-process counting pass (forked workers keep their own
   counts). *)
let solves_total = ref 0

let solve_count () = !solves_total

(* Map a warm capsule into equilibrated coordinates. The solved problem
   has X = D X' D and S = D^{-1} S' D^{-1} (see [unscale_solution]), so a
   capsule recorded on original data enters the scaled solve as
   X' = D^{-1} X D^{-1}, S' = D S D; y and f are unchanged. *)
let equilibrate_capsule d w =
  let congruence f b (m : Mat.t) =
    Mat.init m.Mat.rows m.Mat.rows (fun i j -> f d.(b).(i) *. f d.(b).(j) *. Mat.get m i j)
  in
  {
    w with
    ws_x = Array.mapi (congruence (fun v -> 1.0 /. v)) w.ws_x;
    ws_s = Array.mapi (congruence (fun v -> v)) w.ws_s;
  }

let solve ?(params = default_params) ?warm p =
  incr solves_total;
  (* A capsule is applied only when it matches this problem's structure
     and is numerically sound; anything else silently degrades to a cold
     start so hints can never change what is solvable. *)
  let warm =
    match warm with
    | Some w
      when String.equal w.ws_structure (structure_fingerprint p)
           && capsule_shape_ok p w && capsule_finite w ->
        Some w
    | _ -> None
  in
  if not params.equilibrate then solve_core ~params ?warm p
  else begin
    let d = equilibration_scales p in
    let warm = Option.map (equilibrate_capsule d) warm in
    let sol = solve_core ~params ?warm (equilibrate_problem p d) in
    unscale_solution d sol
  end

(* Canonical, byte-deterministic serialization of (problem, solve-relevant
   params) — the content-addressed identity of a solve request. Floats are
   printed in hexadecimal notation (%h), which round-trips exactly, so two
   requests share a fingerprint iff the solver would see bit-identical
   inputs. [on_iteration] and [verbose] are deliberately excluded: hooks
   (deadlines, fault injection) and logging do not change what a clean,
   uninterrupted solve returns. *)
let canonical_serialization ?(params = default_params) p =
  let buf = Buffer.create 4096 in
  let adds = Buffer.add_string buf in
  adds "pll-sdp-problem v1\nblocks";
  Array.iter (fun d -> adds (Printf.sprintf " %d" d)) p.block_dims;
  adds (Printf.sprintf "\nfree %d\n" p.n_free);
  let add_entries tag entries =
    adds tag;
    List.iter
      (fun e -> adds (Printf.sprintf " %d:%d:%d:%h" e.blk e.row e.col e.value))
      entries;
    Buffer.add_char buf '\n'
  in
  Array.iter
    (fun c ->
      add_entries "A" c.lhs;
      adds "B";
      List.iter (fun (k, v) -> adds (Printf.sprintf " %d:%h" k v)) c.free;
      adds (Printf.sprintf "\nb %h\n" c.rhs))
    p.constraints;
  add_entries "C" p.obj_blocks;
  adds "cf";
  List.iter (fun (k, v) -> adds (Printf.sprintf " %d:%h" k v)) p.obj_free;
  adds
    (Printf.sprintf "\nparams %d %h %h %h %h %h %b\n" params.max_iter params.tol_gap
       params.tol_res params.near_factor params.step_frac params.init_scale
       params.equilibrate);
  Buffer.contents buf

let fingerprint ?params p = Digest.to_hex (Digest.string (canonical_serialization ?params p))

let to_sdpa p =
  let buf = Buffer.create 4096 in
  let m = Array.length p.constraints in
  let nb = Array.length p.block_dims in
  let nf = p.n_free in
  (* Free variables become a diagonal block of size 2*nf (u - v split). *)
  let nblocks = if nf > 0 then nb + 1 else nb in
  Buffer.add_string buf (Printf.sprintf "%d = mDIM\n" m);
  Buffer.add_string buf (Printf.sprintf "%d = nBLOCK\n" nblocks);
  let dims =
    Array.to_list (Array.map string_of_int p.block_dims)
    @ (if nf > 0 then [ string_of_int (-2 * nf) ] else [])
  in
  Buffer.add_string buf ("(" ^ String.concat ", " dims ^ ") = bLOCKsTRUCT\n");
  Buffer.add_string buf
    (String.concat " "
       (Array.to_list (Array.map (fun c -> Printf.sprintf "%.17g" c.rhs) p.constraints))
    ^ "\n");
  (* Entry lines: <matno> <blkno> <i> <j> <value>, 1-indexed; matno 0 is
     the objective (SDPA convention: F0, with max tr(F0 Y) duality — we
     emit C directly; sign conventions documented in the header). *)
  let emit matno blk i j v =
    if v <> 0.0 then
      Buffer.add_string buf (Printf.sprintf "%d %d %d %d %.17g\n" matno (blk + 1) (i + 1) (j + 1) v)
  in
  List.iter (fun e -> emit 0 e.blk e.row e.col e.value) p.obj_blocks;
  List.iter
    (fun (k, v) ->
      if nf > 0 then begin
        emit 0 nb k k v;
        emit 0 nb (nf + k) (nf + k) (-.v)
      end)
    p.obj_free;
  Array.iteri
    (fun idx c ->
      let matno = idx + 1 in
      List.iter (fun e -> emit matno e.blk e.row e.col e.value) c.lhs;
      List.iter
        (fun (k, v) ->
          emit matno nb k k v;
          emit matno nb (nf + k) (nf + k) (-.v))
        c.free)
    p.constraints;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Stateful solver sessions: a capsule memory keyed by structure
   fingerprint plus accept/reject accounting. The contract that keeps
   warm starts invisible to callers:
     - a warm attempt runs on a reduced iteration budget and is accepted
       only when it reaches [Optimal]; anything else triggers a cold
       re-solve with the caller's original params, so statuses and
       salvage diagnostics are never those of a starved warm attempt;
     - only clean solutions ([Optimal], no injected faults) are
       remembered;
     - jitter rungs ([init_scale <> 1.0]) request a deliberately
       different starting point, so hints are skipped there. *)
module Session = struct
  type counters = { warm_accepted : int; warm_rejected : int; cold_solves : int }

  (* Process-wide totals across every session (bench/report accounting —
     sessions are created deep inside per-phase configs, so a global sum
     is the only cheap way to observe them from the outside). *)
  let warm_accepted_total = ref 0
  let warm_rejected_total = ref 0
  let cold_total = ref 0

  let totals () =
    {
      warm_accepted = !warm_accepted_total;
      warm_rejected = !warm_rejected_total;
      cold_solves = !cold_total;
    }

  type t = {
    sess_params : params;
    memory : (string, warm_start) Hashtbl.t;
    mutable warm_accepted : int;
    mutable warm_rejected : int;
    mutable cold_solves : int;
  }

  let create ?(params = default_params) () =
    {
      sess_params = params;
      memory = Hashtbl.create 16;
      warm_accepted = 0;
      warm_rejected = 0;
      cold_solves = 0;
    }

  let params t = t.sess_params

  let counters t =
    {
      warm_accepted = t.warm_accepted;
      warm_rejected = t.warm_rejected;
      cold_solves = t.cold_solves;
    }

  let hint_for t p = Hashtbl.find_opt t.memory (structure_fingerprint p)

  let remember t p sol =
    if sol.status = Optimal && sol.injected = 0 then
      match warm_start_of_solution p sol with
      | Some w -> Hashtbl.replace t.memory w.ws_structure w
      | None -> ()

  (* Bound the cost of a failed warm attempt: the cold fallback then
     costs at most ~1/3 extra over a straight cold solve. *)
  let warm_budget params = { params with max_iter = Int.max 20 (params.max_iter / 3) }

  let solve t ?hint ?params prob =
    let params = Option.value params ~default:t.sess_params in
    let fp = structure_fingerprint prob in
    let hint =
      match hint with
      | Some w -> if String.equal w.ws_structure fp then Some w else None
      | None -> Hashtbl.find_opt t.memory fp
    in
    let sol =
      match hint with
      | Some w when params.init_scale = 1.0 ->
          let attempt = solve ~params:(warm_budget params) ~warm:w prob in
          if attempt.status = Optimal then begin
            t.warm_accepted <- t.warm_accepted + 1;
            incr warm_accepted_total;
            attempt
          end
          else begin
            t.warm_rejected <- t.warm_rejected + 1;
            incr warm_rejected_total;
            t.cold_solves <- t.cold_solves + 1;
            incr cold_total;
            solve ~params prob
          end
      | _ ->
          t.cold_solves <- t.cold_solves + 1;
          incr cold_total;
          solve ~params prob
    in
    remember t prob sol;
    sol
end

let feasibility_margin p sol =
  let worst = ref 0.0 in
  Array.iter
    (fun c ->
      let v = ref (-.c.rhs) in
      List.iter
        (fun e ->
          let x = sol.x_blocks.(e.blk) in
          let t =
            if e.row = e.col then e.value *. Mat.get x e.row e.col
            else e.value *. (Mat.get x e.row e.col +. Mat.get x e.col e.row)
          in
          v := !v +. t)
        c.lhs;
      List.iter (fun (k, w) -> v := !v +. (w *. sol.f.(k))) c.free;
      worst := Float.max !worst (Float.abs !v))
    p.constraints;
  !worst
