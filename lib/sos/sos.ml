module Dvar = Dvar
module Lexpr = Lexpr
module Ppoly = Ppoly
module Monomial = Poly.Monomial
module Mat = Linalg.Mat

let src = Logs.Src.create "sos" ~doc:"SOS programming layer"

module Log = (val Logs.src_log src : Logs.LOG)

type gram_block = { basis : Monomial.t array }

type t = {
  nvars : int;
  mutable n_free : int;
  mutable blocks : gram_block list; (* reversed *)
  mutable n_blocks : int;
  mutable eqs : Lexpr.t list; (* each must equal zero; reversed *)
  mutable n_eqs : int;
  mutable objective : Lexpr.t;
}

let create ~nvars =
  {
    nvars;
    n_free = 0;
    blocks = [];
    n_blocks = 0;
    eqs = [];
    n_eqs = 0;
    objective = Lexpr.zero;
  }

let nvars p = p.nvars

let fresh_free p =
  let k = p.n_free in
  p.n_free <- k + 1;
  Lexpr.var (Dvar.Free k)

(* [Monomial.all_upto n d], enumerated once per [(n, d)]: a verdict
   poses hundreds of bases from a handful of these lists. The monomials
   are shared, and never mutated. *)
let all_upto =
  let memo = ref [] in
  fun n d ->
    match List.find_opt (fun (n', d', _) -> n' = n && d' = d) !memo with
    | Some (_, _, l) -> l
    | None ->
        let l = Monomial.all_upto n d in
        memo := (n, d, l) :: !memo;
        l

let fresh_poly_basis p basis =
  Ppoly.of_terms p.nvars (List.map (fun m -> (m, fresh_free p)) basis)

let fresh_poly ?(min_deg = 0) p ~deg =
  let basis =
    List.filter
      (fun m -> Monomial.degree m >= min_deg)
      (all_upto p.nvars deg)
  in
  fresh_poly_basis p basis

(* Create a Gram block over [basis] and return z' G z as a Ppoly. *)
let fresh_gram p basis =
  let blk = p.n_blocks in
  p.n_blocks <- blk + 1;
  p.blocks <- { basis } :: p.blocks;
  let n = Array.length basis in
  let terms = ref [] in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      let m = Monomial.mul basis.(i) basis.(j) in
      let c = if i = j then 1.0 else 2.0 in
      terms := (m, Lexpr.of_terms 0.0 [ (Dvar.Gram (blk, i, j), c) ]) :: !terms
    done
  done;
  Ppoly.of_terms p.nvars (List.rev !terms)

(* [vars] masks which state variables may occur in the basis; restricting
   to the variables that actually appear in an expression removes large
   null spaces from the SDP (Gram rows that no equality constrains). *)
let sos_basis ?vars p ~lo ~hi =
  let allowed m =
    match vars with
    | None -> true
    | Some mask ->
        let ok = ref true in
        Array.iteri (fun i e -> if e > 0 && not mask.(i) then ok := false) m;
        !ok
  in
  Array.of_list
    (List.filter
       (fun m -> Monomial.degree m >= lo && allowed m)
       (all_upto p.nvars hi))

let fresh_sos ?(min_deg = 0) ?vars p ~deg =
  let hi = (deg + 1) / 2 in
  let lo = (min_deg + 1) / 2 in
  fresh_gram p (sos_basis ?vars p ~lo ~hi)

let add_zero p pp =
  List.iter
    (fun (_, e) ->
      p.eqs <- e :: p.eqs;
      p.n_eqs <- p.n_eqs + 1)
    (Ppoly.terms pp)

let vars_of_ppoly p pp =
  let mask = Array.make p.nvars false in
  List.iter
    (fun (m, _) -> Array.iteri (fun i e -> if e > 0 then mask.(i) <- true) m)
    (Ppoly.terms pp);
  mask

let vars_of_poly p q mask =
  ignore p;
  List.iter
    (fun (m, _) -> Array.iteri (fun i e -> if e > 0 then mask.(i) <- true) m)
    (Poly.terms q)

(* Diagonal-consistency pruning (a cheap Newton-polytope reduction, as in
   SOSTOOLS): a basis monomial z can be dropped when its square 2z is not
   in the support of p and cannot arise as a cross product zi*zj of two
   other (distinct) basis monomials — the PSD Gram then forces the whole
   z-row to zero, so z only adds dimension. Iterate to a fixed point. *)
let prune_basis pp basis =
  let n = if Array.length basis = 0 then 0 else Monomial.arity basis.(0) in
  (* Binary search of an array in {!Monomial.compare} order. *)
  let mem sorted m =
    let rec go lo hi =
      lo < hi
      &&
      let mid = (lo + hi) / 2 in
      let c = Monomial.compare m sorted.(mid) in
      c = 0 || if c < 0 then go lo mid else go (mid + 1) hi
    in
    go 0 (Array.length sorted)
  in
  let support = Array.of_list (List.map fst (Ppoly.terms pp)) in
  let z2 = Array.make n 0 and zj = Array.make n 0 in
  (* [basis] comes from [sos_basis], in {!Monomial.compare} order, and
     filtering keeps that order. *)
  let rec fix basis =
    (* [zi * zj = z^2] for some [zi <> z] and [zj <> zi] of [basis];
       [zj] is built in place. *)
    let cross z =
      Array.exists
        (fun zi ->
          (not (Monomial.equal zi z))
          &&
          let divides = ref true in
          for i = 0 to n - 1 do
            let e = z2.(i) - zi.(i) in
            if e < 0 then divides := false;
            zj.(i) <- e
          done;
          !divides && (not (Monomial.equal zj zi)) && mem basis zj)
        basis
    in
    let keep z =
      for i = 0 to n - 1 do
        z2.(i) <- 2 * z.(i)
      done;
      mem support z2 || cross z
    in
    let kept = List.filter keep (Array.to_list basis) in
    if List.compare_length_with kept (Array.length basis) = 0 then basis
    else fix (Array.of_list kept)
  in
  fix basis

let add_sos p pp =
  let dmin = Ppoly.min_degree pp in
  let dmax = Ppoly.max_degree pp in
  if dmax < 0 then () (* identically zero: trivially SOS *)
  else begin
    let lo = if dmin = max_int then 0 else (dmin + 1) / 2 in
    let hi = (dmax + 1) / 2 in
    let vars = vars_of_ppoly p pp in
    let basis = prune_basis pp (sos_basis ~vars p ~lo ~hi) in
    if Array.length basis = 0 then
      (* Nothing can be squared: p itself must vanish identically. *)
      add_zero p pp
    else begin
      let gram = fresh_gram p basis in
      add_zero p (Ppoly.sub pp gram)
    end
  end

let even_ceil d = if d mod 2 = 0 then d else d + 1

let add_nonneg_on ?mult_deg ?(equalities = []) p ~domain pp =
  let expr_deg = even_ceil (Int.max 0 (Ppoly.max_degree pp)) in
  (* SOS multipliers have even degree; round the complement up so that
     odd-degree constraints (e.g. linear slab faces) still get a useful
     multiplier — the Gram basis of the enclosing [add_sos] grows to
     absorb the extra degree. Free (equality) multipliers λ·h can have
     any parity, so take the exact complement. *)
  let sos_deg dg =
    match mult_deg with Some d -> d | None -> even_ceil (Int.max 0 (expr_deg - dg))
  in
  let free_deg dh =
    match mult_deg with Some d -> d | None -> Int.max 0 (expr_deg - dh)
  in
  (* Domain data is normalized to unit coefficient scale — the S-procedure
     is invariant under positive scaling of each g, and wildly mixed
     scales (e.g. composed box constraints vs. tiny margins) otherwise
     wreck the SDP conditioning. *)
  let normalize g =
    let c = Poly.max_coeff g in
    if c > 0.0 then Poly.scale (1.0 /. c) g else g
  in
  let domain = List.map normalize domain in
  let equalities = List.map normalize equalities in
  (* Multipliers range over the variables occurring in the expression or
     the domain — not the problem's full arity. *)
  let vars = vars_of_ppoly p pp in
  List.iter (fun g -> vars_of_poly p g vars) domain;
  List.iter (fun h -> vars_of_poly p h vars) equalities;
  let expr =
    List.fold_left
      (fun acc g ->
        let sigma = fresh_sos p ~vars ~deg:(sos_deg (Int.max 0 (Poly.degree g))) in
        Ppoly.sub acc (Ppoly.mul_poly g sigma))
      pp domain
  in
  let expr =
    List.fold_left
      (fun acc h ->
        let basis =
          List.filter
            (fun m ->
              let ok = ref true in
              Array.iteri (fun i e -> if e > 0 && not vars.(i) then ok := false) m;
              !ok)
            (all_upto p.nvars (free_deg (Int.max 0 (Poly.degree h))))
        in
        let lambda = fresh_poly_basis p basis in
        Ppoly.sub acc (Ppoly.mul_poly h lambda))
      expr equalities
  in
  add_sos p expr

let add_set_inclusion ?mult_deg p ~outer p1 =
  (* {p1 <= 0} ⊆ {outer <= 0}  ⟸  -outer - σ·(-p1) ∈ Σ, σ ∈ Σ *)
  let d_out = Int.max 0 (Ppoly.max_degree outer) in
  let d1 = Int.max 0 (Poly.degree p1) in
  let d = match mult_deg with Some d -> d | None -> even_ceil (Int.max 0 (even_ceil d_out - d1)) in
  let sigma = fresh_sos p ~deg:d in
  add_sos p (Ppoly.sub (Ppoly.neg outer) (Ppoly.mul_poly (Poly.neg p1) sigma))

let maximize p e = p.objective <- e

let n_equalities p = p.n_eqs

let n_gram_blocks p = p.n_blocks

type solution = {
  sdp : Sdp.solution;
  assign : Dvar.t -> float;
  objective : float;
  feasible : bool;
  certified : bool;
  min_gram_eig : float;
  max_eq_residual : float;
}

let to_sdp p =
  let blocks = Array.of_list (List.rev p.blocks) in
  let block_dims = Array.map (fun b -> Array.length b.basis) blocks in
  let translate_terms e =
    let lhs = ref [] and free = ref [] in
    List.iter
      (fun (v, c) ->
        match v with
        | Dvar.Free k -> free := (k, c) :: !free
        | Dvar.Gram (b, i, j) ->
            let value = if i = j then c else c /. 2.0 in
            lhs := { Sdp.blk = b; row = i; col = j; value } :: !lhs)
      (Lexpr.terms e);
    (!lhs, !free)
  in
  let constraints =
    List.rev_map
      (fun e ->
        let lhs, free = translate_terms e in
        { Sdp.lhs; free; rhs = -.(Lexpr.constant e) })
      p.eqs
    |> Array.of_list
  in
  (* SDP minimizes; we maximize the objective. *)
  let obj = Lexpr.neg p.objective in
  let obj_blocks, obj_free = translate_terms obj in
  ( blocks,
    {
      Sdp.block_dims;
      n_free = p.n_free;
      constraints;
      obj_blocks;
      obj_free;
    } )

module Options = struct
  type solver_fn = ?params:Sdp.params -> Sdp.problem -> Sdp.solution

  type t = {
    solver : solver_fn option;
    params : Sdp.params option;
    psd_tol : float;
    eq_tol : float;
  }

  let default = { solver = None; params = None; psd_tol = 1e-7; eq_tol = 1e-5 }

  let make ?solver ?params ?(psd_tol = 1e-7) ?(eq_tol = 1e-5) () =
    { solver; params; psd_tol; eq_tol }
end

let solve ?(options = Options.default) p =
  let psd_tol = options.Options.psd_tol and eq_tol = options.Options.eq_tol in
  (* Inconsistent constant equalities make the problem trivially infeasible. *)
  let trivially_infeasible =
    List.exists
      (fun e -> Lexpr.is_const e && Float.abs (Lexpr.constant e) > 1e-12)
      p.eqs
  in
  let blocks, sdp_prob = to_sdp p in
  Log.debug (fun k ->
      k "SOS -> SDP: %d equalities, %d gram blocks (dims %s), %d free vars" p.n_eqs
        p.n_blocks
        (String.concat ","
           (Array.to_list (Array.map string_of_int sdp_prob.Sdp.block_dims)))
        p.n_free);
  let sdp =
    match options.Options.solver with
    | Some solve -> solve ?params:options.Options.params sdp_prob
    | None -> Sdp.solve ?params:options.Options.params sdp_prob
  in
  let assign = function
    | Dvar.Free k -> sdp.Sdp.f.(k)
    | Dvar.Gram (b, i, j) -> Mat.get sdp.Sdp.x_blocks.(b) i j
  in
  let feasible =
    (not trivially_infeasible)
    && (sdp.Sdp.status = Sdp.Optimal || sdp.Sdp.status = Sdp.Near_optimal)
  in
  let min_gram_eig =
    Array.fold_left (fun acc x -> Float.min acc (Mat.min_eig x)) infinity
      sdp.Sdp.x_blocks
  in
  let min_gram_eig = if Array.length sdp.Sdp.x_blocks = 0 then 0.0 else min_gram_eig in
  (* Residuals are judged relative to each constraint's coefficient scale:
     certificate searches at higher degree produce O(10²)-size data, and an
     absolute tolerance would spuriously reject converged solutions. *)
  let max_eq_residual =
    List.fold_left
      (fun acc e ->
        Float.max acc (Float.abs (Lexpr.eval assign e) /. (1.0 +. Lexpr.max_coeff e)))
      0.0 p.eqs
  in
  let certified =
    feasible && min_gram_eig >= -.psd_tol && max_eq_residual <= eq_tol
  in
  ignore blocks;
  {
    sdp;
    assign;
    objective = Lexpr.eval assign p.objective;
    feasible;
    certified;
    min_gram_eig;
    max_eq_residual;
  }

let value sol pp = Ppoly.value sol.assign pp

let gram_blocks sol = Array.to_list sol.sdp.Sdp.x_blocks

let gram_bases p =
  Array.map (fun b -> b.basis) (Array.of_list (List.rev p.blocks))

let sos_witness p sol b =
  let blocks = Array.of_list (List.rev p.blocks) in
  if b < 0 || b >= Array.length blocks then invalid_arg "Sos.sos_witness";
  let basis = blocks.(b).basis in
  let g = sol.sdp.Sdp.x_blocks.(b) in
  let w, v = Mat.sym_eig g in
  let n = Array.length basis in
  let out = ref [] in
  for k = n - 1 downto 0 do
    if w.(k) > 1e-12 then begin
      let s = sqrt w.(k) in
      let coeffs = Array.init n (fun i -> s *. Mat.get v i k) in
      out := Poly.from_basis (Array.to_list basis) coeffs p.nvars :: !out
    end
  done;
  !out

let sdp_problem p = snd (to_sdp p)
