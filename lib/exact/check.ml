(* Trusted certificate kernel: exact identity + exact PSD checks, plus
   the rounding/absorption bridge from the floating-point solver. *)

module Monomial = Poly.Monomial

type sos_block = { basis : Monomial.t array; gram : Qmat.t }

type certificate = {
  nvars : int;
  target : Qpoly.t;
  sigmas : (Qpoly.t * sos_block) list;
  main : sos_block;
}

type block_id = Main | Sigma of int

type verdict =
  | Proven of { margin : Rat.t }
  | Identity_defect of { monomial : Monomial.t; defect : Rat.t }
  | Block_not_psd of { block : block_id; witness : Rat.t array; value : Rat.t }

let block_poly nvars (b : sos_block) = Qpoly.gram_poly nvars b.basis b.gram

let residual c =
  let decomposition =
    List.fold_left
      (fun acc (g, s) -> Qpoly.add acc (Qpoly.mul g (block_poly c.nvars s)))
      (block_poly c.nvars c.main) c.sigmas
  in
  Qpoly.sub c.target decomposition

let check c =
  match Qpoly.terms (residual c) with
  | (monomial, defect) :: _ -> Identity_defect { monomial; defect }
  | [] ->
      let blocks = List.mapi (fun i (_, s) -> (Sigma i, s)) c.sigmas @ [ (Main, c.main) ] in
      let rec go margin = function
        | [] -> Proven { margin = Option.value margin ~default:Rat.zero }
        | (id, (b : sos_block)) :: rest -> (
            match Qmat.psd b.gram with
            | Qmat.Not_psd { witness; value } -> Block_not_psd { block = id; witness; value }
            | Qmat.Psd { min_pivot } ->
                let margin =
                  if Array.length b.basis = 0 then margin
                  else
                    Some
                      (match margin with
                      | None -> min_pivot
                      | Some m -> Rat.min m min_pivot)
                in
                go margin rest)
      in
      go None blocks

(* Where can a residual monomial go? Into G0(i,j) with z_i*z_j = m,
   preferring a diagonal slot (a single entry, no halving). *)
let absorption_slot (basis : Monomial.t array) m =
  let k = Array.length basis in
  let slot = ref None in
  for i = 0 to k - 1 do
    if !slot = None && Monomial.equal (Monomial.mul basis.(i) basis.(i)) m then
      slot := Some (i, i)
  done;
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      if !slot = None && Monomial.equal (Monomial.mul basis.(i) basis.(j)) m then
        slot := Some (i, j)
    done
  done;
  !slot

let absorb_into_main c r =
  let gram = Qmat.copy c.main.gram in
  let half = Rat.of_ints 1 2 in
  let leftover =
    List.filter
      (fun (m, coef) ->
        match absorption_slot c.main.basis m with
        | None -> true (* unrepresentable here *)
        | Some (i, j) when i = j ->
            Qmat.set gram i i (Rat.add (Qmat.get gram i i) coef);
            false
        | Some (i, j) ->
            let h = Rat.mul half coef in
            Qmat.set gram i j (Rat.add (Qmat.get gram i j) h);
            Qmat.set gram j i (Rat.add (Qmat.get gram j i) h);
            false)
      r
  in
  ({ c with main = { c.main with gram } }, leftover)

(* When a residual monomial has no slot in the (reduced) main basis —
   the signature of a condition that binds at the basis-reduction
   point — fall back to projecting the whole rounded certificate back
   onto the identity subspace: solve, exactly, for corrections to the
   kept Gram entries of {e all} blocks (each σ entry acts through its
   g_j) such that the reachable part of the residual vanishes. Residual
   monomials generated by no kept slot at all are excluded from the
   system — no Gram correction can touch them — and survive into the
   verdict as an honest [Identity_defect]; callers that own the target
   (e.g. certificate repair) read them off [residual] afterwards. The
   corrections inherit the residual's tiny magnitude, and — like all
   absorption — only edit matrices that [check] subsequently PSD-tests,
   so the projection cannot create unsoundness. *)
let absorb_linear c =
  let blocks = List.map (fun (g, s) -> (Some g, s)) c.sigmas @ [ (None, c.main) ] in
  let cols = ref [] in
  List.iteri
    (fun b (gopt, (s : sos_block)) ->
      let dim = Array.length s.basis in
      for i = 0 to dim - 1 do
        for k = i to dim - 1 do
          let zz = Monomial.mul s.basis.(i) s.basis.(k) in
          let factor = if i = k then Rat.one else Rat.of_int 2 in
          let contrib =
            match gopt with
            | None -> [ (zz, factor) ]
            | Some g ->
                List.map
                  (fun (mg, cg) -> (Monomial.mul zz mg, Rat.mul factor cg))
                  (Qpoly.terms g)
          in
          cols := (b, i, k, contrib) :: !cols
        done
      done)
    blocks;
  let cols = Array.of_list (List.rev !cols) in
  let r = residual c in
  let module MMap = Map.Make (struct
    type t = Monomial.t

    let compare = Monomial.compare
  end) in
  let idx = ref MMap.empty in
  let nrows = ref 0 in
  let index m =
    match MMap.find_opt m !idx with
    | Some i -> i
    | None ->
        let i = !nrows in
        idx := MMap.add m i !idx;
        incr nrows;
        i
  in
  Array.iter (fun (_, _, _, contrib) -> List.iter (fun (m, _) -> ignore (index m)) contrib) cols;
  let a = Qmat.create !nrows (Array.length cols) in
  Array.iteri
    (fun jcol (_, _, _, contrib) ->
      List.iter
        (fun (m, v) ->
          let i = index m in
          Qmat.set a i jcol (Rat.add (Qmat.get a i jcol) v))
        contrib)
    cols;
  let b = Array.make !nrows Rat.zero in
  List.iter
    (fun (m, v) ->
      (* unreachable residual monomials stay out of the system *)
      match MMap.find_opt m !idx with Some i -> b.(i) <- v | None -> ())
    (Qpoly.terms r);
  match Qmat.lin_solve a b with
  | None -> c
  | Some x ->
      let grams = Array.of_list (List.map (fun (_, s) -> Qmat.copy s.gram) blocks) in
      Array.iteri
        (fun jcol (bi, i, k, _) ->
          let v = x.(jcol) in
          if Rat.sign v <> 0 then begin
            let g = grams.(bi) in
            if i = k then Qmat.set g i i (Rat.add (Qmat.get g i i) v)
            else begin
              Qmat.set g i k (Rat.add (Qmat.get g i k) v);
              Qmat.set g k i (Rat.add (Qmat.get g k i) v)
            end
          end)
        cols;
      let nsig = List.length c.sigmas in
      {
        c with
        sigmas = List.mapi (fun j (g, s) -> (g, { s with gram = grams.(j) })) c.sigmas;
        main = { c.main with gram = grams.(nsig) };
      }

let absorb c =
  match Qpoly.terms (residual c) with
  | [] -> c
  | r ->
      let c, leftover = absorb_into_main c r in
      if leftover = [] then c else absorb_linear c

(* Conditions that hold with equality somewhere (e.g. Lyapunov targets
   vanishing at the origin) force exactly-singular Gram rows: the true
   certificate lives in a reduced basis, and the float solver returns
   near-zero rows for the excess monomials. Rounding such a row yields a
   ~0 pivot with nonzero off-diagonals — an exact PSD failure that is
   pure noise. Dropping rows with negligible diagonal recovers the
   reduced certificate; the dropped mass lands in the residual, where
   absorption accounts for it soundly. *)
let drop_small_rows ~drop_tol basis (g : Linalg.Mat.t) =
  let n = Array.length basis in
  let diag i = Float.abs (Linalg.Mat.get g i i) in
  let max_diag = ref 0.0 in
  for i = 0 to n - 1 do
    max_diag := Float.max !max_diag (diag i)
  done;
  let thresh = drop_tol *. Float.max 1.0 !max_diag in
  let keep = ref [] in
  for i = n - 1 downto 0 do
    if diag i > thresh then keep := i :: !keep
  done;
  let keep = Array.of_list !keep in
  if Array.length keep = n then (basis, g)
  else
    ( Array.map (fun i -> basis.(i)) keep,
      Linalg.Mat.init (Array.length keep) (Array.length keep) (fun i j ->
          Linalg.Mat.get g keep.(i) keep.(j)) )

let default_drop_tol = 1e-7

let round_block ~denom_bits basis (g : Linalg.Mat.t) =
  if Array.length basis <> g.Linalg.Mat.rows || g.Linalg.Mat.rows <> g.Linalg.Mat.cols then
    invalid_arg "Check.round_block: basis/gram dimension mismatch";
  let q = Qmat.round_of_mat ~denom_bits g in
  (* symmetrize exactly: the float block can carry asymmetric noise *)
  let n = Array.length basis in
  let sym = Qmat.init n n (fun i j ->
      if i <= j then Qmat.get q i j else Qmat.get q j i)
  in
  { basis; gram = sym }

let default_denom_bits = 40

let certify_q ?(denom_bits = default_denom_bits) ?(drop_tol = default_drop_tol) ~nvars
    ~target ~sigmas ~main () =
  let prep (basis, gram) =
    let basis, gram = drop_small_rows ~drop_tol basis gram in
    round_block ~denom_bits basis gram
  in
  let cert =
    {
      nvars;
      target;
      sigmas = List.map (fun (g, blk) -> (g, prep blk)) sigmas;
      main = prep main;
    }
  in
  let cert = absorb cert in
  (cert, check cert)

let certify ?denom_bits ?drop_tol ~nvars ~target ~sigmas ~main () =
  certify_q ?denom_bits ?drop_tol ~nvars ~target:(Qpoly.of_poly target)
    ~sigmas:(List.map (fun (g, blk) -> (Qpoly.of_poly g, blk)) sigmas)
    ~main ()

let block_id_to_string = function
  | Main -> "main"
  | Sigma i -> Printf.sprintf "sigma[%d]" i

let verdict_to_string = function
  | Proven { margin } -> Printf.sprintf "Proven (margin %s)" (Rat.to_string margin)
  | Identity_defect { monomial; defect } ->
      Printf.sprintf "Identity defect at %s: off by %s"
        (Monomial.to_string monomial) (Rat.to_string defect)
  | Block_not_psd { block; value; _ } ->
      Printf.sprintf "Gram block %s not PSD (witness value %s)"
        (block_id_to_string block) (Rat.to_string value)

