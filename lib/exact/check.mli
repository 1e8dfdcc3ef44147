(** The trusted a-posteriori certificate kernel.

    The floating-point pipeline (interior-point SDP → Gram blocks) is
    treated as an untrusted oracle: whatever it produces is re-validated
    here in exact rational arithmetic. A {!certificate} is the full
    Positivstellensatz datum of one S-procedure constraint

    {v  target = Σ_j g_j · (z_jᵀ G_j z_j)  +  z₀ᵀ G₀ z₀,   G_j ⪰ 0, G₀ ⪰ 0  v}

    which proves [target(x) >= 0] on the semialgebraic set
    [{x | g_j(x) >= 0}] (a plain SOS proof when there are no [g_j]).
    {!check} decides the claim with no tolerances: the polynomial
    identity must hold coefficient-for-coefficient over [Q], and every
    Gram block must pass the exact LDLᵀ test of {!Qmat.psd}.

    The untrusted-to-trusted bridge is {!certify}: round the float Gram
    blocks to rationals ({!Qmat.round_of_mat}) and absorb the resulting
    identity residual into the main Gram block (Harrison/Löfberg-style
    rounding: each residual monomial [z_i·z_j] perturbs entry [(i,j)],
    diagonal entries preferred). Absorption only ever edits the matrix
    that is subsequently PSD-checked, so it cannot create unsoundness —
    at worst the perturbed block fails the PSD test and the verdict is
    {!Not_psd}. *)

(** One SOS summand: a monomial basis [z] and its Gram matrix [G],
    standing for the polynomial [zᵀ G z]. *)
type sos_block = { basis : Poly.Monomial.t array; gram : Qmat.t }

type certificate = {
  nvars : int;
  target : Qpoly.t;  (** the polynomial proved nonnegative on the set *)
  sigmas : (Qpoly.t * sos_block) list;
      (** S-procedure pairs [(g_j, σ_j)]; empty for a plain SOS proof *)
  main : sos_block;
}

(** Which Gram block an exact PSD refutation points at. *)
type block_id = Main | Sigma of int

type verdict =
  | Proven of { margin : Rat.t }
      (** Identity exact and every block PSD. [margin] is the smallest
          LDLᵀ pivot across all blocks — strictly positive iff every
          block is positive definite. *)
  | Identity_defect of { monomial : Poly.Monomial.t; defect : Rat.t }
      (** The decomposition misses the target: the coefficient of
          [monomial] is off by exactly [defect]. *)
  | Block_not_psd of { block : block_id; witness : Rat.t array; value : Rat.t }
      (** [witnessᵀ G witness = value < 0], exactly. *)

val residual : certificate -> Qpoly.t
(** [target − Σ g_j·(z_jᵀ G_j z_j) − z₀ᵀ G₀ z₀], computed exactly. *)

val check : certificate -> verdict
(** The kernel proper: exact identity check, then exact PSD checks.
    Everything it consumes is rational; no floats, no tolerances. *)

val absorb : certificate -> certificate
(** Fold the current residual into the Gram blocks. First pass: a
    residual term [c·m] with [m = z_i·z_j] adds [c] to [G₀(i,i)]
    (diagonal preferred) or [c/2] to each of [G₀(i,j)], [G₀(j,i)].
    Whatever has no slot in the main basis (the signature of a condition
    binding at the basis-reduction point) triggers a global projection
    instead: an exact linear solve for corrections to the kept Gram
    entries of {e all} blocks — each σ entry acting through its [g_j] —
    that cancels every {e reachable} residual monomial. Monomials
    generated by no kept slot cannot be touched by any Gram correction;
    they survive into {!check}'s verdict as an honest
    {!Identity_defect}. Absorption only edits matrices that {!check}
    subsequently PSD-tests, so it cannot create unsoundness. *)


val certify_q :
  ?denom_bits:int ->
  ?drop_tol:float ->
  nvars:int ->
  target:Qpoly.t ->
  sigmas:(Qpoly.t * (Poly.Monomial.t array * Linalg.Mat.t)) list ->
  main:Poly.Monomial.t array * Linalg.Mat.t ->
  unit ->
  certificate * verdict
(** Like {!certify}, but the target and domain polynomials are given
    exactly — used when the caller has repaired them in rational
    arithmetic and the proven statement must be about those exact
    polynomials rather than a float embedding. *)

val certify :
  ?denom_bits:int ->
  ?drop_tol:float ->
  nvars:int ->
  target:Poly.t ->
  sigmas:(Poly.t * (Poly.Monomial.t array * Linalg.Mat.t)) list ->
  main:Poly.Monomial.t array * Linalg.Mat.t ->
  unit ->
  certificate * verdict
(** Untrusted→trusted bridge: drop basis rows with negligible Gram
    diagonal (relative threshold [drop_tol], default 1e-7 — conditions
    that hold with equality at a point, such as Lyapunov targets
    vanishing at the origin, force exactly-singular rows that float
    noise would otherwise turn into spurious PSD failures), embed the
    float target and domain polynomials exactly, round every remaining
    Gram entry, absorb the residual, and run {!check}. Returns the
    (absorbed) exact certificate — the object worth persisting via
    {!Artifact} — together with its verdict. *)

val verdict_to_string : verdict -> string
