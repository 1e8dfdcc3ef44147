(** Sum-of-squares programming on top of the {!Sdp} interior-point solver.

    This is the OCaml replacement for the MATLAB/YALMIP layer the paper
    uses: it turns polynomial positivity constraints into semidefinite
    feasibility/optimization problems via the Gram-matrix (Parrilo)
    relaxation, with S-procedure helpers for semialgebraic domain
    restrictions (the paper's constraints (a)–(c), the level-set
    inclusion Lemma 1, the advection program of Eq. 6 and escape
    certificates are all built from these primitives).

    Typical usage:
    {[
      let prob = Sos.create ~nvars:2 in
      let v = Sos.fresh_poly prob ~deg:4 ~min_deg:2 in
      Sos.add_sos prob Ppoly.(sub v (of_poly (Poly.scale 1e-3 norm2)));
      Sos.add_nonneg_on prob ~domain:[ g ] (Ppoly.neg (Ppoly.lie_derivative v f));
      match Sos.solve prob with
      | { certified = true; _ } as sol -> Sos.value sol v
      | _ -> ...
    ]} *)

module Dvar = Dvar
module Lexpr = Lexpr
module Ppoly = Ppoly

type t
(** A mutable SOS problem under construction. *)

val create : nvars:int -> t
(** Fresh problem over [nvars] state variables. *)

val nvars : t -> int

val fresh_free : t -> Lexpr.t
(** A new free scalar decision variable, as an expression. *)

val fresh_poly : ?min_deg:int -> t -> deg:int -> Ppoly.t
(** A fully parametric polynomial with one free coefficient per monomial
    of total degree in [[min_deg, deg]] ([min_deg] defaults to 0). *)

val fresh_poly_basis : t -> Poly.Monomial.t list -> Ppoly.t
(** Parametric polynomial over an explicit monomial basis. *)

val fresh_sos : ?min_deg:int -> ?vars:bool array -> t -> deg:int -> Ppoly.t
(** A new SOS-constrained polynomial of degree at most [deg] (rounded up
    to even), represented by a PSD Gram matrix over the monomials of
    degree in [[ceil(min_deg/2), deg/2]]. [vars] restricts which state
    variables may occur. Guaranteed SOS by construction. *)

val add_zero : t -> Ppoly.t -> unit
(** Constrain a parametric polynomial to be identically zero
    (coefficientwise). *)

val add_sos : t -> Ppoly.t -> unit
(** Constrain the parametric polynomial to be a sum of squares: attaches
    a fresh Gram block with an automatically chosen monomial basis and
    matches coefficients. *)

val add_nonneg_on :
  ?mult_deg:int -> ?equalities:Poly.t list -> t -> domain:Poly.t list -> Ppoly.t -> unit
(** [add_nonneg_on prob ~domain:gs p] enforces [p(x) >= 0] for all [x] in
    the semialgebraic set [{x | g(x) >= 0 for all g in gs}] via the
    S-procedure: [p - Σ σ_g · g ∈ Σ] with fresh SOS multipliers [σ_g].
    [equalities] adds constraints [h(x) = 0] to the set, with free
    (sign-unrestricted) polynomial multipliers — used for switching
    surfaces such as [Δφ = 0]. [mult_deg] overrides the automatic
    multiplier degree. An empty [domain] yields a plain SOS
    constraint. *)

val add_set_inclusion : ?mult_deg:int -> t -> outer:Ppoly.t -> Poly.t -> unit
(** Lemma 1: [add_set_inclusion prob ~outer p1] enforces
    [{p1 <= 0} ⊆ {outer <= 0}] by [−outer − σ·(−p1) ∈ Σ] with a fresh
    SOS multiplier [σ]. [p1] must be constant-coefficient; [outer] may
    be parametric. *)

val maximize : t -> Lexpr.t -> unit
(** Set the objective (default: pure feasibility). *)

val n_equalities : t -> int
(** Number of scalar equality constraints accumulated so far. *)

val n_gram_blocks : t -> int
(** Number of Gram (PSD) blocks so far. *)

type solution = {
  sdp : Sdp.solution;  (** the raw SDP solution *)
  assign : Dvar.t -> float;  (** decision-variable valuation *)
  objective : float;  (** value of the objective (0 for feasibility) *)
  feasible : bool;  (** solver reported (near-)optimal convergence *)
  certified : bool;
      (** [feasible] and the a posteriori Gram PSD / residual checks
          passed *)
  min_gram_eig : float;  (** worst Gram-block minimum eigenvalue *)
  max_eq_residual : float;  (** worst equality-constraint violation *)
}

(** Everything that can vary about how a SOS problem is solved, in one
    record — the single point of configuration for {!solve} (replacing
    the scattered [?solver/?params/?psd_tol/?eq_tol] optional
    arguments). *)
module Options : sig
  type solver_fn = ?params:Sdp.params -> Sdp.problem -> Sdp.solution

  type t = {
    solver : solver_fn option;
        (** replaces the inner [Sdp.solve] call — the injection point
            through which [Resilient] hands every attempt to
            [Supervise.solve_sdp], which chooses its warm start and may
            run it in an isolated worker process; the SOS-level
            reconstruction and certificate check still run in the
            caller. *)
    params : Sdp.params option;  (** interior-point parameters *)
    psd_tol : float;
        (** a posteriori Gram PSD tolerance for [certified]; default 1e-7 *)
    eq_tol : float;
        (** a posteriori equality-residual tolerance (relative to
            constraint scale); default 1e-5 *)
  }

  val default : t
  (** No injected solver (a plain cold [Sdp.solve]), default
      params/tolerances. *)

  val make :
    ?solver:solver_fn -> ?params:Sdp.params -> ?psd_tol:float -> ?eq_tol:float -> unit -> t
end

val solve : ?options:Options.t -> t -> solution
(** Translate to an SDP, solve (with the injected solver, else a cold
    [Sdp.solve]), and validate. All solver configuration lives in
    [options] (default {!Options.default}). *)

val value : solution -> Ppoly.t -> Poly.t
(** Instantiate a parametric polynomial under the solution. *)

val gram_blocks : solution -> Linalg.Mat.t list
(** The PSD Gram blocks of the solution, in creation order. *)

val gram_bases : t -> Poly.Monomial.t array array
(** Monomial basis of each Gram block, in creation order — index-aligned
    with {!gram_blocks}. Together they let a caller reconstruct each SOS
    summand as [zᵀ G z] (e.g. to hand it to an exact certificate
    checker). *)

val sos_witness : t -> solution -> int -> Poly.t list
(** [sos_witness prob sol b] decomposes Gram block [b] into polynomials
    [p_i] with [Σ p_i² = zᵀ G z] (via eigen-decomposition of the Gram
    matrix, clipping negative eigenvalues at zero) — a human-checkable
    SOS witness. *)

val sdp_problem : t -> Sdp.problem
(** The SDP translation of the problem as it stands — the exact problem
    {!solve} would hand to {!Sdp.solve}. Pure: building it does not
    mutate [t], so it is safe to call before or between solves (used by
    the resilience layer to report failure sizes). *)
