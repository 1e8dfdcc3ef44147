(** Sparse multivariate polynomials over [float] coefficients.

    A polynomial carries its arity [nvars]; operations between polynomials
    of different arities raise [Invalid_argument]. Terms with coefficient
    exactly [0.] are never stored. {!Monomial} provides the exponent
    vectors; this module is the ring. *)

module Monomial = Monomial

type t

val nvars : t -> int
(** Arity. *)

val zero : int -> t
(** Zero polynomial over the given number of variables. *)

val const : int -> float -> t
(** Constant polynomial. *)

val one : int -> t
(** The constant [1]. *)

val var : int -> int -> t
(** [var n i] is the polynomial [x_i] over [n] variables. *)

val of_terms : int -> (Monomial.t * float) list -> t
(** Polynomial from (monomial, coefficient) pairs; repeated monomials are
    summed. *)

val terms : t -> (Monomial.t * float) list
(** Terms in {!Monomial.compare} order, zero coefficients omitted. *)

val coeff : t -> Monomial.t -> float
(** Coefficient of a monomial ([0.] if absent). *)

val is_zero : t -> bool
(** Whether the polynomial has no terms. *)

val degree : t -> int
(** Total degree; [-1] for the zero polynomial by convention. *)

val equal : t -> t -> bool
(** Exact structural equality. *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Coefficientwise equality up to absolute tolerance [tol] (default
    1e-9). *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : float -> t -> t
val mul : t -> t -> t

val pow : t -> int -> t
(** Non-negative integer power. *)

val sum : int -> t list -> t
(** Sum of a list of polynomials of the given arity. *)

val eval : t -> float array -> float
(** Value at a point: [eval p x] is [evaluator p x]. *)

val evaluator : t -> float array -> float
(** [evaluator p] stages [p] once for repeated evaluation: the returned
    function gives {!eval}'s value, bit for bit, without allocating per
    term. Partially apply it when evaluating one polynomial at many
    points. Raises [Invalid_argument] on a point of the wrong arity. *)

val partial : int -> t -> t
(** [partial i p] is [∂p/∂x_i]. *)

val hessian : t -> t array array
(** Matrix of second partials. *)

val lie_derivative : t -> t array -> t
(** [lie_derivative p f] is [∇p · f], the derivative of [p] along the
    vector field [f] (one polynomial per state variable). *)

val subst : t -> t array -> t
(** [subst p q] substitutes [q.(i)] for variable [i]. The result's arity
    is the (common) arity of the [q.(i)]. *)

val shift : t -> float array -> t
(** [shift p c] is [p(x + c)] — the polynomial translated so that
    evaluating at [x] gives the old value at [x + c]. *)

val chop : ?tol:float -> t -> t
(** Drop coefficients of magnitude below [tol] (default 1e-10). *)

val max_coeff : t -> float
(** Largest coefficient magnitude ([0.] for the zero polynomial). *)

val quadratic_form : Linalg.Mat.t -> t
(** [quadratic_form q] is the polynomial [xᵀ Q x] over [n] variables for
    an [n*n] symmetric matrix [Q]. *)

val from_basis : Monomial.t list -> float array -> int -> t
(** [from_basis basis coeffs n] is [Σ coeffs.(k) * basis.(k)] over [n]
    variables. *)

val of_string : ?names:string array -> int -> string -> t
(** [of_string n s] parses a polynomial over [n] variables from the
    syntax produced by {!to_string}: terms of numbers and variables
    combined with [+ - * ^] and parentheses, e.g.
    ["1.5*x0^2 - 2*x1 + 3"] or ["(x0 + x1)^2"]. Variables are ["x0"],
    ["x1"], … by default, or the given [names]. Raises
    [Invalid_argument] on syntax errors or unknown variables. *)

val to_string : ?names:string array -> t -> string
(** Human-readable form such as ["1.5*x0^2 - 2*x1"]. *)

val pp : Format.formatter -> t -> unit
(** Pretty-printer with default variable names. *)
