(** Multivariate monomials as exponent vectors.

    A monomial over [n] variables is the exponent vector
    [e = [| e0; ...; e(n-1) |]] standing for [x0^e0 * ... * x(n-1)^e(n-1)].
    The arity is the length of the vector; all binary operations require
    equal arities. *)

type t = int array

val one : int -> t
(** [one n] is the constant monomial (all exponents zero) over [n]
    variables. *)

val var : int -> int -> t
(** [var n i] is the monomial [x_i] over [n] variables. *)

val of_exponents : int list -> t
(** Monomial from an exponent list. Raises [Invalid_argument] on negative
    exponents. *)

val arity : t -> int
(** Number of variables. *)

val degree : t -> int
(** Total degree (sum of exponents). *)

val exponent : t -> int -> int
(** [exponent m i] is the exponent of [x_i]. *)

val mul : t -> t -> t
(** Product (exponentwise sum). *)

val divide : t -> t -> t option
(** [divide m d] is [Some (m / d)] when [d] divides [m], else [None]. *)

val compare : t -> t -> int
(** Graded lexicographic order: lower total degree first, then
    lexicographic on exponents. *)

val equal : t -> t -> bool
(** Structural equality. *)

val is_even : t -> bool
(** Whether every exponent is even (such monomials are squares). *)

val all_upto : int -> int -> t list
(** [all_upto n d] enumerates every monomial over [n] variables of total
    degree at most [d], in {!compare} order. *)

val all_of_degree : int -> int -> t list
(** [all_of_degree n d] enumerates the monomials of total degree exactly
    [d], in {!compare} order. *)

val to_string : ?names:string array -> t -> string
(** Human-readable form, e.g. ["x0^2*x1"]. [names] overrides the default
    ["x0", "x1", ...] variable names. *)

val pp : Format.formatter -> t -> unit
(** Pretty-printer using default variable names. *)
