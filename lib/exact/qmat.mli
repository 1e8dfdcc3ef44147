(** Dense matrices over {!Rat}, with the exact positive-semidefiniteness
    decision procedure of the certificate kernel.

    The key operation is {!psd}: an exact LDLᵀ factorization that either
    produces a factorization witnessing [A ⪰ 0] (with the smallest pivot
    as an exact positivity margin) or an explicit rational vector [v]
    with [vᵀ A v < 0] refuting it. Both outcomes are checkable by pure
    rational arithmetic — no tolerances anywhere. *)

type t = { rows : int; cols : int; data : Rat.t array }
(** [data.(i * cols + j)] is the entry at row [i], column [j]. *)

val create : int -> int -> t
(** Zero matrix. *)

val init : int -> int -> (int -> int -> Rat.t) -> t
val identity : int -> t
val dims : t -> int * int
val get : t -> int -> int -> Rat.t
val set : t -> int -> int -> Rat.t -> unit
val copy : t -> t
val transpose : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : Rat.t -> t -> t
val mul : t -> t -> t
val equal : t -> t -> bool
val is_symmetric : t -> bool

val mul_vec : t -> Rat.t array -> Rat.t array

val quad_form : t -> Rat.t array -> Rat.t
(** [quad_form a v] is [vᵀ A v], exactly. *)

val lin_solve : t -> Rat.t array -> Rat.t array option
(** [lin_solve a b] is an exact solution of [a·x = b] — any solution
    when the system is underdetermined (free variables are set to zero),
    [None] when it is inconsistent. Gaussian elimination over [Q];
    pivots are chosen by float magnitude as a conditioning heuristic,
    but every arithmetic step is exact. *)

val round_of_mat : denom_bits:int -> Linalg.Mat.t -> t
(** Entrywise nearest rational with denominator [2^denom_bits]. Bounded
    denominators keep the LDLᵀ pivot growth (and artifact size) under
    control; the introduced perturbation is at most [2^-(denom_bits+1)]
    per entry and is subsequently repaired exactly by the residual
    absorption of {!Check}. *)

(** Outcome of the exact PSD decision. *)
type psd_result =
  | Psd of { min_pivot : Rat.t }
      (** An LDLᵀ factorization exists: the matrix is PSD. [min_pivot]
          is the smallest diagonal pivot — strictly positive iff the
          matrix is positive definite. *)
  | Not_psd of { witness : Rat.t array; value : Rat.t }
      (** [value = witness ᵀ A witness < 0], exactly. *)

val psd : t -> psd_result
(** Decide [A ⪰ 0] for a symmetric matrix by fraction-exact LDLᵀ
    (zero pivots are accepted only when their entire trailing row is
    zero, which is necessary and sufficient for semidefiniteness).
    Raises [Invalid_argument] if the matrix is not symmetric. *)

val pp : Format.formatter -> t -> unit
