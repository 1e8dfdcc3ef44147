(** Affine expressions over {!Dvar} decision variables.

    An [Lexpr.t] is [const + Σ coeff_v · v] with a sparse term map. These
    are the coefficients of parametric polynomials ({!Ppoly}) and the
    objective functions of SOS programs. *)

type t

val zero : t

val const : float -> t
(** Constant expression. *)

val var : Dvar.t -> t
(** The expression [1 · v]. *)

val of_terms : float -> (Dvar.t * float) list -> t
(** [of_terms c terms] builds [c + Σ terms]; repeated variables are
    summed. *)

val constant : t -> float
(** The constant part. *)

val terms : t -> (Dvar.t * float) list
(** The variable terms (zero coefficients omitted), in {!Dvar.compare}
    order. *)

val is_const : t -> bool
(** Whether no variable occurs. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : float -> t -> t

val add_scaled : t -> float -> t -> t
(** [add_scaled a s b] is [add a (scale s b)], bit for bit, without
    building [scale s b]. *)

val add_const : float -> t -> t
(** Add a scalar to the constant part. *)

val eval : (Dvar.t -> float) -> t -> float
(** Value of the expression under a variable assignment. *)

val max_coeff : t -> float
(** Largest magnitude among the constant and the coefficients — the
    natural scale of the constraint [e = 0]. *)

val pp : Format.formatter -> t -> unit
