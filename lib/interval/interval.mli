(** Closed real intervals for uncertain circuit parameters.

    The CP PLL parameters in the paper's Table 1 are given as intervals
    (e.g. [C1 ∈ [1.98, 2.2] pF]); certificates must hold for every value
    in the box. This module provides the interval arithmetic used to push
    parameter boxes through the model-scaling computations, plus simple
    box utilities (corners, sampling) used by the robust SOS encodings
    and by the simulation-based validation tests.

    Arithmetic is outward-correct for the usual operations assuming exact
    float arithmetic (no directed rounding — adequate here because
    interval widths are ~1e-2 relative, far above 1 ulp). *)

type t = { lo : float; hi : float }

val make : float -> float -> t
(** [make lo hi]; raises [Invalid_argument] if [lo > hi] or either bound
    is NaN. *)

val point : float -> t
(** Degenerate interval [[v, v]]. *)

val lo : t -> float
val hi : t -> float

val mid : t -> float
(** Midpoint. *)

val width : t -> float
(** [hi - lo]. *)

val mem : float -> t -> bool
(** Membership. *)

val subset : t -> t -> bool
(** [subset a b] iff [a ⊆ b]. *)

val equal : t -> t -> bool

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t

val inv : t -> t
(** Reciprocal; raises [Invalid_argument] if the interval contains 0. *)

val div : t -> t -> t
(** Quotient; raises [Invalid_argument] if the divisor contains 0. *)

val scale : float -> t -> t
(** Scalar multiple. *)

val hull : t -> t -> t
(** Smallest interval containing both. *)

val intersect : t -> t -> t option
(** Intersection, when non-empty. *)

val sample : t -> int -> float list
(** [sample iv k] is [k] evenly spaced points of the interval, including
    both endpoints when [k >= 2]. *)

val pp : Format.formatter -> t -> unit

module Box : sig
  (** Axis-aligned boxes: one interval per dimension. *)

  type iv = t

  type t = iv array

  val dim : t -> int

  val mid : t -> float array
  (** Vector of midpoints. *)

  val mem : float array -> t -> bool
  (** Componentwise membership. *)

  val corners : t -> float array list
  (** All [2^dim] corner points. *)

  val sample_grid : t -> int -> float array list
  (** [sample_grid b k] is the grid with [k] points per dimension. *)

  val pp : Format.formatter -> t -> unit
end
