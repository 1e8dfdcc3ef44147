(** Dense vectors of floats.

    A thin layer over [float array] providing the vector-space operations
    used throughout the SDP solver and polynomial evaluation code. All
    operations allocate fresh vectors unless suffixed with
    [_inplace]. Dimensions are checked and mismatches raise
    [Invalid_argument]. *)

type t = float array

val create : int -> t
(** [create n] is the zero vector of dimension [n]. *)

val init : int -> (int -> float) -> t
(** [init n f] is the vector [| f 0; ...; f (n-1) |]. *)

val dim : t -> int
(** Number of entries. *)

val copy : t -> t
(** Fresh copy. *)

val of_list : float list -> t
(** Vector from a list of entries. *)

val to_list : t -> float list
(** Entries as a list, in order. *)

val add : t -> t -> t
(** Entrywise sum. *)

val sub : t -> t -> t
(** Entrywise difference. *)

val scale : float -> t -> t
(** [scale a x] is [a * x]. *)

val neg : t -> t
(** Entrywise negation. *)

val axpy : float -> t -> t -> unit
(** [axpy a x y] updates [y <- a*x + y] in place. *)

val dot : t -> t -> float
(** Euclidean inner product. *)

val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float
(** Max-abs norm. *)

val map : (float -> float) -> t -> t
(** Entrywise map. *)

val map2 : (float -> float -> float) -> t -> t -> t
(** Entrywise binary map. *)

val concat : t list -> t
(** Concatenation of vectors. *)

val max_abs_index : t -> int
(** Index of the entry with the largest absolute value; 0 if empty. *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Entrywise comparison up to absolute tolerance [tol] (default 1e-9). *)

val pp : Format.formatter -> t -> unit
(** Pretty-printer, e.g. [[1.; 2.; 3.]]. *)
