(** Dense matrices of floats, stored row-major.

    Provides the factorizations the SDP interior-point solver relies on:
    Cholesky with optional diagonal regularization, symmetric eigensolving
    by cyclic Jacobi rotations, and Gaussian elimination with partial
    pivoting. Dimension mismatches raise [Invalid_argument]. *)

type t = { rows : int; cols : int; data : float array }
(** [data.(i * cols + j)] is the entry at row [i], column [j]. *)

val create : int -> int -> t
(** [create m n] is the [m*n] zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t
(** [init m n f] has entry [f i j] at [(i, j)]. *)

val identity : int -> t
(** Identity matrix of the given order. *)

val diag : Vec.t -> t
(** Square matrix with the given diagonal and zeros elsewhere. *)

val of_arrays : float array array -> t
(** Matrix from an array of rows (rows must have equal length). *)

val dims : t -> int * int
(** [(rows, cols)]. *)

val get : t -> int -> int -> float
(** Entry access. *)

val set : t -> int -> int -> float -> unit
(** In-place entry update. *)

val copy : t -> t
(** Deep copy. *)

val add : t -> t -> t
(** Entrywise sum. *)

val sub : t -> t -> t
(** Entrywise difference. *)

val scale : float -> t -> t
(** Scalar multiple. *)

val neg : t -> t
(** Entrywise negation. *)

val transpose : t -> t
(** Transpose. *)

val mul : t -> t -> t
(** Matrix product. *)

val mul_vec : t -> Vec.t -> Vec.t
(** [mul_vec a x] is [A x]. *)

val tmul_vec : t -> Vec.t -> Vec.t
(** [tmul_vec a x] is [Aᵀ x]. *)

val outer : Vec.t -> Vec.t -> t
(** [outer x y] is the rank-one matrix [x yᵀ]. *)

val symmetrize : t -> t
(** [(A + Aᵀ) / 2] for a square matrix. *)

val is_symmetric : ?tol:float -> t -> bool
(** Whether [|A - Aᵀ|∞ <= tol] (default 1e-9). *)

val trace : t -> float
(** Sum of diagonal entries of a square matrix. *)

val frob_dot : t -> t -> float
(** Frobenius (entrywise) inner product [⟨A, B⟩ = Σ aᵢⱼ bᵢⱼ]. *)

val norm_fro : t -> float
(** Frobenius norm. *)

val norm_inf : t -> float
(** Max-abs entry. *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Entrywise comparison up to absolute tolerance [tol] (default 1e-9). *)

val cholesky : ?reg:float -> t -> t option
(** [cholesky a] is the lower-triangular [L] with [L Lᵀ = A + reg*I] when
    the (symmetric) argument is positive definite, [None] otherwise.
    [reg] defaults to [0.]. *)

val chol_solve : t -> Vec.t -> Vec.t
(** [chol_solve l b] solves [L Lᵀ x = b] given the Cholesky factor [L]. *)

val chol_solve_mat : t -> t -> t
(** [chol_solve_mat l b] solves [L Lᵀ X = B] by blocked forward/backward
    sweeps over the whole right-hand-side panel. *)

val reg_ladder : norm:(unit -> float) -> (float -> 'a option) -> 'a option
(** [reg_ladder ~norm factor] tries [factor reg] for at most 8 values of
    [reg]: first [0.], then [1e-12 *. (1. +. norm ())], then 100 times the
    previous one. It returns the first [Some], or [None] when all 8 tries
    fail. [norm] is evaluated only after a failure. *)

type components = { parts : int array array; factors : t array }
(** Cholesky factor of a symmetric matrix that is block diagonal up to a
    permutation. [parts] partitions the rows [0 .. n-1]; each part lists
    its rows in increasing order. [factors.(c)] is the lower factor of
    the principal submatrix on [parts.(c)]. *)

val cholesky_components : ?reg:float -> int array array -> t array -> components option
(** [cholesky_components parts mats] factors each part's principal
    submatrix [mats.(c)] with {!cholesky} at the same [reg]. It is [None]
    when any part fails. When the off-part entries of the assembled
    matrix are zero, this fails exactly when {!cholesky} of the assembled
    matrix fails. Each factor is then bit for bit that dense factor's
    submatrix on the part's rows. *)

val chol_solve_components : components -> Vec.t -> Vec.t
(** {!chol_solve} one part at a time. For a finite right-hand side with
    no negative zeros, the result is bit for bit that of {!chol_solve}
    with the dense factor. One part spanning all rows is solved in
    place, with no gather. *)

val chol_inverse : t -> t
(** [chol_inverse l] is [(L Lᵀ)⁻¹] given the Cholesky factor [L],
    computed via the triangular inverse [T = L⁻¹] and the symmetric
    product [Tᵀ T] — the fast path for the [S⁻¹] blocks of the SDP
    interior-point iteration. *)

val solve : t -> Vec.t -> Vec.t
(** [solve a b] solves the square system [A x = b] by Gaussian elimination
    with partial pivoting. Raises [Failure] on (numerically) singular
    systems. *)

val inverse : t -> t
(** Matrix inverse, by the elimination of {!solve} with the identity as
    right-hand side. *)

val lstsq : t -> Vec.t -> Vec.t
(** Least-squares solution of possibly rectangular [A x = b] via the
    regularized normal equations. *)

val qr : t -> t * t
(** Thin QR factorization of an [m*n] matrix with [m >= n] by Householder
    reflections: [(q, r)] with [q] having orthonormal columns ([m*n]),
    [r] upper triangular ([n*n]) and [q r = a]. *)

val expm : t -> t
(** Matrix exponential by Padé(6) approximation with scaling and
    squaring — used for exact advection maps of affine flows. *)

val sym_eig : ?tol:float -> ?max_sweeps:int -> t -> Vec.t * t
(** [sym_eig a] is [(w, v)] where [w] are the eigenvalues (ascending) and
    the columns of [v] the corresponding orthonormal eigenvectors of the
    symmetric matrix [a], computed by cyclic Jacobi rotations. *)

val min_eig : t -> float
(** Smallest eigenvalue of a symmetric matrix. *)

val is_psd : ?tol:float -> t -> bool
(** Whether the symmetric argument has [min_eig >= -tol] (default 1e-8). *)

val pp : Format.formatter -> t -> unit
(** Row-by-row pretty printer. *)
