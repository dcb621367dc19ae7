(** Sparse Jacobians for the stiff Newton path.

    A compressed-sparse-row pattern drives three cooperating pieces:
    greedy distance-2 column {{!color_columns}coloring} so a
    finite-difference Jacobian costs one RHS evaluation per {e color}
    instead of per column (Curtis–Powell–Reid compression, the
    sparse-AD route of Peleš & Klus, arXiv 1505.00838); compressed
    assembly of either symbolic or colored-difference values into the
    CSR value array; and a left-looking (Gilbert–Peierls) sparse
    {{!lu_factor}LU} with partial pivoting.

    The LU is engineered to replay the dense {!Linalg.lu_factor}
    arithmetic operation-for-operation — updates apply in ascending
    pivot order, the pivot search reproduces the dense tie-breaking
    through a row-position permutation, and the triangular solves walk
    rows in the dense loop order — so a solver switched between the
    dense and sparse paths produces bitwise-identical trajectories
    (structural zeros are exact [+0.] in the dense path, making every
    skipped operation a bitwise no-op).  Repeated factorisations of one
    pattern replay the recorded pivot sequence numerically
    ({!lu_refactor}) and stay bitwise the full factorisation. *)

type pattern = {
  rows : int;
  cols : int;
  row_ptr : int array;  (** length [rows + 1] *)
  col_ind : int array;  (** ascending within each row *)
}
(** Structural nonzero positions in compressed sparse row form. *)

val pattern_of_entries : rows:int -> cols:int -> (int * int) list -> pattern
(** Build a pattern from [(row, col)] positions; duplicates are merged.
    @raise Invalid_argument on out-of-range positions. *)

val pattern_of_dense : ?tol:float -> Linalg.mat -> pattern
(** Positions with magnitude above [tol] (default [0.], i.e. any
    nonzero). *)

val nnz : pattern -> int

val density : pattern -> float
(** [nnz / (rows * cols)], 0 for empty shapes. *)

val mem : pattern -> int -> int -> bool
val index : pattern -> int -> int -> int
(** CSR slot of [(i, j)], or [-1] when the position is structural
    zero. *)

type t = { pat : pattern; v : float array }
(** A matrix: values parallel to [pat.col_ind]. *)

val create : pattern -> t
(** All-zero values. *)

val of_dense : ?tol:float -> Linalg.mat -> t
val to_dense : t -> Linalg.mat
val get : t -> int -> int -> float
val mat_vec : t -> float array -> float array

type coloring = {
  ncolors : int;
  color : int array;  (** color of each column, in [0 .. ncolors-1] *)
  groups : int array array;  (** columns of each color, ascending *)
}

val color_columns : pattern -> coloring
(** Greedy distance-2 coloring in natural column order: two columns
    sharing a row never share a color, so all columns of one color can
    be perturbed in a single RHS evaluation.  On a banded pattern with
    [ml + mu + 1] diagonals this uses at most [ml + mu + 1] colors. *)

(** {1 Colored finite differences} *)

type fd_ws
(** Workspace for one system: per-group perturbed points and RHS
    values, plus per-column steps.  Reusable across evaluations. *)

val make_fd_ws : pattern -> coloring -> fd_ws
val fd_groups : fd_ws -> int

val fd_prepare : ?eps:float -> fd_ws -> y:float array -> unit
(** Fill the perturbed points: group [g] is [y] with every column of
    color [g] bumped by the {!Jacobian.numeric} step rule
    [eps * max 1 |y_j|]. *)

val fd_points : fd_ws -> float array array
(** The perturbed states, one per group; evaluate the RHS at each and
    write the results into {!fd_values} (the caller owns this loop so
    it can run the groups in parallel). *)

val fd_values : fd_ws -> float array array

val fd_scatter : fd_ws -> f0:float array -> jac:t -> unit
(** Decompress: every structural entry [(i, j)] becomes
    [(f_pert.(color j).(i) - f0.(i)) / h_j].  Because the coloring is
    distance-2, row [i] reads at most one perturbed column per group,
    so each entry is bitwise the single-column forward difference of
    {!Jacobian.numeric}.
    @raise Invalid_argument if [jac] was not built on the workspace's
    pattern. *)

(** {1 Sparse LU} *)

type lu

val lu_factor : t -> lu
(** Left-looking factorisation with partial pivoting, numerically
    identical to {!Linalg.lu_factor} (see the module preamble).
    @raise Linalg.Singular with the same pivot-step index as the dense
    code when a pivot column is exactly zero. *)

val lu_solve : lu -> float array -> float array
(** Bitwise-identical to {!Linalg.lu_solve} on the corresponding dense
    factorisation. *)

val lu_solve_into : lu -> float array -> float array -> unit
(** [lu_solve_into lu b x] writes {!lu_solve}[ lu b] into [x] without
    allocating.
    @raise Invalid_argument on a length mismatch or when [b == x]. *)

(** {2 Refactorisation by pivot-sequence replay}

    A stiff solver factors the Newton matrix of one fixed pattern again
    and again with new values; the pivots it picks rarely change.  A
    {!refactor} workspace keeps the symbolic trace of its last full
    factorisation: the transpose of the pattern, and per column its
    reach set, its pivotal updates in application order, its pivot
    candidates with their dense positions, the chosen pivot row and the
    L/U slots its entries land in.  A later matrix of the same pattern
    is factored by replaying that trace numerically — the same
    floating-point operations in the same order, without the reach
    search, the sort or the CSR build.

    Every replayed column reruns the dense partial-pivoting rule
    (largest magnitude; on a tie the smallest dense position, seeded by
    the diagonal row) on its new values.  If the rule would pick another
    row than the trace, or the pivot is exactly zero, the replay stops
    and a full {!lu_factor} takes over; it records the new trace, or
    raises [Linalg.Singular] with the dense step index.  A replay is
    therefore bitwise the full factorisation of the same matrix: the
    solve results and the [Singular] step agree exactly. *)

type refactor

val refactor_create : unit -> refactor
(** An empty workspace: its first {!lu_refactor} is a full
    factorisation. *)

val lu_refactor : refactor -> t -> lu
(** Factor the matrix: replay the workspace's trace when the matrix has
    the traced pattern and the pivot sequence holds, else factor in
    full and keep the new trace.  The result shares its value arrays
    with the workspace and stays valid until the next [lu_refactor] on
    it.
    @raise Linalg.Singular exactly when {!lu_factor} would. *)

val refactor_replays : refactor -> int
(** Factorisations served by replay so far. *)

val refactor_full : refactor -> int
(** Full factorisations so far (the first, pattern changes and pivot
    changes), including those that raised [Singular]. *)

val lu_nnz : lu -> int
(** Stored entries of L and U including the unit/actual diagonals —
    [nnz] of the input plus fill-in. *)

val rcm_ordering : pattern -> int array
(** Reverse Cuthill–McKee ordering of the symmetrized pattern:
    [perm.(k)] is the original index placed at position [k].  A
    fill-reducing symmetric permutation for the LU; note that any
    reordering changes the rounding of the factorisation, so the
    solvers only apply it when the caller asks (the bitwise
    dense-equivalence guarantee holds for the natural order). *)

val permute_symmetric : t -> int array -> t
(** [P A Pᵀ] for the permutation [perm.(new) = old]. *)

val solve_with_ordering : t -> perm:int array -> float array -> float array
(** Solve [A x = b] by factoring the symmetrically permuted matrix and
    unpermuting the solution; pair with {!rcm_ordering}. *)

(** {1 Newton iteration matrix} *)

type newton
(** Workspace for [M = alpha*I - beta*J]: the merged pattern (J plus
    the full diagonal), a scatter map from J slots to M slots, and the
    M value array, all built once per integration. *)

val make_newton : pattern -> newton
val newton_matrix : newton -> t

val newton_assemble : newton -> jac:t -> alpha:float -> beta:float -> unit
(** Refill M from the current J values; bitwise equal to the dense
    [(if i=k then alpha else 0.) -. beta *. j.(i).(k)] construction on
    every structural entry. *)
