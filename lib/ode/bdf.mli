(** Backward differentiation formulas (BDF) of orders 1–3 with modified
    Newton iteration — the stiff half of LSODA (paper §3.2.1: "one of the
    solvers which implements BDF methods, which are usually used to solve
    stiff ODEs").

    Fixed step size.  The Newton iteration matrix [I - h*beta*J] is
    factorised once per step and reused across iterations (modified
    Newton); the Jacobian comes from the system's analytic function when
    available, otherwise finite differences.  [banded] declares the
    Jacobian's band structure (see {!Banded}); [jac_mode] selects the
    dense/banded/sparse Newton path ({!Odesys.jac_mode}, default
    [Auto]), with the sparse path producing trajectories bitwise equal
    to the dense one (see {!Sparse}). *)

val integrate :
  ?order:int ->
  ?newton_tol:float ->
  ?max_newton:int ->
  ?banded:int * int ->
  ?jac_mode:Odesys.jac_mode ->
  ?jac_batch:Jacobian.batch_rhs ->
  Odesys.t ->
  t0:float ->
  y0:float array ->
  tend:float ->
  h:float ->
  Odesys.trajectory
(** [jac_batch] lets the sparse finite-difference path evaluate its
    colored column groups through a caller-supplied (possibly parallel)
    batch evaluator.
    @raise Invalid_argument for orders outside 1..3.
    @raise Om_guard.Om_error.Error ([Newton_failure]) if Newton fails to
    converge or the iteration matrix is singular. *)

val solve_implicit_stage :
  ?banded:int * int ->
  ?jac_mode:Odesys.jac_mode ->
  Odesys.t ->
  tol:float ->
  max_iter:int ->
  t_next:float ->
  beta_h:float ->
  rhs_const:float array ->
  alpha0:float ->
  y_guess:float array ->
  float array
(** Solve [alpha0 * y = rhs_const + beta_h * f(t_next, y)] by modified
    Newton; shared with the LSODA-style driver.  With [banded = (ml, mu)]
    the Newton matrix factorises inside the band in O(n (ml+mu)^2) — the
    right choice for method-of-lines PDE systems.  Resolves the Jacobian
    plan per call; drivers that step repeatedly should build one
    {!newton_ws} and call {!solve_implicit_stage_with}.
    @raise Om_guard.Om_error.Error ([Newton_failure]) on non-convergence
    or a singular iteration matrix. *)

type newton_ws
(** One integration's Newton workspace: the resolved {!Jacobian.plan}
    (whose sparse context carries the LU refactorisation trace) and the
    residual, correction, function-value and scale vectors, so a Newton
    iteration on the sparse path allocates nothing. *)

val newton_ws : Jacobian.plan -> Odesys.t -> newton_ws

val solve_implicit_stage_with :
  newton_ws ->
  Odesys.t ->
  tol:float ->
  max_iter:int ->
  t_next:float ->
  beta_h:float ->
  rhs_const:float array ->
  alpha0:float ->
  float array ->
  unit
(** {!solve_implicit_stage} in place against a pre-resolved workspace:
    the array holds the guess on entry and the Newton solution on
    return.  Drivers that step repeatedly build the workspace once per
    integration, so the sparse workspace is built once and each step's
    factorisation replays the last pivot sequence.  [rhs_const] must
    not be the solution array. *)
