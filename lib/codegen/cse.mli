(** Common subexpression elimination.

    The code generator runs CSE in two scopes (paper §3.3): per task for
    parallel code, where "no subexpressions are shared between the tasks",
    and globally for serial code, where "different equations having several
    large subexpressions in common" shrink the program substantially
    (4 642 extracted subexpressions per-equation vs. 1 840 globally for the
    2D bearing). *)

type binding = { name : string; expr : Om_expr.Expr.t }

type block = {
  temps : binding list;
      (** temporaries in evaluation order; each refers only to model
          variables, time, and earlier temps *)
  roots : (string * Om_expr.Expr.t) list;
      (** the original targets, rewritten to use the temps *)
}

val eliminate :
  ?min_size:int ->
  ?min_count:int ->
  ?prefix:string ->
  (string * Om_expr.Expr.t) list ->
  block
(** Extract every subexpression of at least [min_size] nodes (default 3)
    occurring at least [min_count] times (default 2) across the given
    target/expression pairs.  Temporary names are [prefix ^ string_of_int i]
    (default prefix ["cse$"]), numbered smallest subtree first (ties in
    {!Om_expr.Expr.compare} order).  Every subtree is hashed and sized
    once, so the cost is linear in the total expression size plus the
    equality checks of genuinely repeated subtrees. *)

val temp_count : block -> int

val block_cost : block -> float
(** Mean-branch flop cost of evaluating all temps then all roots. *)

val inline : block -> (string * Om_expr.Expr.t) list
(** Substitute the temps back into the roots (inverse of {!eliminate},
    up to smart-constructor normalisation).  Used by tests. *)

val verify_no_forward_refs : block -> bool
(** Every temp refers only to earlier temps. *)
