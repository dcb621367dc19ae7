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
    {!Om_expr.Expr.compare} order).  Same as {!eliminate_numbered} over
    one fresh {!number}ing of the targets. *)

(** {1 Shared annotation}

    A caller that eliminates over several groupings of the same trees —
    the backend runs one elimination per task for parallel code and one
    over every task for serial code — numbers each tree once and runs
    every elimination over that annotation. *)

type numbering
(** A value-numbering table: structurally equal subtrees ({!Om_expr.Expr.equal})
    get the same number.  A node is numbered by its head and its
    children's numbers, so deciding equality never walks a subtree. *)

val numbering : unit -> numbering

type numbered
(** Target/expression pairs with every subtree numbered and sized. *)

val number : numbering -> (string * Om_expr.Expr.t) list -> numbered
(** Annotate the pairs bottom-up: linear in their total size. *)

val eliminate_numbered :
  ?min_size:int ->
  ?min_count:int ->
  ?prefix:string ->
  numbered list ->
  block
(** {!eliminate} over the concatenated pairs of the groups, which must
    share one numbering.  Occurrences are counted by value number and
    the shared subtrees are ordered by a comparison that stops at equal
    numbers, so the cost is linear in the total size plus, per shared
    subtree, the path down to where it first differs from its
    neighbours in the order.
    @raise Invalid_argument if the groups come from different
    numberings. *)

val comparisons : numbering -> int
(** Node comparisons made so far through this numbering: child-number
    checks while numbering and node visits while ordering shared
    subtrees.  Deterministic; tests use it to check that elimination is
    linear. *)

val temp_count : block -> int

val block_cost : block -> float
(** Mean-branch flop cost of evaluating all temps then all roots. *)

val inline : block -> (string * Om_expr.Expr.t) list
(** Substitute the temps back into the roots, order-exactly: the exact
    inverse of {!eliminate}.  Used by tests. *)

val verify_no_forward_refs : block -> bool
(** Every temp refers only to earlier temps. *)
