(** Direct numeric evaluation of expressions. *)

exception Unbound of string
(** Raised when evaluation meets a variable absent from the environment;
    the same exception as {!Name_index.Unbound}. *)

type env = (string, float) Hashtbl.t

val env_of_list : (string * float) list -> env

val eval : env -> Expr.t -> float
(** Tree-walking evaluation.  [If] nodes evaluate only the taken branch.
    @raise Unbound for free variables not in [env]. *)

val eval_fn : Name_index.t -> Expr.t -> float array -> float
(** [eval_fn index e] pre-resolves every variable of [e] to its slot in
    [index] and returns a closure evaluating [e] against a value vector
    laid out like the indexed names.  Build the index once per layout and
    share it across expressions.  @raise Unbound at closure-build time. *)
