(** The historical stack-machine bytecode for expressions.

    Kept as the before-side baseline for the register VM ({!Vm}): a flat
    instruction array interpreted over an explicit operand stack, the
    kind of executable form a 1990s code generator would emit when no
    native compiler was available.  Semantics match {!Eval.eval}
    exactly; the property tests cross-check all three engines.

    Compilation is linear: variables resolve through a {!Name_index}
    and [If] jumps are back-patched in a growable buffer. *)

type instr =
  | Push of float
  | Load of int  (** push env.(slot) *)
  | Add_n of int  (** pop n values, push their sum *)
  | Mul_n of int
  | Pow_op  (** pop exponent then base, push base^exponent *)
  | Call_f of Expr.func  (** pop arity-many arguments *)
  | Jump of int  (** absolute instruction index *)
  | Jump_if_not of Expr.rel * int
      (** pop rhs then lhs; jump unless [lhs rel rhs] *)

type program

val compile : string array -> Expr.t -> program
(** Variables resolve to slots in the given name layout.
    @raise Eval.Unbound for unknown variables. *)

val run : program -> float array -> float
(** Execute against an environment laid out like the compile-time
    names.  The operand stack is sized at compile time. *)

val length : program -> int
(** Instruction count. *)

val max_stack : program -> int

val instructions : program -> instr array
(** For inspection and tests. *)

val disassemble : program -> string
