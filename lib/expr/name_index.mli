(** Hashed name → slot index over a value-vector layout.

    Every compiler stage that resolves variable names to slots of a
    flat environment (the register VM, the closure evaluator, the
    dynamic cost closures, the symbolic Jacobian) builds one of these
    once per layout and shares it, so resolution is O(1) per variable
    instead of a scan of the layout.  When a name occurs more than once
    in the layout, the first occurrence wins. *)

exception Unbound of string
(** Raised for a name absent from the layout; {!Eval.Unbound} is the
    same exception. *)

type t

val of_array : string array -> t
(** Index a layout: slot [i] holds [names.(i)].  O(length). *)

val size : t -> int
(** Length of the indexed layout (duplicates included). *)

val find : t -> string -> int
(** Slot of the first occurrence of a name.  @raise Unbound if absent. *)

val find_opt : t -> string -> int option
