(** Code-generation statistics — the quantities §3.3 reports for the 2D
    bearing (source lines → intermediate-form lines → generated lines,
    declaration share, and CSE counts in parallel vs. serial scope). *)

type t = {
  model_name : string;
  source_lines : int option;
  n_classes : int option;
  n_instances : int option;
  n_equations : int;
  n_tasks : int;
  n_partials : int;
  intermediate_lines : int;
  fortran_parallel_lines : int;
  fortran_parallel_decls : int;
  fortran_serial_lines : int;
  fortran_serial_decls : int;
  c_parallel_lines : int;
  mathematica_lines : int;
  jacobian_nonzeros : int;
  jacobian_lines : int;
  cse_parallel : int;  (** temporaries with per-task CSE *)
  cse_serial : int;  (** temporaries with global CSE *)
  total_rhs_flops : float;
  vm_instructions : int;
      (** static register-VM instructions of the serial code: the serial
          program plus the epilogue *)
  vm_fused : int;  (** fused instructions after the peephole pass *)
  vm_flops : float;  (** static flop units of the serial code *)
  vm_parallel_instructions : int;
      (** the same for the parallel code: every task's program plus the
          epilogue *)
  vm_parallel_fused : int;
}

val collect : ?source:string -> Pipeline.result -> t
(** Renders both Fortran modes (and parallel C) to count lines; [source]
    is the ObjectMath model text, used for the source-line count.  Lowers
    the parallel code if no run has yet. *)

val pp : t Fmt.t
(** Paper-style summary table. *)

val count_lines : string -> int
