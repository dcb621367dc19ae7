(** Executable backend: compile a partition plan into runnable tasks.

    The paper's generated Fortran 90 is compiled by an F90 compiler and
    linked with the runtime; here the equivalent executable artifact is a
    register-VM program per task ({!Om_expr.Vm}) over a shared value
    environment, which the sequential driver and the machine simulator
    both call.  Semantics match the textual backends exactly (same
    temps, same evaluation order).  The historical closure engine
    ({!Om_expr.Eval.eval_fn}) remains available as [Exec_closures] for
    before/after benchmarking. *)

type cse_scope =
  | Cse_none
  | Cse_per_task  (** parallel mode: no sharing across tasks (§3.3) *)
  | Cse_global  (** serial mode: one task, sharing everywhere *)

(** Execution engine for the compiled tasks. *)
type exec_backend =
  | Exec_closures  (** tree-shaped closures from {!Om_expr.Eval.eval_fn} *)
  | Exec_vm  (** flat register-VM programs (default; allocation-free) *)

type compiled_task = {
  id : int;
  label : string;
  eval : unit -> unit;
      (** evaluate temps then roots; reads the state environment set by
          {!set_state}, writes into {!out} *)
  measured_eval : unit -> float;
      (** like [eval] but returns the branch-resolved flop cost.  The
          task's {!Om_expr.Cost_dyn} step lists are built on the first
          call, by whichever instance of the artifact makes it: once per
          compiled artifact, under a lock, and shared by every
          {!clone_scratch} copy.  Artifacts that are never measured
          (everything but simulated execution) never build them. *)
  static_cost : float;  (** mean-branch estimate, includes temps *)
  reads : int list;
  writes : int list;
  program : Om_expr.Vm.program option;
      (** the task's register program ([Exec_vm] only), for disassembly
          and instruction statistics *)
}

type t = {
  dim : int;
  n_slots : int;
  tasks : compiled_task array;
  set_state : float -> float array -> unit;
  out : float array;  (** output slots: derivatives then partials *)
  run_epilogue : unit -> unit;
  epilogue_program : Om_expr.Vm.program option;
      (** the reduction-epilogue program ([Exec_vm] only), for engines
          that reinterpret it (e.g. {!Batch_backend}) *)
  epilogue_flops : float;
  state_names : string array;
  cse_temp_total : int;  (** temporaries across all tasks *)
  backend : exec_backend;
  vm_instrs : int;
      (** static VM instructions across tasks + epilogue (0 for
          [Exec_closures]) *)
  vm_flops : float;  (** static flop units of the VM code *)
  vm_fused : int;  (** fused instructions after the peephole pass *)
  cost_steps_built : unit -> int;
      (** how many tasks have built their measured-cost step lists so
          far, across the artifact and all its clones *)
  fresh_scratch : unit -> t;
      (** re-instantiate the compiled plans over fresh mutable scratch —
          prefer the {!clone_scratch} wrapper *)
}

val compile :
  ?scope:cse_scope ->
  ?backend:exec_backend ->
  ?optimize:bool ->
  Partition.plan ->
  state_names:string array ->
  t
(** Default scope is [Cse_per_task]; default backend is [Exec_vm].
    [optimize] (default [true], [Exec_vm] only) runs the peephole pass
    over every task and epilogue program; the fuzz oracle compiles with
    [~optimize:false] to check that the pass is bit-preserving. *)

val clone_scratch : t -> t
(** An independently runnable instance of the same compiled artifact:
    the lowered register programs (or closure step lists) are shared —
    they are immutable after {!compile} — while the value environment,
    output slots, per-task register files and the evaluation closures
    around them are fresh.  No re-lowering, CSE, peephole or validation
    happens, so the cost is a few array allocations: cheap enough to
    call at every job start.  Clone and original may execute
    concurrently from different domains; the serve layer clones one
    scratch per executor instead of locking the cached artifact. *)

val rhs_fn : t -> float -> float array -> float array -> unit
(** Sequential execution of every task plus the epilogue: the reference
    semantics used for [Odesys.make]. *)

val task_costs_static : t -> float array
