(** Executable backend: compile a partition plan into runnable code.

    The paper's generated Fortran 90 is compiled by an F90 compiler and
    linked with the runtime; here the equivalent executable artifact is
    register-VM code ({!Om_expr.Vm}) over a shared value environment.
    Like the paper (§3.3) it comes in two forms:

    - {b serial code}: one program over every task's roots with global
      CSE, so a subexpression two tasks share is computed once; its
      temporaries stay in registers instead of the environment.  Every
      evaluation on one domain runs it — {!rhs_fn} and therefore
      sequential solves, fd Jacobians, batched ensembles.
    - {b parallel code}: one program per task with per-task CSE, since
      subexpressions cannot be shared between tasks that run on
      different processors.  Only real multicore rounds
      ([Om_parallel.Par_exec]) run it, so it is lowered on first demand
      ({!task_programs}), once per artifact.

    Both are followed by the reduction epilogue and compute the same
    derivatives bit for bit: CSE swaps a subtree for a temp bound to its
    value without reordering any operand, and the peephole pass is
    exact.  The per-task CSE blocks are built eagerly either way: task
    costs, schedules and the simulated machine read them. *)

type cse_scope =
  | Cse_none  (** no CSE in either form *)
  | Cse_per_task
      (** parallel code with per-task CSE, serial code with global CSE
          (the default) *)
  | Cse_global  (** one task holding the serial code *)

type compiled_task = {
  id : int;
  label : string;
  measured_eval : unit -> float;
      (** evaluate the task's temps then roots through its
          {!Om_expr.Cost_dyn} step lists, reading the state environment
          set by {!set_state} and writing {!out}, and return the
          branch-resolved flop cost.  The step lists are built on the
          first call, by whichever instance of the artifact makes it:
          once per compiled artifact, under a lock, and shared by every
          {!clone_scratch} copy.  Artifacts that are never measured
          (everything but simulated execution) never build them. *)
  static_cost : float;  (** mean-branch estimate, includes temps *)
  reads : int list;
  writes : int list;
}

(** An instance's parallel code. *)
type parallel = {
  programs : Om_expr.Vm.program array;  (** per task, in task order *)
  evals : (unit -> unit) array;
      (** [evals.(i)] runs [programs.(i)] over the instance's env and
          output slots *)
}

type t = {
  dim : int;
  n_slots : int;
  tasks : compiled_task array;
  set_state : float -> float array -> unit;
  out : float array;  (** output slots: derivatives then partials *)
  run_serial : unit -> unit;
      (** run the serial program: every task's roots into {!out} *)
  serial_program : Om_expr.Vm.program;
      (** the serial program, for engines that reinterpret it (e.g.
          {!Batch_backend}) and for disassembly *)
  run_epilogue : unit -> unit;
  epilogue_program : Om_expr.Vm.program;  (** the reduction epilogue *)
  epilogue_flops : float;
  state_names : string array;
  cse_temp_total : int;  (** temporaries across all tasks (parallel code) *)
  vm_instrs : int;  (** static VM instructions, serial program + epilogue *)
  vm_flops : float;  (** static flop units of the same *)
  vm_fused : int;  (** fused instructions after the peephole pass *)
  parallel : unit -> parallel;
      (** this instance's parallel code — prefer {!task_programs} and
          {!task_evals} *)
  parallel_builds : unit -> int;
      (** how many times the parallel code has been lowered, across the
          artifact and all its clones: 0 until first asked for, then 1 *)
  cost_steps_built : unit -> int;
      (** how many tasks have built their measured-cost step lists so
          far, across the artifact and all its clones *)
  fresh_scratch : unit -> t;
      (** re-instantiate the compiled code over fresh mutable scratch —
          prefer the {!clone_scratch} wrapper *)
}

val compile :
  ?scope:cse_scope -> ?optimize:bool -> Partition.plan -> state_names:string array -> t
(** Default scope is [Cse_per_task].  [optimize] (default [true]) runs
    the peephole pass over every program; the fuzz oracle compiles with
    [~optimize:false] to check that the pass is bit-preserving. *)

val clone_scratch : t -> t
(** An independently runnable instance of the same compiled artifact:
    the register programs are shared — they are immutable once lowered,
    and the parallel code is lowered at most once whichever instance
    asks for it — while the value environment, output slots, register
    files and the evaluation closures around them are fresh.  No
    re-lowering, CSE, peephole or validation happens, so the cost is a
    few array allocations: cheap enough to call at every job start.
    Clone and original may execute concurrently from different domains;
    the serve layer clones one scratch per executor instead of locking
    the cached artifact. *)

val rhs_fn : t -> float -> float array -> float array -> unit
(** The serial program plus the epilogue: the reference semantics used
    for [Odesys.make].  Allocation-free. *)

val task_programs : t -> Om_expr.Vm.program array
(** The instance's per-task programs, lowering the parallel code first
    if no instance has yet.  Call it on the supervisor domain, before
    any worker runs a task. *)

val task_evals : t -> (unit -> unit) array
(** Closures running {!task_programs} over the instance's scratch. *)

val rhs_fn_per_task : t -> float -> float array -> float array -> unit
(** The parallel code run on the calling domain, in task order, plus
    the epilogue.  Bitwise equal to {!rhs_fn}; the fuzz oracle and the
    tests check that.  Partially apply it to [t] once: the application
    lowers the parallel code. *)

val parallel_stats : t -> Om_expr.Vm.stats
(** Static statistics of the parallel code plus the epilogue (lowers it
    if needed). *)

val task_costs_static : t -> float array
