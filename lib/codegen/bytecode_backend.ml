type cse_scope = Cse_none | Cse_per_task | Cse_global
type exec_backend = Exec_closures | Exec_vm

type compiled_task = {
  id : int;
  label : string;
  eval : unit -> unit;
  measured_eval : unit -> float;
  static_cost : float;
  reads : int list;
  writes : int list;
  program : Om_expr.Vm.program option;
}

type t = {
  dim : int;
  n_slots : int;
  tasks : compiled_task array;
  set_state : float -> float array -> unit;
  out : float array;
  run_epilogue : unit -> unit;
  epilogue_program : Om_expr.Vm.program option;
  epilogue_flops : float;
  state_names : string array;
  cse_temp_total : int;
  backend : exec_backend;
  vm_instrs : int;
  vm_flops : float;
  vm_fused : int;
  cost_steps_built : unit -> int;
  fresh_scratch : unit -> t;
}

let slot_target slot = Printf.sprintf "slot$%d" slot

let slot_of_target s =
  match String.index_opt s '$' with
  | Some i ->
      int_of_string (String.sub s (i + 1) (String.length s - i - 1))
  | None -> invalid_arg "Bytecode_backend: bad slot target"

let no_env = [||]

let compile ?(scope = Cse_per_task) ?(backend = Exec_vm) ?(optimize = true)
    (plan : Partition.plan) ~state_names =
  let dim = plan.dim in
  if Array.length state_names <> dim then
    invalid_arg "Bytecode_backend.compile: state_names length mismatch";
  let info = Comm_analysis.analyse plan ~state_names in
  (* One CSE block per compiled task. *)
  let blocks =
    match scope with
    | Cse_none ->
        Array.to_list plan.tasks
        |> List.map (fun (tk : Partition.task) ->
               let targets =
                 List.map (fun (s, e) -> (slot_target s, e)) tk.roots
               in
               ( tk.tid,
                 tk.label,
                 { Cse.temps = []; roots = targets },
                 info.reads.(tk.tid),
                 info.writes.(tk.tid) ))
    | Cse_per_task ->
        Array.to_list plan.tasks
        |> List.map (fun (tk : Partition.task) ->
               let targets =
                 List.map (fun (s, e) -> (slot_target s, e)) tk.roots
               in
               let block =
                 Cse.eliminate
                   ~prefix:(Printf.sprintf "cse$%d$" tk.tid)
                   targets
               in
               (tk.tid, tk.label, block, info.reads.(tk.tid),
                info.writes.(tk.tid)))
    | Cse_global ->
        let targets =
          Array.to_list plan.tasks
          |> List.concat_map (fun (tk : Partition.task) ->
                 List.map (fun (s, e) -> (slot_target s, e)) tk.roots)
        in
        let block = Cse.eliminate ~prefix:"cse$g$" targets in
        let module Iset = Set.Make (Int) in
        let union a =
          Array.fold_left
            (fun acc l -> List.fold_left (fun s x -> Iset.add x s) acc l)
            Iset.empty a
          |> Iset.elements
        in
        [ (0, "serial", block, union info.reads, union info.writes) ]
  in
  (* Environment: states, time, then every temp of every block. *)
  let temp_names =
    List.concat_map
      (fun (_, _, (b : Cse.block), _, _) ->
        List.map (fun (t : Cse.binding) -> t.name) b.temps)
      blocks
  in
  (* One slot index for the whole artifact, shared by every task's
     lowering and closures. *)
  let names =
    Om_expr.Name_index.of_array
      (Array.concat [ state_names; [| "t" |]; Array.of_list temp_names ])
  in
  let env_size = Om_expr.Name_index.size names in
  let slot_of_name = Om_expr.Name_index.find names in
  let out_size = Partition.n_slots plan in
  (* Each task's Cost_dyn step lists are built by the first
     [measured_eval] of any instance: only simulated execution measures
     costs, so most artifacts never pay for them.  Clones share the
     lists; the lock keeps two domains from building them twice. *)
  let cost_lock = Mutex.create () in
  let cost_built = Atomic.make 0 in
  let cost_steps (block : Cse.block) =
    let cell = Atomic.make None in
    fun () ->
      match Atomic.get cell with
      | Some steps -> steps
      | None ->
          Mutex.protect cost_lock (fun () ->
              match Atomic.get cell with
              | Some steps -> steps
              | None ->
                  let step e = Om_expr.Cost_dyn.build names e in
                  let steps =
                    ( List.map
                        (fun (b : Cse.binding) ->
                          (slot_of_name b.name, step b.expr))
                        block.temps,
                      List.map
                        (fun (target, e) -> (slot_of_target target, step e))
                        block.roots )
                  in
                  Atomic.set cell (Some steps);
                  Atomic.incr cost_built;
                  steps)
  in
  (* Pure per-task compile products, shared by every scratch instance:
     register programs (whose instruction streams are immutable) or
     closure step lists (pure functions of the env array they are
     handed).  All lowering, CSE, peephole and validation work happens
     here, once. *)
  let plan_block (id, label, (block : Cse.block), reads, writes) =
    let code =
      match backend with
      | Exec_vm ->
          (* One register program per task: temps store to their env
             slots, roots to their output slots.  Temp slots are
             task-private (per-task CSE prefixes make the names unique),
             so the optimiser may drop stores nothing reads. *)
          let module Iset = Set.Make (Int) in
          let priv =
            List.fold_left
              (fun s (b : Cse.binding) -> Iset.add (slot_of_name b.name) s)
              Iset.empty block.temps
          in
          let stmts =
            List.map
              (fun (b : Cse.binding) ->
                (b.expr, Om_expr.Vm.To_env (slot_of_name b.name)))
              block.temps
            @ List.map
                (fun (target, e) ->
                  (e, Om_expr.Vm.To_out (slot_of_target target)))
                block.roots
          in
          `Vm
            (Om_expr.Vm.compile_stmts ~optimize
               ~private_env_slot:(fun s -> Iset.mem s priv)
               ~out_size names stmts)
      | Exec_closures ->
          let temp_steps =
            List.map
              (fun (b : Cse.binding) ->
                (slot_of_name b.name, Om_expr.Eval.eval_fn names b.expr))
              block.temps
          in
          let root_steps =
            List.map
              (fun (target, e) ->
                (slot_of_target target, Om_expr.Eval.eval_fn names e))
              block.roots
          in
          `Closures (temp_steps, root_steps)
    in
    (id, label, code, cost_steps block, Cse.block_cost block, reads, writes)
  in
  let task_plans = List.map plan_block blocks in
  let epilogue_code =
    match backend with
    | Exec_vm ->
        `Vm (Om_expr.Vm.compile_epilogue ~optimize ~out_size plan.epilogue)
    | Exec_closures -> `Closures plan.epilogue
  in
  let vm_instrs, vm_flops, vm_fused =
    let add (i, fl, fu) p =
      let s = Om_expr.Vm.stats p in
      (i + s.instrs, fl +. s.flops, fu + s.fused)
    in
    let acc =
      List.fold_left
        (fun acc (_, _, code, _, _, _, _) ->
          match code with `Vm p -> add acc p | `Closures _ -> acc)
        (0, 0., 0) task_plans
    in
    match epilogue_code with `Vm p -> add acc p | `Closures _ -> acc
  in
  let cse_temp_total = List.length temp_names in
  let epilogue_flops = plan.epilogue_flops in
  (* Instantiation binds the shared plans to fresh mutable scratch: the
     env/out value arrays, a register file per task program
     (Vm.clone_scratch) and the evaluation closures over them.
     [compile] instantiates once; [clone_scratch] re-instantiates so
     another executor can run the same artifact concurrently. *)
  let rec instantiate () =
    let env = Array.make env_size 0. in
    let out = Array.make out_size 0. in
    let build_task (id, label, code, msteps, static_cost, reads, writes) =
      let program, eval =
        match code with
        | `Vm prog ->
            let p = Om_expr.Vm.clone_scratch prog in
            (Some p, fun () -> Om_expr.Vm.exec p ~env ~out)
        | `Closures (temp_steps, root_steps) ->
            ( None,
              fun () ->
                List.iter (fun (slot, f) -> env.(slot) <- f env) temp_steps;
                List.iter (fun (slot, f) -> out.(slot) <- f env) root_steps )
      in
      let measured_eval () =
        let temp_msteps, root_msteps = msteps () in
        let acc = ref 0. in
        List.iter (fun (slot, f) -> env.(slot) <- f env acc) temp_msteps;
        List.iter (fun (slot, f) -> out.(slot) <- f env acc) root_msteps;
        !acc
      in
      { id; label; eval; measured_eval; static_cost; reads; writes; program }
    in
    let tasks = Array.of_list (List.map build_task task_plans) in
    let set_state t y =
      Array.blit y 0 env 0 dim;
      env.(dim) <- t
    in
    let run_epilogue, epilogue_program =
      match epilogue_code with
      | `Vm eprog ->
          let p = Om_expr.Vm.clone_scratch eprog in
          ((fun () -> Om_expr.Vm.exec p ~env:no_env ~out), Some p)
      | `Closures groups ->
          ( (fun () ->
              List.iter
                (fun (deriv, slots) ->
                  let acc = ref 0. in
                  List.iter (fun s -> acc := !acc +. out.(s)) slots;
                  out.(deriv) <- !acc)
                groups),
            None )
    in
    {
      dim;
      n_slots = out_size;
      tasks;
      set_state;
      out;
      run_epilogue;
      epilogue_program;
      epilogue_flops;
      state_names;
      cse_temp_total;
      backend;
      vm_instrs;
      vm_flops;
      vm_fused;
      cost_steps_built = (fun () -> Atomic.get cost_built);
      fresh_scratch = instantiate;
    }
  in
  instantiate ()

let clone_scratch c = c.fresh_scratch ()

let rhs_fn c t y ydot =
  c.set_state t y;
  Array.iter (fun tk -> tk.eval ()) c.tasks;
  c.run_epilogue ();
  Array.blit c.out 0 ydot 0 c.dim

let task_costs_static c = Array.map (fun tk -> tk.static_cost) c.tasks
