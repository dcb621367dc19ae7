type cse_scope = Cse_none | Cse_per_task | Cse_global

type compiled_task = {
  id : int;
  label : string;
  measured_eval : unit -> float;
  static_cost : float;
  reads : int list;
  writes : int list;
}

type parallel = {
  programs : Om_expr.Vm.program array;
  evals : (unit -> unit) array;
}

type t = {
  dim : int;
  n_slots : int;
  tasks : compiled_task array;
  set_state : float -> float array -> unit;
  out : float array;
  run_serial : unit -> unit;
  serial_program : Om_expr.Vm.program;
  run_epilogue : unit -> unit;
  epilogue_program : Om_expr.Vm.program;
  epilogue_flops : float;
  state_names : string array;
  cse_temp_total : int;
  vm_instrs : int;
  vm_flops : float;
  vm_fused : int;
  parallel : unit -> parallel;
  parallel_builds : unit -> int;
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

(* A value computed at most once per artifact, by whichever instance
   asks first, and shared by every clone; the lock keeps two domains
   from computing it twice. *)
let once lock built f =
  let cell = Atomic.make None in
  fun () ->
    match Atomic.get cell with
    | Some v -> v
    | None ->
        Mutex.protect lock (fun () ->
            match Atomic.get cell with
            | Some v -> v
            | None ->
                let v = f () in
                Atomic.set cell (Some v);
                Atomic.incr built;
                v)

(* Lower a CSE block to one register program over the env layout
   [names]: temps store to their env slots, roots to their output
   slots.  The block's temps are private to its program, so the
   optimiser may drop stores nothing reads. *)
let lower_block ?hold_private ~optimize ~out_size names (block : Cse.block) =
  let slot_of_name = Om_expr.Name_index.find names in
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
        (fun (target, e) -> (e, Om_expr.Vm.To_out (slot_of_target target)))
        block.roots
  in
  Om_expr.Vm.compile_stmts ~optimize
    ~private_env_slot:(fun s -> Iset.mem s priv)
    ?hold_private ~out_size names stmts

let layout state_names (blocks : Cse.block list) =
  Om_expr.Name_index.of_array
    (Array.concat
       ([ state_names; [| "t" |] ]
       @ List.map
           (fun (b : Cse.block) ->
             Array.of_list (List.map (fun (t : Cse.binding) -> t.name) b.temps))
           blocks))

let compile ?(scope = Cse_per_task) ?(optimize = true) (plan : Partition.plan)
    ~state_names =
  let dim = plan.dim in
  if Array.length state_names <> dim then
    invalid_arg "Bytecode_backend.compile: state_names length mismatch";
  let info = Comm_analysis.analyse plan ~state_names in
  let targets (tk : Partition.task) =
    List.map (fun (s, e) -> (slot_target s, e)) tk.roots
  in
  let all_targets () = Array.to_list plan.tasks |> List.concat_map targets in
  (* One CSE block per compiled task (parallel code, paper §3.3) and
     one block over every task's roots (serial code).  Each root tree
     is numbered once and both eliminations run over that numbering. *)
  let task_block tk block =
    (tk.Partition.tid, tk.label, block, info.reads.(tk.tid), info.writes.(tk.tid))
  in
  let blocks, serial_block =
    match scope with
    | Cse_none ->
        ( Array.to_list plan.tasks
          |> List.map (fun tk ->
                 task_block tk { Cse.temps = []; roots = targets tk }),
          { Cse.temps = []; roots = all_targets () } )
    | Cse_per_task ->
        let numbering = Cse.numbering () in
        let numbered =
          Array.map (fun tk -> Cse.number numbering (targets tk)) plan.tasks
        in
        ( Array.to_list plan.tasks
          |> List.mapi (fun i (tk : Partition.task) ->
                 task_block tk
                   (Cse.eliminate_numbered
                      ~prefix:(Printf.sprintf "cse$%d$" tk.tid)
                      [ numbered.(i) ])),
          Cse.eliminate_numbered ~prefix:"cse$g$" (Array.to_list numbered) )
    | Cse_global ->
        let block = Cse.eliminate ~prefix:"cse$g$" (all_targets ()) in
        let module Iset = Set.Make (Int) in
        let union a =
          Array.fold_left
            (fun acc l -> List.fold_left (fun s x -> Iset.add x s) acc l)
            Iset.empty a
          |> Iset.elements
        in
        ([ (0, "serial", block, union info.reads, union info.writes) ], block)
  in
  (* Two env layouts over one env array: states, time, then either every
     task's temps (parallel code) or the serial block's temps.  The
     serial program holds its temps in registers and never touches their
     slots, so the overlapping ranges do not interfere. *)
  let task_blocks = List.map (fun (_, _, b, _, _) -> b) blocks in
  let names = layout state_names task_blocks in
  let serial_names = layout state_names [ serial_block ] in
  let env_size =
    max (Om_expr.Name_index.size names) (Om_expr.Name_index.size serial_names)
  in
  let slot_of_name = Om_expr.Name_index.find names in
  let out_size = Partition.n_slots plan in
  (* Serial code is lowered eagerly: every sequential, batched and
     Jacobian evaluation runs it.  Its temps stay in registers.  The
     per-task programs keep storing theirs, so their code is the same
     whichever way the artifact is used. *)
  let serial_code =
    lower_block ~hold_private:true ~optimize ~out_size serial_names serial_block
  in
  let epilogue_code = Om_expr.Vm.compile_epilogue ~optimize ~out_size plan.epilogue in
  (* Parallel code is lowered on first demand (a Par_exec run, a test),
     once per artifact, shared by clones.  Each task's Cost_dyn step
     lists are built by its first [measured_eval] the same way: only
     simulated execution measures costs, so most artifacts never pay for
     them. *)
  let lock = Mutex.create () in
  let parallel_built = Atomic.make 0 and cost_built = Atomic.make 0 in
  let parallel_code =
    once lock parallel_built (fun () ->
        Array.of_list
          (List.map (lower_block ~optimize ~out_size names) task_blocks))
  in
  let cost_steps (block : Cse.block) =
    once lock cost_built (fun () ->
        let step e = Om_expr.Cost_dyn.build names e in
        ( List.map
            (fun (b : Cse.binding) -> (slot_of_name b.name, step b.expr))
            block.temps,
          List.map
            (fun (target, e) -> (slot_of_target target, step e))
            block.roots ))
  in
  let task_plans =
    List.map
      (fun (id, label, block, reads, writes) ->
        (id, label, cost_steps block, Cse.block_cost block, reads, writes))
      blocks
  in
  let vm_instrs, vm_flops, vm_fused =
    List.fold_left
      (fun (i, fl, fu) p ->
        let s = Om_expr.Vm.stats p in
        (i + s.instrs, fl +. s.flops, fu + s.fused))
      (0, 0., 0) [ serial_code; epilogue_code ]
  in
  let cse_temp_total =
    List.fold_left (fun n b -> n + Cse.temp_count b) 0 task_blocks
  in
  let epilogue_flops = plan.epilogue_flops in
  (* Instantiation binds the shared code to fresh mutable scratch: the
     env/out value arrays, a register file per program
     (Vm.clone_scratch) and the evaluation closures over them.
     [compile] instantiates once; [clone_scratch] re-instantiates so
     another executor can run the same artifact concurrently. *)
  let rec instantiate () =
    let env = Array.make env_size 0. in
    let out = Array.make out_size 0. in
    let build_task (id, label, msteps, static_cost, reads, writes) =
      let measured_eval () =
        let temp_msteps, root_msteps = msteps () in
        let acc = ref 0. in
        List.iter (fun (slot, f) -> env.(slot) <- f env acc) temp_msteps;
        List.iter (fun (slot, f) -> out.(slot) <- f env acc) root_msteps;
        !acc
      in
      { id; label; measured_eval; static_cost; reads; writes }
    in
    let tasks = Array.of_list (List.map build_task task_plans) in
    let set_state t y =
      Array.blit y 0 env 0 dim;
      env.(dim) <- t
    in
    let serial_program = Om_expr.Vm.clone_scratch serial_code in
    let epilogue_program = Om_expr.Vm.clone_scratch epilogue_code in
    (* This instance's register files for the parallel code, made on
       first demand like the code itself. *)
    let parallel = ref None in
    let instance_parallel () =
      match !parallel with
      | Some p -> p
      | None ->
          let programs =
            Array.map Om_expr.Vm.clone_scratch (parallel_code ())
          in
          let evals =
            Array.map (fun p () -> Om_expr.Vm.exec p ~env ~out) programs
          in
          let p = { programs; evals } in
          parallel := Some p;
          p
    in
    {
      dim;
      n_slots = out_size;
      tasks;
      set_state;
      out;
      run_serial = (fun () -> Om_expr.Vm.exec serial_program ~env ~out);
      serial_program;
      run_epilogue =
        (fun () -> Om_expr.Vm.exec epilogue_program ~env:no_env ~out);
      epilogue_program;
      epilogue_flops;
      state_names;
      cse_temp_total;
      vm_instrs;
      vm_flops;
      vm_fused;
      parallel = instance_parallel;
      parallel_builds = (fun () -> Atomic.get parallel_built);
      cost_steps_built = (fun () -> Atomic.get cost_built);
      fresh_scratch = instantiate;
    }
  in
  instantiate ()

let clone_scratch c = c.fresh_scratch ()

let rhs_fn c t y ydot =
  c.set_state t y;
  c.run_serial ();
  c.run_epilogue ();
  Array.blit c.out 0 ydot 0 c.dim

let task_programs c = (c.parallel ()).programs
let task_evals c = (c.parallel ()).evals

let rhs_fn_per_task c =
  let evals = task_evals c in
  fun t y ydot ->
    c.set_state t y;
    Array.iter (fun f -> f ()) evals;
    c.run_epilogue ();
    Array.blit c.out 0 ydot 0 c.dim

let parallel_stats c =
  Array.fold_left
    (fun (acc : Om_expr.Vm.stats) p ->
      let s = Om_expr.Vm.stats p in
      {
        Om_expr.Vm.instrs = acc.instrs + s.instrs;
        flops = acc.flops +. s.flops;
        fused = acc.fused + s.fused;
      })
    (Om_expr.Vm.stats c.epilogue_program)
    (task_programs c)

let task_costs_static c = Array.map (fun tk -> tk.static_cost) c.tasks
