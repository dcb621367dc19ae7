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
  cse_parallel : int;
  cse_serial : int;
  total_rhs_flops : float;
  vm_instructions : int;
  vm_fused : int;
  vm_flops : float;
  vm_parallel_instructions : int;
  vm_parallel_fused : int;
}

let count_lines s =
  if s = "" then 0
  else
    let newlines =
      String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 s
    in
    if s.[String.length s - 1] = '\n' then newlines else newlines + 1

let collect ?source (r : Pipeline.result) =
  let m = r.model in
  let state_names = Om_lang.Flat_model.state_names m in
  let initial = Om_lang.Flat_model.initial_values m in
  let fpar =
    Fortran.generate ~mode:Fortran.Parallel r.plan ~state_names ~initial
      ~model_name:m.name
  in
  let fser =
    Fortran.generate ~mode:Fortran.Serial r.plan ~state_names ~initial
      ~model_name:m.name
  in
  let cpar =
    C_backend.generate ~mode:C_backend.Parallel r.plan ~state_names ~initial
      ~model_name:m.name
  in
  let mma = Mathematica_backend.generate m in
  let parallel = Bytecode_backend.parallel_stats r.compiled in
  let jg = Jacobian_gen.generate m in
  let jfor = Jacobian_gen.fortran jg ~state_names ~model_name:m.name in
  let source_info =
    Option.map
      (fun src ->
        let model = Om_lang.Parser.parse_model src in
        ( count_lines src,
          List.length model.classes,
          List.length model.instances ))
      source
  in
  {
    model_name = m.name;
    source_lines = Option.map (fun (l, _, _) -> l) source_info;
    n_classes = Option.map (fun (_, c, _) -> c) source_info;
    n_instances = Option.map (fun (_, _, i) -> i) source_info;
    n_equations = List.length m.equations;
    n_tasks = Array.length r.plan.tasks;
    n_partials = r.plan.n_partials;
    intermediate_lines = Om_lang.Typecheck.intermediate_line_count m;
    fortran_parallel_lines = fpar.total_lines;
    fortran_parallel_decls = fpar.declaration_lines;
    fortran_serial_lines = fser.total_lines;
    fortran_serial_decls = fser.declaration_lines;
    c_parallel_lines = cpar.total_lines;
    mathematica_lines = mma.total_lines;
    jacobian_nonzeros = Jacobian_gen.nonzero_count jg;
    jacobian_lines = jfor.total_lines;
    cse_parallel = fpar.cse_count;
    cse_serial = fser.cse_count;
    total_rhs_flops = Om_lang.Flat_model.total_rhs_flops m;
    vm_instructions = r.compiled.vm_instrs;
    vm_fused = r.compiled.vm_fused;
    vm_flops = r.compiled.vm_flops;
    vm_parallel_instructions = parallel.instrs;
    vm_parallel_fused = parallel.fused;
  }

let pp ppf s =
  let opt ppf = function
    | Some v -> Fmt.int ppf v
    | None -> Fmt.string ppf "-"
  in
  Fmt.pf ppf "model %s@." s.model_name;
  Fmt.pf ppf "  source lines               %a@." opt s.source_lines;
  Fmt.pf ppf "  classes / instances        %a / %a@." opt s.n_classes opt
    s.n_instances;
  Fmt.pf ppf "  equations (ODEs)           %d@." s.n_equations;
  Fmt.pf ppf "  tasks (partials)           %d (%d)@." s.n_tasks s.n_partials;
  Fmt.pf ppf "  intermediate-form lines    %d@." s.intermediate_lines;
  Fmt.pf ppf "  F90 parallel lines (decl)  %d (%d)@." s.fortran_parallel_lines
    s.fortran_parallel_decls;
  Fmt.pf ppf "  F90 serial lines (decl)    %d (%d)@." s.fortran_serial_lines
    s.fortran_serial_decls;
  Fmt.pf ppf "  C parallel lines           %d@." s.c_parallel_lines;
  Fmt.pf ppf "  Mathematica lines          %d@." s.mathematica_lines;
  Fmt.pf ppf "  Jacobian nonzeros (lines)  %d (%d)@." s.jacobian_nonzeros
    s.jacobian_lines;
  Fmt.pf ppf "  CSEs parallel / serial     %d / %d@." s.cse_parallel
    s.cse_serial;
  Fmt.pf ppf "  VM instructions serial / parallel (fused)  %d (%d) / %d (%d)@."
    s.vm_instructions s.vm_fused s.vm_parallel_instructions
    s.vm_parallel_fused;
  Fmt.pf ppf "  VM serial flop units       %.0f@." s.vm_flops;
  Fmt.pf ppf "  mean RHS cost (flop units) %.0f@." s.total_rhs_flops
