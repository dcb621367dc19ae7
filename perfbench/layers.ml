(* The traced run: spans around every library call a phase makes, and
   the per-layer metrics derived from them and from the counters and
   reports those calls return.  Aggregates over a workload's model set
   are sums (one call of each model) unless a line says otherwise. *)

module R = Objectmath.Runtime
module P = Om_codegen.Pipeline
module Fm = Om_lang.Flat_model
module W = Inputs
module Ph = Phases
module M = Measure
open Report

let span = Trace.with_span

(* Median seconds per call of [f], over [reps] timed loops of [n] calls
   with [n] sized so one loop lasts about [target] seconds. *)
let per_call ?(reps = 5) ?(target = 0.01) f =
  let (), once = M.time f in
  let n = max 1 (min 100_000 (int_of_float (target /. Float.max once 1e-7))) in
  M.median
    (List.init reps (fun _ ->
         let (), t = M.time (fun () -> for _ = 1 to n do f () done) in
         t /. float_of_int n))

(* ---- compile: stage self times, counts, LPT ---- *)

let stages =
  [
    ("om_lang.parse_s", "om_lang.parse");
    ("om_lang.flatten_s", "om_lang.flatten");
    ("om_lang.typecheck_s", "om_lang.typecheck");
    ("om_codegen.assignments_s", "om_codegen.assignments");
    ("om_codegen.partition_s", "om_codegen.partition");
    ("om_codegen.backend_s", "om_codegen.backend");
    ("om_graph.analyse_s", "om_graph.analyse");
  ]

(* The traced compile must build the same program as [Pipeline]: same
   counts and bitwise the same derivative at the initial state. *)
let same_program (a : P.result) (b : P.result) =
  let eval (r : P.result) =
    let y = Fm.initial_values r.model in
    let ydot = Array.make r.compiled.dim 0. in
    P.rhs_fn r 0. y ydot;
    ydot
  in
  a.compiled.vm_instrs = b.compiled.vm_instrs
  && a.compiled.vm_fused = b.compiled.vm_fused
  && Ph.same_bits (eval a) (eval b)

let compile_layers (w : W.t) ~budget reference =
  let passes =
    M.repeat ~budget ~min_n:2 ~max_n:50 (fun () ->
        let t0 = M.now () in
        let results = List.map Ph.compile_staged w.models in
        (results, Trace.since t0))
  in
  List.iter
    (fun (results, spans) ->
      List.iter2
        (fun (m : W.model) (a, b) ->
          Ph.check (same_program a b) "%s: traced compile built a different program" m.label)
        w.models (List.combine results reference);
      (* Every stage is spanned, so their self times must account for
         the enclosing compile span. *)
      let compile = M.sum (Trace.durations spans "compile") in
      let staged =
        M.sum (List.map (fun (_, n) -> Trace.self_total spans n) stages)
        +. Trace.self_total spans "om_sched.tasks"
      in
      Ph.check
        (Float.abs (compile -. staged) <= 0.05 *. compile)
        "stage self times %.6f s against the compile span %.6f s" staged compile)
    passes;
  List.iter
    (fun (metric_name, span_name) ->
      timing metric_name "s"
        (List.map (fun (_, spans) -> Trace.self_total spans span_name) passes))
    stages;
  let results = fst (List.hd passes) in
  let c = Ph.counts_of results ~compiles:0 in
  count "om_lang.equations" c.equations;
  count "om_codegen.tasks" c.tasks;
  (* The counts Stats reports for the VM, read from the compiled
     programs directly: Stats.collect also renders every backend's
     source text, which takes tens of seconds on the scale models. *)
  count "om_codegen.vm_instructions" c.vm_instructions;
  count "om_codegen.vm_fused" c.vm_fused;
  count "om_codegen.cse_temps" c.cse_temps;
  (* LPT over each model's tasks on two processors. *)
  let lpt (r : P.result) =
    let costs = Om_codegen.Bytecode_backend.task_costs_static r.compiled in
    Om_sched.Lpt.schedule ~costs r.tasks ~nprocs:2
  in
  metric "om_sched.lpt_s" "s"
    (M.sum
       (List.map
          (fun r -> span "om_sched.lpt" (fun () -> per_call (fun () -> ignore (lpt r))))
          results))
    ~note:"median per schedule, summed over the model set";
  metric "om_sched.lpt_imbalance" "ratio"
    (List.fold_left (fun a r -> Float.max a (Om_sched.Lpt.imbalance (lpt r))) 0. results)
    ~note:"largest over the model set";
  List.iter
    (fun (results, _) ->
      let c' = Ph.counts_of results ~compiles:0 in
      Ph.check (c' = c) "compile counts differ between traced passes")
    passes;
  results

(* ---- the RHS round: VM, batched VM, finite guard ---- *)

let rhs_layers (w : W.t) results =
  let per_model f = List.map2 f w.models results in
  let y0 (r : P.result) = Fm.initial_values r.model in
  let scalar =
    per_model (fun _ (r : P.result) ->
        let y = y0 r and ydot = Array.make r.compiled.dim 0. in
        let rhs = P.rhs_fn r in
        let t = per_call (fun () -> rhs 0. y ydot) in
        (* Minor words per call, net of the measurement's own. *)
        let n = 1000 in
        let words f =
          let a = Gc.minor_words () in
          f ();
          Gc.minor_words () -. a
        in
        let base = words (fun () -> ()) in
        let loop = words (fun () -> for _ = 1 to n do rhs 0. y ydot done) in
        (t, (loop -. base) /. float_of_int n, Array.copy ydot))
  in
  metric "om_expr.rhs_eval_us" "us"
    (1e6 *. M.sum (List.map (fun (t, _, _) -> t) scalar))
    ~note:"sequential Pipeline.rhs_fn, median per call, summed over the model set";
  metric "om_expr.rhs_minor_words" "words"
    (List.fold_left (fun a (_, w, _) -> Float.max a w) 0. scalar)
    ~note:"per sequential call, largest over the model set";
  let batch width =
    per_model (fun _ (r : P.result) ->
        let b = Om_codegen.Batch_backend.create r.compiled ~width in
        let dim = r.compiled.dim in
        let y0 = y0 r in
        let times = Array.make width 0. in
        let y = Array.init dim (fun i -> Array.make width y0.(i)) in
        let ydot = Array.make_matrix dim width 0. in
        let t =
          per_call (fun () ->
              Om_codegen.Batch_backend.brhs b ~times ~y ~ydot ~lo:0 ~hi:width)
        in
        (t, Array.init dim (fun i -> ydot.(i).(0))))
  in
  let b64 = batch 64 and b1 = batch 1 in
  List.iter2
    (fun (m : W.model) ((_, _, scalar), ((_, lane64), (_, lane1))) ->
      Ph.check
        (Ph.same_bits scalar lane64 && Ph.same_bits scalar lane1)
        "%s: batched RHS lanes differ from the scalar RHS" m.label)
    w.models
    (List.combine scalar (List.combine b64 b1));
  metric "om_expr.batch_rhs_us_per_lane" "us"
    (1e6 *. M.sum (List.map (fun (t, _) -> t /. 64.) b64))
    ~note:"width-64 Batch_backend.brhs per lane, summed over the model set";
  metric "om_expr.batch_w1_rhs_us" "us"
    (1e6 *. M.sum (List.map fst b1))
    ~note:"width-1 Batch_backend.brhs per call, summed over the model set";
  let guard =
    per_model (fun _ (r : P.result) ->
        let g =
          Om_guard.Finite_guard.create ~names:r.compiled.state_names ~dim:r.compiled.dim
        in
        let ydot = Array.make r.compiled.dim 1. in
        per_call (fun () -> Om_guard.Finite_guard.check g ~time:0. ydot))
  in
  metric "om_guard.finite_check_us" "us"
    (1e6 *. M.sum guard)
    ~note:"Finite_guard.check per call, summed over the model set"

(* ---- the solver, run directly on a system built as Runtime builds it ---- *)

type solved = {
  final : float array;
  wall : float;
  rhs_s : float;
  counters : Om_ode.Odesys.counters;
  mode : string;
  sys : Om_ode.Odesys.t;
}

(* The runtime's sequential system: the compiled RHS behind the finite
   guard, carrying the model's structural sparsity, solved with the same
   solver options -- plus a timer around the RHS. *)
let traced_solve (m : W.model) (r : P.result) =
  let c = r.compiled in
  let guard = Om_guard.Finite_guard.create ~names:c.state_names ~dim:c.dim in
  let rhs_s = ref 0. in
  let f t y ydot =
    let t0 = M.now () in
    P.rhs_fn r t y ydot;
    Om_guard.Finite_guard.check guard ~time:t ydot;
    rhs_s := !rhs_s +. (M.now () -. t0)
  in
  let sys =
    Om_ode.Odesys.make ~names:(Array.copy c.state_names)
      ~sparsity:(Om_ode.Odesys.pattern_of_equations r.model.equations)
      ~dim:c.dim f
  in
  let y0 = Fm.initial_values r.model in
  let retries = R.default_config.retry_budget in
  let jac_mode = R.default_config.jac_mode in
  let traj, wall =
    M.time (fun () ->
        span ~job:m.label "om_ode.integrate" (fun () ->
            match m.solver with
            | R.Rk4 h ->
                Om_ode.Rk.integrate_fixed ~max_retries:retries Om_ode.Rk.rk4 sys ~t0:0.
                  ~y0 ~tend:m.tend ~h
            | R.Rkf45 ->
                Om_ode.Rk.rkf45 ~max_retries:retries sys ~t0:0. ~y0 ~tend:m.tend
            | R.Lsoda ->
                (Om_ode.Lsoda.integrate ~max_retries:retries ~jac_mode sys ~t0:0. ~y0
                   ~tend:m.tend)
                  .trajectory))
  in
  let mode, _ = Om_ode.Jacobian.mode_stats ~jac_mode sys in
  {
    final = Om_ode.Odesys.final_state traj;
    wall;
    rhs_s = !rhs_s;
    (* a copy: the counters are mutable, and later work on [sys] bumps them *)
    counters = { sys.counters with steps = sys.counters.steps };
    mode;
    sys;
  }

let counter_tuple (c : Om_ode.Odesys.counters) =
  [ c.steps; c.rejected; c.rhs_calls; c.jac_calls; c.newton_iters; c.lu_factorisations ]

let solve_layers (w : W.t) results =
  let runs =
    List.map2
      (fun (m : W.model) (r : P.result) ->
        let rep, exec_wall =
          M.time (fun () ->
              span ~job:m.label "objectmath.execute" (fun () ->
                  R.execute ~config:(Ph.real 0) ~solver:m.solver ~tend:m.tend r))
        in
        let a = traced_solve m r in
        let b = traced_solve m r in
        Ph.op true;
        Ph.check
          (Ph.same_bits a.final (Ph.final rep))
          "%s: the traced system's final differs from Runtime.execute" m.label;
        Ph.check (a.mode = rep.jac_mode) "%s: jac mode %s, runtime %s" m.label a.mode
          rep.jac_mode;
        Ph.check
          (counter_tuple a.counters = counter_tuple b.counters
          && a.counters.rhs_calls = rep.rhs_calls)
          "%s: ODE counters differ between two solves" m.label;
        (m, r, exec_wall, a))
      w.models results
  in
  metric "objectmath.execute_s" "s"
    (M.sum (List.map (fun (_, _, t, _) -> t) runs))
    ~note:"sequential Runtime.execute, summed over the model set";
  let sumc f = List.fold_left (fun acc (_, _, _, s) -> acc + f s.counters) 0 runs in
  count "om_ode.steps" (sumc (fun c -> c.steps));
  count "om_ode.rejected_steps" (sumc (fun c -> c.rejected));
  count "om_ode.rhs_calls" (sumc (fun c -> c.rhs_calls));
  count "om_ode.jac_calls" (sumc (fun c -> c.jac_calls));
  count "om_ode.newton_iters" (sumc (fun c -> c.newton_iters));
  count "om_ode.lu_factorisations" (sumc (fun c -> c.lu_factorisations));
  let wall = M.sum (List.map (fun (_, _, _, s) -> s.wall) runs) in
  let rhs = M.sum (List.map (fun (_, _, _, s) -> s.rhs_s) runs) in
  metric "om_ode.solver_self_s" "s" (wall -. rhs)
    ~note:"integrate wall minus time inside the RHS";
  metric "om_ode.rhs_share" "ratio" (rhs /. wall)
    ~note:(Printf.sprintf "%.6f s RHS / %.6f s integrate" rhs wall);
  (* Colored finite differences and the sparse LU on each model's own
     Newton matrix, whether or not its solver needs them. *)
  let sparse =
    List.map
      (fun ((m : W.model), (r : P.result), _, s) ->
        match Om_ode.Jacobian.sparse_ctx s.sys with
        | None ->
            Ph.check false "%s: no sparsity pattern" m.label;
            (0, 0., 0.)
        | Some ctx ->
            let y0 = Fm.initial_values r.model in
            let before = s.sys.counters.rhs_calls in
            Om_ode.Jacobian.sparse_eval_into s.sys ctx 0. y0;
            let colors = ctx.coloring.ncolors in
            Ph.check
              (s.sys.counters.rhs_calls - before = colors + 1)
              "%s: a colored Jacobian took %d RHS calls for %d colors" m.label
              (s.sys.counters.rhs_calls - before) colors;
            Om_ode.Sparse.newton_assemble ctx.newton ~jac:ctx.sj ~alpha:1. ~beta:1e-4;
            let lu =
              span "om_ode.sparse_lu" (fun () ->
                  per_call ~reps:3 (fun () ->
                      ignore (Om_ode.Sparse.lu_factor (Om_ode.Sparse.newton_matrix ctx.newton))))
            in
            (* The fd column groups on two domains, checked against the
               same points evaluated one by one. *)
            Om_ode.Sparse.fd_prepare ctx.fd ~y:y0;
            let points = Om_ode.Sparse.fd_points ctx.fd in
            let outs = Array.map (fun p -> Array.make (Array.length p) 0.) points in
            let pj = Om_parallel.Par_jac.create ~nworkers:2 r in
            let batch =
              Fun.protect
                ~finally:(fun () -> Om_parallel.Par_jac.shutdown pj)
                (fun () ->
                  span "om_parallel.par_jac" (fun () ->
                      per_call ~reps:3 (fun () -> Om_parallel.Par_jac.batch pj 0. points outs)))
            in
            Array.iteri
              (fun k p ->
                let expect = Array.make (Array.length p) 0. in
                P.rhs_fn r 0. p expect;
                Ph.check (Ph.same_bits expect outs.(k))
                  "%s: Par_jac point %d differs from sequential" m.label k)
              points;
            (colors, lu, batch))
      runs
  in
  count "om_ode.jac_colors" (List.fold_left (fun a (c, _, _) -> a + c) 0 sparse);
  metric "om_ode.sparse_lu_factor_us" "us"
    (1e6 *. M.sum (List.map (fun (_, l, _) -> l) sparse))
    ~note:"one factorisation of each model's Newton matrix, summed";
  metric "om_parallel.par_jac_batch_us" "us"
    (1e6 *. M.sum (List.map (fun (_, _, b) -> b) sparse))
    ~note:"one colored fd point batch per model on 2 domains, summed"

(* ---- the 2-domain round ---- *)

let parallel_layers (w : W.t) results =
  let runs =
    List.map2
      (fun (m : W.model) r ->
        let run =
          span ~job:m.label "objectmath.execute.d2" (fun () -> Ph.execute ~domains:2 m r)
        in
        Ph.op true;
        run)
      w.models results
  in
  let sum f = M.sum (List.map f runs) in
  metric "objectmath.rhs_calls_per_s.d2" "1/s"
    (M.geomean
       (List.map (fun (r : Ph.run) -> float_of_int r.report.rhs_calls /. r.wall) runs))
    ~note:"Real_domains 2: geomean over the model set of calls / execute wall";
  metric "objectmath.solve_s.d2" "s" (sum (fun (r : Ph.run) -> r.wall))
    ~note:"Real_domains 2: execute wall, summed over the model set";
  metric "om_parallel.pool_create_s" "s"
    (sum (fun (r : Ph.run) -> r.wall -. r.report.sim_seconds))
    ~note:"Runtime.execute wall outside the solve: pool spawn and join";
  let calls = List.fold_left (fun a (r : Ph.run) -> a + r.report.rhs_calls) 0 runs in
  metric "om_parallel.round_us.d2" "us"
    (1e6 *. sum (fun r -> r.report.sim_seconds) /. float_of_int calls)
    ~note:(Printf.sprintf "solve wall per round over %d rounds" calls);
  metric "om_parallel.barrier_wait_s" "s" (sum (fun r -> r.report.supervisor_comm_seconds));
  metric "om_parallel.worker_compute_s" "s"
    (sum (fun r -> Array.fold_left ( +. ) 0. r.report.worker_compute_seconds));
  metric "om_parallel.utilization" "ratio"
    (sum (fun r -> r.report.worker_utilization) /. float_of_int (List.length runs))
    ~note:"mean over the model set"

(* ---- ensemble preparation ---- *)

let ensemble_layers (w : W.t) =
  let e = w.ensemble in
  let prepares =
    List.init 3 (fun _ ->
        snd
          (M.time (fun () ->
               span "objectmath.mc_prepare" (fun () ->
                   Objectmath.Sweep.prepare ~source:e.e_source ~cls:e.cls ~param:e.param))))
  in
  timing "objectmath.mc_prepare_s" "s" prepares;
  let walls =
    List.init 3 (fun _ ->
        snd
          (M.time (fun () ->
               span "objectmath.monte_carlo.d2" (fun () ->
                   ignore (Ph.monte_carlo e ~domains:2)))))
  in
  timing "objectmath.trajectories_per_s.d2" "1/s"
    (List.map (fun t -> float_of_int e.members /. t) walls)

(* ---- the service ---- *)

let file_size path = if Sys.file_exists path then (Unix.stat path).Unix.st_size else 0

let status_field (r : Ph.record) name = if r.ok then Ph.record_field r name else None

let serve_layers (w : W.t) (s : Ph.served) =
  let cache () = Om_serve.Model_cache.stats (Om_serve.Server.cache s.server) in
  let c0 = cache () and rh0, rm0, _ = Om_serve.Server.result_cache_stats s.server in
  let records0 = List.length (Ph.records s) in
  let bytes0 = file_size s.journal_path in
  let t0 = M.now () in
  let segments = List.init Ph.segments (Ph.nth_segment w s) in
  ignore (Om_serve.Server.drain s.server);
  let spans = Trace.since t0 in
  let c1 = cache () and rh1, rm1, _ = Om_serve.Server.result_cache_stats s.server in
  let records = Ph.records s in
  let jobs = Array.length w.open_jobs + Array.length w.burst_jobs in
  let mine = List.filteri (fun i _ -> i >= records0) records in
  (* Queue and run times of the open-loop jobs; burst jobs queue by design. *)
  let open_ids = Hashtbl.create 1024 in
  Array.iter (fun (j : W.job) -> Hashtbl.replace open_ids j.id ()) w.open_jobs;
  let field name =
    List.filter_map
      (fun (r : Ph.record) -> if Hashtbl.mem open_ids r.id then status_field r name else None)
      mine
  in
  timing ~scale:1e6 "om_serve.handle_line_us" "us" (Trace.durations spans "om_serve.handle_line");
  let pct name p = M.percentile (M.sorted (field name)) p in
  metric "om_serve.queue_s.p50" "s" (pct "queue_s" 50.);
  metric "om_serve.queue_s.p99" "s" (pct "queue_s" 99.);
  metric "om_serve.run_s.p50" "s" (pct "run_s" 50.);
  metric "om_serve.run_s.p99" "s" (pct "run_s" 99.);
  let hits = c1.hits - c0.hits and misses = c1.misses - c0.misses in
  ratio "om_serve.model_cache_hit_ratio" ~num:hits ~den:(hits + misses);
  count "om_serve.compiles" (c1.compiles - c0.compiles);
  count "om_serve.evictions" (c1.evictions - c0.evictions);
  ratio "om_serve.result_cache_hit_ratio" ~num:(rh1 - rh0) ~den:(rh1 - rh0 + rm1 - rm0);
  metric "om_serve.journal_bytes_per_job" "bytes"
    (float_of_int (file_size s.journal_path - bytes0) /. float_of_int jobs);
  timing ~scale:1e6 "om_serve.json_encode_us" "us" (Trace.durations spans "om_serve.json_encode");
  ratio "om_serve.records_per_job" ~num:(List.length mine) ~den:jobs;
  let rates =
    List.map (fun (r : Ph.serve_result) -> float_of_int r.burst_ok /. r.burst_wall) segments
  in
  metric "om_serve.jobs_per_s" "1/s" (M.median rates)
    ~note:(Printf.sprintf "median of %d submit-all-then-drain burst rates" Ph.segments);
  let latencies =
    M.sorted (List.concat_map (fun (r : Ph.serve_result) -> r.latencies) segments)
  in
  let latency p =
    metric (Printf.sprintf "om_serve.latency_p%g_s" p) "s" (M.percentile latencies p)
      ~note:
        (Printf.sprintf "open loop at %g/s, due time to terminal record; n=%d" w.rate
           (Array.length latencies))
  in
  latency 50.;
  latency 99.;
  let lags = List.concat_map (fun (r : Ph.serve_result) -> r.lags) segments in
  metric "load.generator_lag_p99_s" "s" (M.percentile (M.sorted lags) 99.);
  List.iteri
    (fun k (r : Ph.serve_result) ->
      Printf.printf
        "open loop %d: generator lateness p99 %.6f s; backlog %d at the midpoint, %d at \
         the end (%s)\n"
        k
        (M.percentile (M.sorted r.lags) 99.)
        r.backlog_mid r.backlog_end
        (if r.backlog_end > r.backlog_mid + (2 * W.executors) then "grew" else "steady"))
    segments;
  Ph.check_served w s ~reference:(Ph.served_reference w)

(* Two replays of the burst's first jobs through a one-executor server
   must count exactly the same cache, result-cache and journal work. *)
let serve_counts (w : W.t) ~journal_path =
  let jobs = Array.sub w.burst_jobs 0 (min 200 (Array.length w.burst_jobs)) in
  let replay () =
    let s = Ph.make_server w ~journal_path ~executors:1 in
    let p0 = P.compile_count () in
    Array.iter (fun (j : W.job) -> ignore (Om_serve.Server.handle_line s.server j.line)) jobs;
    Ph.wait_terminal s (Array.length jobs);
    ignore (Om_serve.Server.drain s.server);
    let c = Om_serve.Model_cache.stats (Om_serve.Server.cache s.server) in
    let rh, _, _ = Om_serve.Server.result_cache_stats s.server in
    let bytes = file_size journal_path in
    Sys.remove journal_path;
    [ P.compile_count () - p0; c.compiles; c.hits; c.evictions; rh; bytes ]
  in
  let a = replay () in
  let b = replay () in
  Ph.check (a = b) "served counters differ between two replays of one seed";
  Printf.printf
    "serve replay counters (compile_count, compiles, hits, evictions, \
     result hits, journal bytes): %s\n"
    (String.concat ", " (List.map string_of_int a))

(* ---- the whole traced run ---- *)

let run ~seconds (w : W.t) (s : Ph.served) ~journal_path =
  Printf.printf "per-layer metrics (%s):\n" w.name;
  (* Untraced and traced passes of compile + sequential solve, in pairs,
     for the tracing overhead; the untraced results are the reference
     program the traced compile must reproduce. *)
  let pass traced =
    Gc.full_major ();
    Trace.enabled := traced;
    let results, wall =
      M.time (fun () ->
          let results =
            List.map (if traced then Ph.compile_staged else Ph.compile_model) w.models
          in
          List.iter2 (fun m r -> ignore (Ph.execute ~domains:0 m r)) w.models results;
          results)
    in
    Trace.enabled := true;
    (results, wall)
  in
  let pairs =
    M.repeat ~budget:(seconds *. w.shares.compile) ~min_n:1 ~max_n:20 (fun () ->
        let u = pass false in
        let t = pass true in
        (u, t))
  in
  let reference = fst (fst (List.hd pairs)) in
  let overhead =
    M.median (List.map (fun ((_, u), (_, t)) -> t /. u) pairs)
  in
  Gc.full_major ();
  let results =
    compile_layers w ~budget:(seconds *. w.shares.compile) reference
  in
  metric "trace.overhead_ratio" "ratio" overhead
    ~note:(Printf.sprintf "traced / untraced compile + solve wall, median of %d pairs" (List.length pairs));
  Gc.full_major ();
  rhs_layers w results;
  solve_layers w results;
  parallel_layers w results;
  ensemble_layers w;
  Gc.full_major ();
  serve_layers w s;
  Trace.enabled := false;
  serve_counts w ~journal_path
