(* The measured phases every workload runs over its own inputs: compile,
   solve (sequential, and on two domains in the checks and the traced
   run), Monte Carlo ensemble, and the served open-loop + burst.  Each
   phase also checks its outputs against a reference that does not come
   from the code generator under test. *)

module R = Objectmath.Runtime
module P = Om_codegen.Pipeline
module Fm = Om_lang.Flat_model
module Json = Om_serve.Json
module W = Inputs

let span = Trace.with_span

(* ---- operation accounting and output checks ---- *)

let attempted = ref 0
let failed = ref 0
let checks_failed = ref 0

let op ok =
  incr attempted;
  if not ok then incr failed

(* A failed output check is also a failed operation. *)
let check ok fmt =
  Printf.ksprintf
    (fun what ->
      if not ok then begin
        incr checks_failed;
        incr failed;
        Printf.eprintf "CHECK FAILED: %s\n%!" what
      end)
    fmt

let bits = Int64.bits_of_float

(* JSON drops the sign of zero, so the served finals compare -0 = 0. *)
let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (bits x) (bits y) || (x = 0. && y = 0.))
       a b

let max_abs a = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0. a

let max_abs_diff a b =
  let m = ref 0. in
  Array.iteri (fun i x -> m := Float.max !m (Float.abs (x -. b.(i)))) a;
  !m

(* Max-norm relative distance of [a] from the reference [b]. *)
let rel_dist a b = max_abs_diff a b /. Float.max (max_abs b) Float.min_float

let final (rep : R.report) = Om_ode.Odesys.final_state rep.trajectory

(* ---- compile ---- *)

let compile_model (m : W.model) =
  match m.source with
  | Some s -> P.compile_source s
  | None ->
      let f = Lazy.force m.flat in
      Om_lang.Typecheck.check f;
      P.compile f

(* The same work as [compile_model], one public stage at a time, each
   under its own span: the traced view of the frontend and codegen. *)
let compile_staged (m : W.model) =
  let c = P.default_config in
  span ~job:m.label "compile" (fun () ->
      let fm =
        match m.source with
        | Some s ->
            let ast = span "om_lang.parse" (fun () -> Om_lang.Parser.parse_model s) in
            span "om_lang.flatten" (fun () -> Om_lang.Flatten.flatten ast)
        | None -> Lazy.force m.flat
      in
      span "om_lang.typecheck" (fun () -> Om_lang.Typecheck.check fm);
      let assigns =
        span "om_codegen.assignments" (fun () ->
            Om_codegen.Assignments.of_flat_model fm)
      in
      let plan =
        span "om_codegen.partition" (fun () ->
            let plan =
              Om_codegen.Partition.partition ~merge_threshold:c.merge_threshold
                ~split_threshold:c.split_threshold assigns
            in
            Om_codegen.Partition.validate plan;
            plan)
      in
      let compiled =
        span "om_codegen.backend" (fun () ->
            Om_codegen.Bytecode_backend.compile ~scope:c.cse_scope plan
              ~state_names:(Fm.state_names fm))
      in
      let tasks =
        span "om_sched.tasks" (fun () ->
            let tasks =
              Array.map
                (fun (ct : Om_codegen.Bytecode_backend.compiled_task) ->
                  Om_sched.Task.make ~id:ct.id ~label:ct.label
                    ~cost:ct.static_cost ~reads:ct.reads ~writes:ct.writes)
                compiled.tasks
            in
            Om_sched.Task.validate tasks;
            tasks)
      in
      let analysis = span "om_graph.analyse" (fun () -> P.analyse fm) in
      { P.model = fm; assigns; plan; compiled; tasks; analysis })

type compile_counts = {
  compiles : int;  (** [Pipeline.compile_count] delta *)
  vm_instructions : int;
  vm_fused : int;
  cse_temps : int;
  tasks : int;
  equations : int;
}

let counts_of results ~compiles =
  let sumi f = List.fold_left (fun a r -> a + f r) 0 results in
  {
    compiles;
    vm_instructions = sumi (fun (r : P.result) -> r.compiled.vm_instrs);
    vm_fused = sumi (fun (r : P.result) -> r.compiled.vm_fused);
    cse_temps = sumi (fun (r : P.result) -> r.compiled.cse_temp_total);
    tasks = sumi (fun (r : P.result) -> Array.length r.tasks);
    equations = sumi (fun (r : P.result) -> Fm.dim r.model);
  }

(* One sample: the whole model set, timed as one span of CPU time. *)
let compile_set (w : W.t) =
  let c0 = P.compile_count () in
  let results, cpu = Measure.cpu_time (fun () -> List.map compile_model w.models) in
  List.iter (fun _ -> op true) results;
  (results, cpu, counts_of results ~compiles:(P.compile_count () - c0))

(* ---- solve ---- *)

let real d = { R.default_config with execution = R.Real_domains d }

(* A run's wall time, and the CPU time of the calling thread (which is
   all of a sequential run's work). *)
type run = { wall : float; cpu : float; report : R.report }

let execute ~domains (m : W.model) r =
  let t0 = Measure.now () in
  let report, cpu =
    Measure.cpu_time (fun () ->
        R.execute ~config:(real domains) ~solver:m.solver ~tend:m.tend r)
  in
  { wall = Measure.now () -. t0; cpu; report }

(* One sample: every model, sequentially. *)
let solve_set (w : W.t) results =
  List.map2
    (fun m r ->
      let s = execute ~domains:0 m r in
      op true;
      s)
    w.models results

(* Reference checks on the solve outputs, run once per process: each
   model once more on two domains, which must match bitwise. *)
let check_solves (w : W.t) results (first : run list) =
  List.iter2
    (fun ((m : W.model), (r : P.result)) s ->
      let d = execute ~domains:2 m r in
      op true;
      check
        (same_bits (final s.report) (final d.report))
        "%s: sequential and 2-domain finals differ" m.label;
      match m.solver with
      | R.Rk4 h ->
          let reference = W.interp_rk4 (Lazy.force m.flat) ~h ~tend:m.tend in
          let dist = rel_dist (final s.report) reference in
          check (dist <= 1e-12)
            "%s: RK4 final %.3g relative from the tree interpreter" m.label dist
      | R.Lsoda ->
          (* heat_1d starts in the fundamental sine mode, which decays
             as exp (-alpha (pi/L)^2 t) with alpha = 0.1, L = 1. *)
          let y0 = Fm.initial_values r.model in
          let decay = Float.exp (-0.1 *. Float.pi *. Float.pi *. m.tend) in
          let exact = Array.map (fun y -> y *. decay) y0 in
          let dist = rel_dist (final s.report) exact in
          check (dist <= 1e-4)
            "%s: LSODA final %.3g relative from the analytic decay" m.label dist
      | R.Rkf45 -> ())
    (List.combine w.models results)
    first

(* Every later sample's finals must repeat the first's bitwise. *)
let check_repeat (w : W.t) first sample =
  List.iter2
    (fun (m : W.model) (f0, f) ->
      check (same_bits f0 f) "%s: a repeated solve changed its final state" m.label)
    w.models (List.combine first sample)

(* ---- Monte Carlo ensemble ---- *)

let monte_carlo (e : W.ensemble) ~domains =
  Objectmath.Sweep.monte_carlo ~source:e.e_source
    ~specs:[ (e.cls, e.param, e.dist) ]
    ~samples:e.members ~seed:e.mc_seed ~tend:e.e_tend ~domains
    ~metric:(Objectmath.Sweep.final_value e.metric_state)
    ()

let mc_metrics (rep : Objectmath.Sweep.mc_report) =
  Array.of_list (List.map (fun (s : Objectmath.Sweep.mc_sample) -> s.mc_metric) rep.samples)

(* One ensemble and the CPU time it took; at one domain the whole batch
   runs on the calling thread. *)
let ensemble_run (e : W.ensemble) ~domains =
  let rep, cpu = Measure.cpu_time (fun () -> monte_carlo e ~domains) in
  op (Array.for_all Float.is_finite (mc_metrics rep));
  (rep, cpu)

(* Two sampled members re-run on their own (a one-member batch of the
   same prepared program) must reproduce their ensemble metric.  The
   adaptive lockstep RKF45 shares step sizes within a group, so a member
   is promised only the solver's tolerance (atol 1e-8 + rtol 1e-6 of the
   value), not bitwise equality, against its own run. *)
let check_ensemble (e : W.ensemble) (first : Objectmath.Sweep.mc_report) seq par =
  check first.promoted "ensemble %s.%s fell back to the legacy path" e.cls e.param;
  check
    (same_bits (mc_metrics first) (mc_metrics seq)
    && same_bits (mc_metrics first) (mc_metrics par))
    "ensemble metrics differ between repeats or domain counts";
  match Objectmath.Sweep.prepare ~source:e.e_source ~cls:e.cls ~param:e.param with
  | Objectmath.Sweep.Legacy why -> check false "ensemble prepare: %s" why
  | Objectmath.Sweep.Promoted c ->
      let samples = Array.of_list first.samples in
      List.iter
        (fun k ->
          let s = samples.(k mod Array.length samples) in
          match
            Objectmath.Sweep.run_compiled c ~values:[ s.draws.(0) ] ~tend:e.e_tend
              ~metric:(Objectmath.Sweep.final_value e.metric_state)
              ()
          with
          | [ p ] ->
              let d = Float.abs (p.metric -. s.mc_metric) in
              check
                (d <= 1e-8 +. (1e-6 *. Float.abs s.mc_metric))
                "ensemble member %d differs from its own run by %.3g" k d
          | _ -> check false "ensemble member %d: no point" k)
        [ e.mc_seed land 0xff; (e.mc_seed lsr 8) land 0xff ]

(* ---- serve ---- *)

type record = {
  at : float;
  line : string;
  id : string;
  status : bool;  (** a terminal status record *)
  ok : bool;
}

(* Everything the sink has received, in arrival order reversed. *)
type sink = {
  lock : Mutex.t;
  mutable records : record list;
  mutable terminal : int;
}

type served = { server : Om_serve.Server.t; sink : sink; journal_path : string }

let field_is json name value =
  match Json.member json name with Some (Json.Str v) -> v = value | _ -> false

let make_server (w : W.t) ~journal_path ~executors =
  if Sys.file_exists journal_path then Sys.remove journal_path;
  let journal = Om_serve.Journal.open_append journal_path in
  let config =
    {
      Om_serve.Server.default_config with
      queue_capacity = Array.length w.open_jobs + Array.length w.burst_jobs + 64;
      executors;
      cache_capacity = w.cache_capacity;
      timings = true;
      result_cache_capacity = W.result_cache_capacity;
    }
  in
  let sink = { lock = Mutex.create (); records = []; terminal = 0 } in
  let emit json =
    let id = match Json.member json "job" with Some (Json.Str id) -> id | _ -> "" in
    (* The sink serialises each record, as [omc serve] does. *)
    let line = span ~job:id "om_serve.json_encode" (fun () -> Json.to_string json) in
    let status = field_is json "type" "status" in
    let ok = status && field_is json "status" "ok" in
    let at = Measure.now () in
    Mutex.protect sink.lock (fun () ->
        sink.records <- { at; line; id; status; ok } :: sink.records;
        if status then sink.terminal <- sink.terminal + 1)
  in
  { server = Om_serve.Server.create ~config ~journal ~emit (); sink; journal_path }

let records s = Mutex.protect s.sink.lock (fun () -> List.rev s.sink.records)

let terminal s = Mutex.protect s.sink.lock (fun () -> s.sink.terminal)

(* Wait until [n] terminal records have arrived; a server that stops
   making progress for [stall_s] seconds fails the run instead of
   hanging it. *)
let stall_s = 30.

let wait_terminal s n =
  let rec go last seen =
    let now = terminal s in
    if now < n then begin
      let last = if now > seen then Measure.now () else last in
      if Measure.now () -. last > stall_s then
        failwith (Printf.sprintf "served jobs stalled at %d of %d terminal records" now n);
      Unix.sleepf 0.0005;
      go last now
    end
  in
  go (Measure.now ()) (terminal s)

let submit s (j : W.job) =
  ignore
    (span ~job:j.id "om_serve.handle_line" (fun () ->
         Om_serve.Server.handle_line s.server j.line))

(* Warm-up: one job per distinct source, so the measured phases start
   with the compiled-model cache populated as a running service has it. *)
let warm_up (w : W.t) s =
  let seen = Hashtbl.create 64 in
  let n = ref 0 in
  Array.iteri
    (fun i source ->
      if not (Hashtbl.mem seen source) then begin
        Hashtbl.add seen source ();
        incr n;
        let id = Printf.sprintf "warm%d" i in
        ignore
          (Om_serve.Server.handle_line s.server
             (W.job_line ~id ~tenant:"warm" ~source ~h:1e-6 ~steps:1))
      end)
    w.job_sources;
  wait_terminal s !n

type serve_result = {
  latencies : float list;  (** open loop: due time to terminal record *)
  lags : float list;  (** open loop: generator lateness *)
  backlog_mid : int;  (** open-loop jobs without a terminal record ... *)
  backlog_end : int;  (** ... halfway through and at the end of arrivals *)
  burst_ok : int;
  burst_wall : float;
}

(* One segment of served traffic: [open_jobs] submitted open-loop at the
   workload's rate, then, once they have all finished, [burst_jobs]
   submitted at once and drained. *)
let serve_segment (w : W.t) s ~open_jobs ~burst_jobs =
  let base = terminal s in
  let nopen = Array.length open_jobs in
  let due = Hashtbl.create nopen in
  let lags = ref [] in
  let backlog_mid = ref 0 in
  let t0 = Measure.now () +. 0.001 in
  Array.iteri
    (fun i (j : W.job) ->
      let d = t0 +. (float_of_int i /. w.rate) in
      let wait = d -. Measure.now () in
      if wait > 0. then Unix.sleepf wait;
      lags := (Measure.now () -. d) :: !lags;
      Hashtbl.replace due j.id d;
      submit s j;
      if i = nopen / 2 then backlog_mid := i + 1 - (terminal s - base))
    open_jobs;
  let backlog_end = nopen - (terminal s - base) in
  wait_terminal s (base + nopen);
  let b0 = Measure.now () in
  Array.iter (fun j -> submit s j) burst_jobs;
  wait_terminal s (base + nopen + Array.length burst_jobs);
  let records = records s in
  (* A job that did not end ok misses any latency limit. *)
  let latencies =
    List.filter_map
      (fun r ->
        match Hashtbl.find_opt due r.id with
        | Some d when r.status -> Some (if r.ok then r.at -. d else Float.infinity)
        | _ -> None)
      records
  in
  let burst_ids = Hashtbl.create 64 in
  Array.iter (fun (j : W.job) -> Hashtbl.replace burst_ids j.id ()) burst_jobs;
  let burst_last, burst_ok =
    List.fold_left
      (fun (last, ok) r ->
        if r.status && Hashtbl.mem burst_ids r.id then
          (Float.max last r.at, if r.ok then ok + 1 else ok)
        else (last, ok))
      (b0, 0) records
  in
  {
    latencies;
    lags = !lags;
    backlog_mid = !backlog_mid;
    backlog_end;
    burst_ok;
    burst_wall = burst_last -. b0;
  }

(* The [k]-th of [n] equal slices of [a]. *)
let slice a ~k ~n =
  let len = Array.length a in
  let lo = k * len / n and hi = (k + 1) * len / n in
  Array.sub a lo (hi - lo)

(* The served traffic is split into this many segments, each an open
   loop followed by a burst. *)
let segments = 6

let nth_segment (w : W.t) s k =
  serve_segment w s
    ~open_jobs:(slice w.open_jobs ~k ~n:segments)
    ~burst_jobs:(slice w.burst_jobs ~k ~n:segments)

(* Reference finals of the served jobs: the model compiled on its own and
   run sequentially through the runtime (bitwise, the program's promise).
   The first reference of each model is itself checked to be within 1e-12
   of the tree interpreter. *)
let served_reference (w : W.t) =
  let compiled = Hashtbl.create 64 and finals = Hashtbl.create 256 in
  fun (j : W.job) ->
    let key = (j.jmodel, j.steps, Int64.bits_of_float j.h) in
    match Hashtbl.find_opt finals key with
    | Some f -> f
    | None ->
        let tend = j.h *. float_of_int j.steps in
        let r =
          match Hashtbl.find_opt compiled j.jmodel with
          | Some r -> r
          | None ->
              let r = P.compile_source w.job_sources.(j.jmodel) in
              Hashtbl.replace compiled j.jmodel r;
              let f = final (R.execute ~config:(real 0) ~solver:(R.Rk4 j.h) ~tend r) in
              let reference =
                W.interp_rk4 (Lazy.force w.job_flats.(j.jmodel)) ~h:j.h ~tend
              in
              let dist = rel_dist f reference in
              check (dist <= 1e-12)
                "served model %d: runtime final %.3g relative from the tree interpreter"
                j.jmodel dist;
              r
        in
        let f = final (R.execute ~config:(real 0) ~solver:(R.Rk4 j.h) ~tend r) in
        Hashtbl.replace finals key f;
        f

let float_array json =
  match Json.to_list json with
  | Some l -> Array.of_list (List.map (fun v -> Option.value ~default:Float.nan (Json.to_float v)) l)
  | None -> [||]

(* Count every served job as an operation, failing when its status is
   not ok or its final differs from the reference. *)
let check_served (w : W.t) s ~reference =
  let jobs = Hashtbl.create 256 in
  Array.iter (fun (j : W.job) -> Hashtbl.replace jobs j.id j) w.open_jobs;
  Array.iter (fun (j : W.job) -> Hashtbl.replace jobs j.id j) w.burst_jobs;
  List.iter
    (fun r ->
      match Hashtbl.find_opt jobs r.id with
      | Some j when r.status ->
          let json = Json.of_string r.line in
          let ok = Json.member json "status" = Some (Json.Str "ok") in
          let good =
            ok
            &&
            match Json.member json "final" with
            | Some f -> same_bits (float_array f) (reference j)
            | None -> false
          in
          if ok && not good then
            Printf.eprintf "CHECK FAILED: served job %s: final differs from its reference\n%!" j.id;
          if not good then incr checks_failed;
          op good
      | _ -> ())
    (records s)

let record_field r name =
  match Json.member (Json.of_string r.line) name with
  | Some v -> Json.to_float v
  | None -> None
