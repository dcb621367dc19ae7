(* The repository benchmark.

     perfbench --workload paper|scale --seed N --seconds S --trace 0|1

   With --trace 0 it measures the end-to-end metrics of the workload, in
   CPU seconds of single-threaded phases; with --trace 1 it records spans
   around each library call instead and reports the per-layer metrics,
   the 2-domain and served wall-clock figures among them.  Earlier lines
   of standard output describe every metric (median, tail percentile,
   sample count) and the host; the last line is the JSON result. *)

module W = Inputs
module Ph = Phases
module M = Measure

open Report

let out_dir = "_perfbench"

(* ---- set-up ---- *)

type env = { w : W.t; served : Ph.served }

let journal_path (w : W.t) k =
  Filename.concat out_dir (Printf.sprintf "journal-%s-%d-%d.ndjson" w.name w.seed k)

(* Input generation, server and journal creation, and cache warm-up,
   done [setups] times and timed in CPU seconds of the whole process (the
   executors compile the warm-up models), at the reference host speed
   (see Measure.calibrated).  Each is torn down again as soon as it has
   been timed, so no set-up runs beside another's idle executors; only a
   traced run keeps the last one, to serve jobs.  An untraced run's
   phases are sequential and should not share the runtime with idle
   executor domains. *)
let setups = 5

let setup ~name ~seconds ~seed ~keep =
  let once k =
    let env, cpu, raw =
      M.calibrated M.process_cpu_time (fun () ->
          let w = W.make ~name ~seconds ~seed in
          let served =
            Ph.make_server w ~journal_path:(journal_path w k) ~executors:W.executors
          in
          Ph.warm_up w served;
          { w; served })
    in
    if k < setups - 1 || not keep then begin
      ignore (Om_serve.Server.drain env.served.server);
      Sys.remove env.served.journal_path
    end;
    (env, (cpu, raw))
  in
  let runs = List.init setups once in
  (fst (List.nth runs (setups - 1)), List.map snd runs)

(* ---- untraced run: the end-to-end metrics ---- *)

(* A measured phase: [sample] takes one sample and records it. *)
type phase = {
  share : float;
  min_n : int;
  max_n : int;
  sample : unit -> unit;
  mutable spent : float;
  mutable n : int;
  mutable speeds : float list;
      (** per sample, newest first: the mean CPU seconds of the
          calibration passes just before and just after it *)
}

let phase ~share ~min_n ~max_n sample =
  { share; min_n; max_n; sample; spent = 0.; n = 0; speeds = [] }

(* The next sample always goes to the phase that has used the least of
   its share of the run, so every phase's samples are spread over the
   whole run and a slow spell of the host touches all phases alike.
   Ties go to the earlier phase in the list.  A calibration pass runs
   before the first sample and after every sample. *)
let interleave ~seconds phases =
  let t0 = M.now () in
  let before = ref (M.calibration_pass ()) in
  let live p = p.n < p.max_n && (p.n < p.min_n || M.now () -. t0 < seconds) in
  let rec go () =
    match List.filter live phases with
    | [] -> ()
    | first :: rest ->
        let use p = p.spent /. p.share in
        let p = List.fold_left (fun a b -> if use b < use a then b else a) first rest in
        let (), dt = M.time p.sample in
        let after = M.calibration_pass () in
        p.speeds <- ((!before +. after) /. 2.) :: p.speeds;
        before := after;
        p.spent <- p.spent +. dt;
        p.n <- p.n + 1;
        go ()
  in
  go ()

(* A phase's samples, oldest first, of raw CPU seconds restated at the
   reference host speed by the calibration passes around each. *)
let at_reference p raws = List.map2 (fun k t -> M.at_reference ~k t) (List.rev p.speeds) raws

(* A timing at the reference host speed, with the raw CPU median beside
   it. *)
let calibrated_timing name unit ~raw samples =
  let s = M.summarize samples in
  metric name unit s.median
    ~note:(Printf.sprintf "median; p%g %.6g; n=%d; raw CPU median %.6g" s.tail_p s.tail s.n
             (M.median raw))

(* Every phase is single-threaded and timed in CPU seconds of the
   calling thread (see Measure.cpu_time), restated at the reference host
   speed (see Measure.calibration_pass).  The 2-domain and served
   figures can only be taken in wall-clock time, which on a shared host
   with two cores spreads from run to run by far more than any bound the
   benchmark may set; the traced run reports them as per-layer metrics. *)
let end_to_end ~seconds env setup =
  let w = env.w in
  let e = w.ensemble in
  let compiles = ref [] and solves = ref [] and mcs = ref [] in
  (* The solve samples run the first compile sample's programs; later
     samples keep only their timing and outputs, so the heap does not
     grow with the number of samples. *)
  let first = ref [] and first_solve = ref [] in
  let first_mc = ref None and last_mc = ref None in
  let sh = w.shares in
  Gc.compact ();
  (* Compile samples allocate the most: each starts from a collected
     heap and leaves one, outside the timed region, so its garbage does
     not land on other phases' samples. *)
  let compile =
    phase ~share:sh.compile ~min_n:3 ~max_n:10_000 (fun () ->
        Gc.full_major ();
        let results, cpu, counts = Ph.compile_set w in
        if !first = [] then first := results;
        compiles := (cpu, counts) :: !compiles;
        Gc.full_major ())
  in
  let solve =
    phase ~share:sh.solve ~min_n:5 ~max_n:100_000 (fun () ->
        let sample = Ph.solve_set w !first in
        if !first_solve = [] then first_solve := sample;
        solves := List.map (fun (r : Ph.run) -> (r.cpu, Ph.final r.report)) sample :: !solves)
  in
  let mc =
    phase ~share:sh.mc ~min_n:5 ~max_n:100_000 (fun () ->
        let rep, cpu = Ph.ensemble_run e ~domains:1 in
        if !first_mc = None then first_mc := Some rep;
        last_mc := Some rep;
        mcs := cpu :: !mcs)
  in
  interleave ~seconds [ compile; solve; mc ];
  let compiles = List.rev !compiles and solves = List.rev !solves in
  let mcs = List.rev !mcs in
  Printf.printf
    "end-to-end metrics (%s), in CPU seconds at the reference host speed (a %g s \
     calibration pass):\n"
    w.name M.reference_pass_s;
  calibrated_timing "setup_s" "s" (List.map fst setup) ~raw:(List.map snd setup);
  let results = !first and counts0 = snd (List.hd compiles) in
  List.iter
    (fun (_, c) -> Ph.check (c = counts0) "compile counters differ between samples")
    compiles;
  let raw = List.map fst compiles in
  calibrated_timing "compile_s" "s" (at_reference compile raw) ~raw;
  (* Per model: RHS calls over its median CPU time; then the geometric
     mean. *)
  let model_cpu i = List.map (fun sample -> fst (List.nth sample i)) solves in
  let rate cpu =
    M.geomean
      (List.mapi
         (fun i (r : Ph.run) -> float_of_int r.report.rhs_calls /. M.median (cpu i))
         !first_solve)
  in
  metric "rhs_calls_per_s" "1/s"
    (rate (fun i -> at_reference solve (model_cpu i)))
    ~note:
      (Printf.sprintf "geomean over %d models of calls / median CPU time; n=%d; raw %.6g"
         (List.length w.models) (List.length solves) (rate model_cpu));
  let raw = List.map (fun sample -> M.sum (List.map fst sample)) solves in
  calibrated_timing "solve_s" "s" (at_reference solve raw) ~raw;
  let members = float_of_int e.members in
  let tps = List.map (fun cpu -> members /. cpu) in
  calibrated_timing "trajectories_per_s" "1/s" (tps (at_reference mc mcs)) ~raw:(tps mcs);
  (* Output checks, outside every timed region. *)
  let (), checks =
    M.time (fun () ->
        Ph.check_solves w results !first_solve;
        let finals = List.map snd (List.hd solves) in
        List.iter (fun sample -> Ph.check_repeat w finals (List.map snd sample)) solves;
        let mc2, _ = Ph.ensemble_run e ~domains:2 in
        Ph.check_ensemble e (Option.get !first_mc) (Option.get !last_mc) mc2)
  in
  Printf.printf "output checks took %.2f s\n" checks;
  let ok = max 0 (!Ph.attempted - !Ph.failed) in
  metric "ok_rate" "ratio"
    (float_of_int ok /. float_of_int (max 1 !Ph.attempted))
    ~note:(Printf.sprintf "%d ok / %d attempted" ok !Ph.attempted);
  metric "peak_rss_mb" "MiB" (M.peak_rss_mb ())

(* ---- traced run: the per-layer metrics ---- *)

let per_layer ~seconds env =
  Layers.run ~seconds env.w env.served ~journal_path:(journal_path env.w setups);
  let path =
    Filename.concat out_dir (Printf.sprintf "trace-%s-%d.ndjson" env.w.name env.w.seed)
  in
  Trace.write path;
  Printf.printf "spans written to %s\n" path

(* ---- entry point ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " paper | scale");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--commit", Arg.Set_string commit, " commit recorded in the provenance");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload W.names) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Printf.printf
    "{\"provenance\":{\"workload\":%S,\"seed\":%d,\"seconds\":%g,\"trace\":%d,\"nproc\":%d,\"ocaml\":%S,\"commit\":%S,\"OCAMLRUNPARAM\":%S}}\n%!"
    !workload !seed !seconds !trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !commit
    (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM"));
  let steal0, total0 = M.cpu_jiffies () in
  let env, setup_cpu =
    setup ~name:!workload ~seconds:!seconds ~seed:!seed ~keep:(!trace = 1)
  in
  if !trace = 0 then end_to_end ~seconds:!seconds env setup_cpu
  else per_layer ~seconds:!seconds env;
  for k = 0 to setups do
    let p = journal_path env.w k in
    if Sys.file_exists p then Sys.remove p
  done;
  let steal1, total1 = M.cpu_jiffies () in
  Printf.printf "host: %.2f%% of CPU time stolen by the hypervisor during the run\n"
    (100. *. float_of_int (steal1 - steal0) /. float_of_int (max 1 (total1 - total0)));
  Report.result_line ~correct:(!Ph.checks_failed = 0) ~attempted:!Ph.attempted
    ~failed:!Ph.failed
