(* Seeded workload inputs.  Everything a workload feeds the libraries --
   model sources, job lines, Zipf draws, resubmissions, the arrival
   schedule and the Monte Carlo seed -- is generated here from the
   workload seed; the libraries receive only these generated inputs. *)

module R = Objectmath.Runtime
module Fm = Om_lang.Flat_model

(* One member of a workload's model set: compiled by the compile phase
   and integrated by the solve phase. *)
type model = {
  label : string;
  source : string option;
      (** frontend entry; [None] enters at the flat model (heat_1d) *)
  flat : Fm.t Lazy.t;
  solver : R.solver;
  tend : float;
}

(* A job of the served mix: one NDJSON line for [Server.handle_line]. *)
type job = {
  id : string;
  line : string;
  jmodel : int;  (** index into [job_sources] *)
  steps : int;
  h : float;
}

type ensemble = {
  e_source : string;
  cls : string;
  param : string;
  dist : Objectmath.Sweep.dist;
  e_tend : float;
  metric_state : string;
  members : int;
  mc_seed : int;
}

(* Weights of the run's measuring time for each phase: an untraced run
   splits its time between compile, solve and mc in these proportions;
   [serve] sizes the served traffic of a traced run. *)
type shares = { compile : float; solve : float; mc : float; serve : float }

type t = {
  name : string;
  shares : shares;
  seed : int;
  models : model list;
  job_sources : string array;
  job_flats : Fm.t Lazy.t array;
  open_jobs : job array;  (** open-loop phase, submitted at [rate] *)
  burst_jobs : job array;  (** submit-all-then-drain phase *)
  rate : float;  (** open-loop arrivals per second *)
  cache_capacity : int;
  ensemble : ensemble;
}

let executors = 2
let tenants = 4
let result_cache_capacity = 256
let resubmit_share = 0.1

(* The open-loop job count that fills three quarters of [share] of
   [seconds] at [rate]; the bursts get as many jobs again, which drain
   faster than the open-loop rate. *)
let job_count ~seconds ~share ~rate =
  max 100 (int_of_float (0.75 *. share *. seconds *. rate))

(* Zipf(s) ranks over [n] items: rank r has weight 1 / (r+1)^s. *)
let zipf_sampler ~s n =
  let w = Array.init n (fun r -> 1. /. Float.pow (float_of_int (r + 1)) s) in
  let total = Array.fold_left ( +. ) 0. w in
  let cdf = Array.make n 0. in
  ignore
    (Array.fold_left
       (fun (i, acc) x ->
         let acc = acc +. (x /. total) in
         cdf.(i) <- acc;
         (i + 1, acc))
       (0, 0.) w);
  fun rng ->
    let u = Random.State.float rng 1. in
    let rec find i = if i >= n - 1 || u <= cdf.(i) then i else find (i + 1) in
    find 0

let job_line ~id ~tenant ~source ~h ~steps =
  Om_serve.Json.to_string
    (Om_serve.Json.Obj
       [
         ("id", Om_serve.Json.Str id);
         ("tenant", Om_serve.Json.Str tenant);
         ("source", Om_serve.Json.Str source);
         ("solver", Om_serve.Json.Str "rk4");
         ("h", Om_serve.Json.Num h);
         ("tend", Om_serve.Json.Num (h *. float_of_int steps));
       ])

(* [n] jobs over [job_sources]: Zipf model choice, a seeded step count,
   a step size jittered by up to 1% (so distinct requests rarely
   coincide), a seeded tenant, and a seeded share of exact
   resubmissions of one of the last [resubmit_window] requests. *)
let resubmit_window = 128

let make_jobs rng ~prefix ~n ~sources ~hs ~zipf_s ~steps_lo ~steps_hi =
  let draw = zipf_sampler ~s:zipf_s (Array.length sources) in
  let drawn = Array.make n (0, 0, 0.) in
  Array.init n (fun i ->
      let id = Printf.sprintf "%s%d" prefix i in
      let tenant = Printf.sprintf "t%d" (Random.State.int rng tenants) in
      let resubmit = i > 0 && Random.State.float rng 1. < resubmit_share in
      let jmodel, steps, h =
        if resubmit then
          drawn.(i - 1 - Random.State.int rng (min i resubmit_window))
        else
          let jmodel = draw rng in
          ( jmodel,
            steps_lo + Random.State.int rng (steps_hi - steps_lo + 1),
            hs.(jmodel) *. (1. +. Random.State.float rng 0.01) )
      in
      drawn.(i) <- (jmodel, steps, h);
      {
        id;
        line = job_line ~id ~tenant ~source:sources.(jmodel) ~h ~steps;
        jmodel;
        steps;
        h;
      })

(* ---- paper: the paper's Fig. 12 models ---- *)

let bearing2d_h = 2e-5
let powerplant_h = 0.01

let paper ~seconds seed =
  let shares = { compile = 0.3; solve = 0.3; mc = 0.3; serve = 0.3 } in
  let rng = Random.State.make [| seed; 1 |] in
  let b = Om_models.Bearing2d.source () in
  let p = Om_models.Powerplant.source () in
  let sources = [| b; p |] and hs = [| bearing2d_h; powerplant_h |] in
  let jobs prefix n =
    make_jobs rng ~prefix ~n ~sources ~hs ~zipf_s:1. ~steps_lo:1 ~steps_hi:4
  in
  let rate = 250. in
  let n = job_count ~seconds ~share:shares.serve ~rate in
  let open_jobs = jobs "o" n in
  let burst_jobs = jobs "b" n in
  {
    name = "paper";
    shares;
    seed;
    models =
      [
        {
          label = "bearing2d";
          source = Some b;
          flat = lazy (Om_lang.Flatten.flatten_string b);
          solver = R.Rk4 bearing2d_h;
          tend = 200. *. bearing2d_h;
        };
        {
          label = "powerplant";
          source = Some p;
          flat = lazy (Om_lang.Flatten.flatten_string p);
          solver = R.Rk4 powerplant_h;
          tend = 500. *. powerplant_h;
        };
      ];
    job_sources = sources;
    job_flats = Array.map (fun s -> lazy (Om_lang.Flatten.flatten_string s)) sources;
    open_jobs;
    burst_jobs;
    rate;
    cache_capacity = 16;
    ensemble =
      {
        e_source = b;
        cls = "InnerRing";
        param = "fy_ext";
        dist = Objectmath.Sweep.Uniform (-600., -400.);
        e_tend = 5e-4;
        metric_state = "Inner.x";
        members = 64;
        mc_seed = Random.State.bits rng;
      };
  }

(* ---- scale: large models, compile cost and the sparse stiff path ---- *)

let scale_rollers = 60
let heat_n = 3000
let bscaled_h = 2e-5
let job_rollers = [| 4; 6; 8; 10 |]

let scale ~seconds seed =
  let shares = { compile = 0.5; solve = 0.2; mc = 0.3; serve = 0.25 } in
  let rng = Random.State.make [| seed; 2 |] in
  let s = Om_models.Bearing_scaled.source ~n_rollers:scale_rollers () in
  let heat = lazy (Om_pde.Discretize.heat_1d ~n:heat_n ()) in
  (* Served jobs run smaller members of the same family: a 60-roller
     job carries a source of several hundred KB in every request line
     and would hold the open loop to a handful of jobs per second. *)
  let sources =
    Array.map (fun n_rollers -> Om_models.Bearing_scaled.source ~n_rollers ()) job_rollers
  in
  let hs = Array.map (fun _ -> bscaled_h) sources in
  let jobs prefix n =
    make_jobs rng ~prefix ~n ~sources ~hs ~zipf_s:1. ~steps_lo:1 ~steps_hi:4
  in
  let rate = 150. in
  let n = job_count ~seconds ~share:shares.serve ~rate in
  let open_jobs = jobs "o" n in
  let burst_jobs = jobs "b" n in
  {
    name = "scale";
    shares;
    seed;
    models =
      [
        {
          label = "bscaled60";
          source = Some s;
          flat = lazy (Om_lang.Flatten.flatten_string s);
          solver = R.Rk4 bscaled_h;
          tend = 20. *. bscaled_h;
        };
        {
          label = "heat3000";
          source = None;
          flat = heat;
          solver = R.Lsoda;
          tend = 0.02;
        };
      ];
    job_sources = sources;
    job_flats = Array.map (fun s -> lazy (Om_lang.Flatten.flatten_string s)) sources;
    open_jobs;
    burst_jobs;
    rate;
    cache_capacity = 16;
    (* A 60-roller prepare costs as much as a compile sample, so the
       ensemble runs a 10-roller member of the same family. *)
    ensemble =
      {
        e_source = Om_models.Bearing_scaled.source ~n_rollers:10 ();
        cls = "InnerRing";
        param = "fy_ext";
        dist = Objectmath.Sweep.Uniform (-600., -400.);
        e_tend = 1e-4;
        metric_state = "Inner.x";
        members = 64;
        mc_seed = Random.State.bits rng;
      };
  }

(* ---- the reference interpreter ---- *)

(* The raw-equation interpreter (a tree walk with a hashtable
   environment), independent of the whole code generator: the
   reference every RK4 output is checked against. *)
let interp_rhs (f : Fm.t) =
  let names = Fm.state_names f in
  let eqs = Array.of_list f.equations in
  let tbl = Hashtbl.create (Array.length names + 1) in
  fun t y ydot ->
    Array.iteri (fun i n -> Hashtbl.replace tbl n y.(i)) names;
    Hashtbl.replace tbl "t" t;
    Array.iteri (fun i (_, rhs) -> ydot.(i) <- Om_expr.Eval.eval tbl rhs) eqs

let interp_rk4 (f : Fm.t) ~h ~tend =
  let sys = Om_ode.Odesys.make ~names:(Fm.state_names f) ~dim:(Fm.dim f) (interp_rhs f) in
  Om_ode.Odesys.final_state
    (Om_ode.Rk.integrate_fixed Om_ode.Rk.rk4 sys ~t0:0. ~y0:(Fm.initial_values f)
       ~tend ~h)

let make ~name ~seconds ~seed =
  match name with
  | "paper" -> paper ~seconds seed
  | "scale" -> scale ~seconds seed
  | other -> invalid_arg ("unknown workload " ^ other)

let names = [ "paper"; "scale" ]
