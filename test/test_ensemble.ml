(* Batched ensemble engine: SoA batch VM, lockstep steppers, group
   split/merge, compile-once sweeps and Monte Carlo. *)

module E = Om_expr.Expr
module Vm = Om_expr.Vm
module Vb = Om_expr.Vm_batch
module Ens = Om_ode.Ensemble
module Bb = Om_codegen.Bytecode_backend
module Batch = Om_codegen.Batch_backend

let bits = Int64.bits_of_float

let check_bits what a b = Alcotest.(check int64) what (bits a) (bits b)

(* ---------- batched VM vs scalar VM ---------- *)

let names = [| "x"; "y"; "z" |]

let sample_exprs =
  [
    ( "poly",
      E.add
        [
          E.mul [ E.var "x"; E.var "x" ];
          E.mul [ E.const 3.; E.var "y" ];
          E.neg (E.var "z");
        ] );
    ("pow", E.pow (E.var "x") (E.var "y"));
    ( "calls",
      E.add
        [
          E.sin (E.var "x");
          E.atan2 (E.var "y") (E.var "z");
          E.hypot (E.var "x") (E.var "z");
          E.min_e (E.var "x") (E.var "y");
          E.sign (E.var "z");
        ] );
    ( "branch",
      E.if_
        (E.cond (E.var "x") E.Lt (E.var "y"))
        (E.exp (E.var "z"))
        (E.mul [ E.var "x"; E.var "y" ]) );
    ( "nested branch",
      E.if_
        (E.cond (E.var "x") E.Ge E.zero)
        (E.if_ (E.cond (E.var "y") E.Gt (E.var "z")) (E.var "y") (E.var "z"))
        (E.neg (E.var "x")) );
  ]

(* Deterministic lane environments crossing every branch. *)
let lane_envs =
  [|
    [| 0.3; 0.7; -1.2 |];
    [| 0.7; 0.3; 1.2 |];
    [| -0.5; 0.5; 0. |];
    [| 0.; 0.; -0. |];
    [| 2.5; -3.5; 0.25 |];
    [| -1.; -2.; 42. |];
    [| 1e-8; 1e8; -7.5 |];
  |]

let soa_env width =
  Array.init (Array.length names) (fun i ->
      Array.init width (fun j -> lane_envs.(j).(i)))

let test_batch_matches_scalar () =
  let width = Array.length lane_envs in
  let env = soa_env width in
  List.iter
    (fun (label, e) ->
      let p = Vm.compile names e in
      let b = Vb.create p ~width in
      Vb.exec b ~env ~out:[||] ~lo:0 ~hi:width;
      let row = Vb.result_row b in
      Array.iteri
        (fun j scalar_env ->
          check_bits
            (Printf.sprintf "%s lane %d" label j)
            (Vm.run p scalar_env) row.(j))
        lane_envs)
    sample_exprs

(* A temp held in a register ([Vm.compile_stmts ~hold_private]) and read
   again past a jump: [z + t0] with [t0 = -x] fuses to [z - x], which
   reads the load under the held [neg] a second time, after the branch
   of the middle statement.  Load fusion must keep that load. *)
let test_batch_held_register_across_jump () =
  let index = Om_expr.Name_index.of_array [| "x"; "y"; "z"; "t0" |] in
  let stmts =
    [
      (E.neg (E.var "x"), Vm.To_env 3);
      ( E.if_
          (E.cond (E.var "y") E.Lt (E.var "z"))
          (E.sin (E.var "t0"))
          (E.cos (E.var "y")),
        Vm.To_out 0 );
      (E.add [ E.var "z"; E.var "t0" ], Vm.To_out 1);
    ]
  in
  let p =
    Vm.compile_stmts ~private_env_slot:(fun s -> s = 3) ~hold_private:true
      ~out_size:2 index stmts
  in
  let width = Array.length lane_envs in
  let env =
    Array.init 4 (fun i ->
        Array.init width (fun j -> if i < 3 then lane_envs.(j).(i) else nan))
  in
  let out = Array.init 2 (fun _ -> Array.make width 0.) in
  let b = Vb.create p ~width in
  Vb.exec b ~env ~out ~lo:0 ~hi:width;
  Array.iteri
    (fun j lane ->
      let sout = Array.make 2 0. in
      Vm.exec p ~env:(Array.append lane [| nan |]) ~out:sout;
      check_bits (Printf.sprintf "lane %d z + t0" j) (lane.(2) -. lane.(0))
        sout.(1);
      Array.iteri
        (fun k v -> check_bits (Printf.sprintf "lane %d out %d" j k) v out.(k).(j))
        sout)
    lane_envs

let test_batch_width_one () =
  List.iter
    (fun (label, e) ->
      let p = Vm.compile names e in
      let b = Vb.create p ~width:1 in
      Array.iter
        (fun scalar_env ->
          let env =
            Array.init (Array.length names) (fun i -> [| scalar_env.(i) |])
          in
          Vb.exec b ~env ~out:[||] ~lo:0 ~hi:1;
          check_bits
            (Printf.sprintf "%s width-1" label)
            (Vm.run p scalar_env) (Vb.result_row b).(0))
        lane_envs)
    sample_exprs

let test_batch_subrange () =
  (* Lanes outside [lo, hi) keep their previous results. *)
  let width = Array.length lane_envs in
  let env = soa_env width in
  let p = Vm.compile names (snd (List.nth sample_exprs 3)) in
  let b = Vb.create p ~width in
  Vb.exec b ~env ~out:[||] ~lo:0 ~hi:width;
  let before = Array.copy (Vb.result_row b) in
  (* Perturb every env column, then re-run only lanes 2..4. *)
  Array.iter (fun col -> Array.iteri (fun j v -> col.(j) <- v +. 1.) col) env;
  Vb.exec b ~env ~out:[||] ~lo:2 ~hi:5;
  let after = Vb.result_row b in
  for j = 0 to width - 1 do
    if j < 2 || j >= 5 then
      check_bits (Printf.sprintf "lane %d untouched" j) before.(j) after.(j)
    else
      let scalar_env = Array.init 3 (fun i -> env.(i).(j)) in
      check_bits (Printf.sprintf "lane %d re-run" j) (Vm.run p scalar_env)
        after.(j)
  done

let test_batch_zero_alloc () =
  (* Both interpreter paths: straight-line and masked. *)
  List.iter
    (fun (_, e) ->
      let p = Vm.compile names e in
      let width = 64 in
      let env =
        Array.init (Array.length names) (fun i ->
            Array.init width (fun j -> lane_envs.(j mod Array.length lane_envs).(i)))
      in
      let b = Vb.create p ~width in
      let words n =
        Vb.exec b ~env ~out:[||] ~lo:0 ~hi:width;
        let before = Gc.minor_words () in
        for _ = 1 to n do
          Vb.exec b ~env ~out:[||] ~lo:0 ~hi:width
        done;
        Gc.minor_words () -. before
      in
      let d1 = words 500 in
      let d2 = words 5_500 in
      Alcotest.(check (float 0.)) "zero words per exec" 0. (d2 -. d1))
    [ List.nth sample_exprs 0; List.nth sample_exprs 4 ]

(* ---------- batch backend over a compiled model ---------- *)

let branchy_source =
  {|model M;
    class Osc
      parameter k = 1.5;
      variable x init 1.0;
      variable v init 0.5;
      equation der(x) = v;
      equation der(v) = if x > 0.0 then 0.0 - k * x else 0.0 - 2.0 * k * x;
    end;
    instance a of Osc;
    instance b of Osc;|}

let compile_model source =
  Om_codegen.Pipeline.compile (Om_lang.Flatten.flatten_string source)

let test_batch_backend_matches_rhs_fn () =
  let r = compile_model branchy_source in
  let c = r.Om_codegen.Pipeline.compiled in
  let dim = c.Bb.dim in
  let width = 6 in
  let bb = Batch.create c ~width in
  let y =
    Array.init dim (fun i ->
        Array.init width (fun j ->
            (0.25 *. float_of_int (i + 1)) -. (0.35 *. float_of_int j)))
  in
  let times = Array.init width (fun j -> 0.125 *. float_of_int j) in
  let ydot = Array.init dim (fun _ -> Array.make width 0.) in
  Batch.brhs bb ~times ~y ~ydot ~lo:0 ~hi:width;
  let ys = Array.make dim 0. and yds = Array.make dim 0. in
  for j = 0 to width - 1 do
    for i = 0 to dim - 1 do
      ys.(i) <- y.(i).(j)
    done;
    Bb.rhs_fn c times.(j) ys yds;
    for i = 0 to dim - 1 do
      check_bits (Printf.sprintf "lane %d state %d" j i) yds.(i) ydot.(i).(j)
    done
  done

let test_batch_backend_zero_alloc () =
  let r = compile_model branchy_source in
  let c = r.Om_codegen.Pipeline.compiled in
  let dim = c.Bb.dim in
  let width = 32 in
  let bb = Batch.create c ~width in
  let y = Array.init dim (fun i -> Array.make width (0.5 +. float_of_int i)) in
  let times = Array.make width 0. in
  let ydot = Array.init dim (fun _ -> Array.make width 0.) in
  let words n =
    Batch.brhs bb ~times ~y ~ydot ~lo:0 ~hi:width;
    let before = Gc.minor_words () in
    for _ = 1 to n do
      Batch.brhs bb ~times ~y ~ydot ~lo:0 ~hi:width
    done;
    Gc.minor_words () -. before
  in
  let d1 = words 200 in
  let d2 = words 2_200 in
  Alcotest.(check (float 0.)) "zero words per brhs" 0. (d2 -. d1)

(* ---------- lockstep RK4 vs scalar integration ---------- *)

let scalar_sys c =
  Om_ode.Odesys.make ~dim:c.Bb.dim (fun t y ydot -> Bb.rhs_fn c t y ydot)

let member_y0 c m =
  (* The compiled model's initial state, perturbed per member. *)
  Array.init c.Bb.dim (fun i ->
      (0.5 +. (0.25 *. float_of_int i)) +. (0.125 *. float_of_int m))

let check_traj what (a : Om_ode.Odesys.trajectory)
    (b : Om_ode.Odesys.trajectory) =
  Alcotest.(check int)
    (what ^ " length")
    (Array.length a.ts) (Array.length b.ts);
  Array.iteri
    (fun s ta -> check_bits (Printf.sprintf "%s t[%d]" what s) ta b.ts.(s))
    a.ts;
  Array.iteri
    (fun s row ->
      Array.iteri
        (fun i v ->
          check_bits (Printf.sprintf "%s y[%d].(%d)" what s i) v
            b.states.(s).(i))
        row)
    a.states

let test_rk4_matches_scalar_runs () =
  let r = compile_model branchy_source in
  let c = r.Om_codegen.Pipeline.compiled in
  let n = 5 in
  let y0s = Array.init n (member_y0 c) in
  let bb = Batch.create c ~width:n in
  let ens = Ens.create ~dim:c.Bb.dim ~f:(Batch.brhs bb) y0s in
  let rep = Ens.rk4 ~record:true ens ~t0:0. ~tend:0.4 ~h:0.025 in
  let trajs = Option.get rep.Ens.trajectories in
  for m = 0 to n - 1 do
    let tr =
      Om_ode.Rk.integrate_fixed Om_ode.Rk.rk4 (scalar_sys c) ~t0:0.
        ~y0:y0s.(m) ~tend:0.4 ~h:0.025
    in
    check_traj (Printf.sprintf "member %d" m) tr trajs.(m)
  done;
  Alcotest.(check int) "steps counted" 16 rep.Ens.steps.(0);
  Alcotest.(check int) "rhs evals" (16 * 4) rep.Ens.rhs_evals.(0)

let test_rkf45_batch_of_one_matches_scalar () =
  let r = compile_model branchy_source in
  let c = r.Om_codegen.Pipeline.compiled in
  let y0 = member_y0 c 0 in
  let bb = Batch.create c ~width:1 in
  let ens = Ens.create ~dim:c.Bb.dim ~f:(Batch.brhs bb) [| y0 |] in
  let rep = Ens.rkf45 ~record:true ens ~t0:0. ~tend:2.5 in
  let trajs = Option.get rep.Ens.trajectories in
  let sys = scalar_sys c in
  let tr = Om_ode.Rk.rkf45 sys ~t0:0. ~y0 ~tend:2.5 in
  check_traj "batch of one" tr trajs.(0);
  Alcotest.(check int) "same accepted steps" sys.counters.steps
    rep.Ens.steps.(0);
  Alcotest.(check int) "same rejections" sys.counters.rejected
    rep.Ens.rejected.(0)

(* ---------- group split/merge ---------- *)

(* Decay with per-member rate carried in the state vector:
   k' = 0, x' = -k x.  A huge k makes one member stiff for RKF45. *)
let decay_source =
  {|model D;
    class C
      variable k init 1.0;
      variable x init 1.0;
      equation der(k) = 0.0;
      equation der(x) = 0.0 - k * x;
    end;
    instance c of C;|}

let decay_member c k =
  let y = Array.make c.Bb.dim 1. in
  let ki =
    match Array.to_list c.Bb.state_names with
    | names ->
        let rec find i = function
          | [] -> invalid_arg "no k state"
          | n :: tl -> if n = "c.k" then i else find (i + 1) tl
        in
        find 0 names
  in
  y.(ki) <- k;
  y

let run_decay_ensemble c ks =
  let n = Array.length ks in
  let bb = Batch.create c ~width:n in
  let ens =
    Ens.create ~dim:c.Bb.dim ~f:(Batch.brhs bb)
      (Array.map (decay_member c) ks)
  in
  Ens.rkf45 ens ~t0:0. ~tend:1.

let test_split_isolates_stiff_member () =
  let r = compile_model decay_source in
  let c = r.Om_codegen.Pipeline.compiled in
  let calm = run_decay_ensemble c [| 1.0; 2.5 |] in
  let mixed = run_decay_ensemble c [| 1.0; 2.5; 4000. |] in
  Alcotest.(check bool) "splits happened" true (mixed.Ens.splits > 0);
  Alcotest.(check int) "merged back" mixed.Ens.splits mixed.Ens.merges;
  Alcotest.(check bool)
    "stiff member rejected steps" true
    (mixed.Ens.rejected.(2) > 0);
  (* The stiff member must not perturb the others: identical bits. *)
  for m = 0 to 1 do
    Array.iteri
      (fun i v ->
        check_bits
          (Printf.sprintf "member %d state %d" m i)
          v
          mixed.Ens.final.(m).(i))
      calm.Ens.final.(m)
  done;
  (* And per-member telemetry for the calm members matches too. *)
  for m = 0 to 1 do
    Alcotest.(check int)
      (Printf.sprintf "member %d steps" m)
      calm.Ens.steps.(m)
      mixed.Ens.steps.(m)
  done

(* ---------- parallel lane dispatch ---------- *)

let test_domains_match_sequential () =
  let r = compile_model branchy_source in
  let c = r.Om_codegen.Pipeline.compiled in
  let n = 8 in
  let y0s = Array.init n (member_y0 c) in
  let run domains =
    let bb = Batch.create c ~width:n in
    let ex = Objectmath.Ensemble_exec.create ~domains bb in
    Fun.protect
      ~finally:(fun () -> Objectmath.Ensemble_exec.shutdown ex)
      (fun () ->
        let ens =
          Ens.create ~dim:c.Bb.dim ~f:(Objectmath.Ensemble_exec.brhs ex) y0s
        in
        Ens.rkf45 ens ~t0:0. ~tend:1.)
  in
  let seq = run 1 and par = run 3 in
  for m = 0 to n - 1 do
    Array.iteri
      (fun i v ->
        check_bits (Printf.sprintf "member %d state %d" m i) v
          par.Ens.final.(m).(i))
      seq.Ens.final.(m)
  done

(* ---------- compile-once sweeps ---------- *)

let sweep_source =
  {|model M; class C parameter k = 1.0; variable x init 1.0;
    equation der(x) = 0.0 - k * x; end; instance c of C;|}

let test_sweep_promotes () =
  match Objectmath.Sweep.prepare ~source:sweep_source ~cls:"C" ~param:"k" with
  | Objectmath.Sweep.Promoted c ->
      let points =
        Objectmath.Sweep.run_compiled c ~values:[ 0.5; 1.; 2.; 4. ] ~tend:1.
          ~metric:(Objectmath.Sweep.final_value "c.x")
          ()
      in
      List.iter
        (fun (p : Objectmath.Sweep.point) ->
          Alcotest.(check (float 1e-4))
            (Printf.sprintf "exp(-%g)" p.value)
            (Float.exp (Float.neg p.value))
            p.metric;
          Alcotest.(check bool) "steps counted" true (p.steps > 0);
          Alcotest.(check bool) "rhs calls counted" true (p.rhs_calls > 0))
        points
  | Objectmath.Sweep.Legacy reason ->
      Alcotest.failf "expected promotion, got legacy: %s" reason

let test_sweep_structural_fallback () =
  (* An instance [with] binding rebinding the swept parameter forces the
     legacy path. *)
  let source =
    {|model M; class C parameter k = 1.0; variable x init 1.0;
      equation der(x) = 0.0 - k * x; end; instance c of C with k = 2.0;|}
  in
  (match Objectmath.Sweep.prepare ~source ~cls:"C" ~param:"k" with
  | Objectmath.Sweep.Legacy _ -> ()
  | Objectmath.Sweep.Promoted _ ->
      Alcotest.fail "expected legacy fallback for structural rebinding");
  (* And Sweep.run still works on it end to end. *)
  let points =
    Objectmath.Sweep.run ~source ~cls:"C" ~param:"k" ~values:[ 1.; 2. ]
      ~tend:1.
      ~metric:(Objectmath.Sweep.final_value "c.x")
      ()
  in
  Alcotest.(check int) "two points" 2 (List.length points)

let test_sweep_unknown_param () =
  Alcotest.check_raises "unknown parameter"
    (Om_lang.Override.Unknown_target "parameter nope of class C") (fun () ->
      ignore
        (Objectmath.Sweep.prepare ~source:sweep_source ~cls:"C" ~param:"nope"))

let test_sweep_matches_legacy_numerics () =
  (* Promoted ensemble path vs per-value LSODA path: same physics. *)
  let values = [ 0.5; 2. ] in
  let metric = Objectmath.Sweep.final_value "c.x" in
  let fast =
    Objectmath.Sweep.run ~source:sweep_source ~cls:"C" ~param:"k" ~values
      ~tend:1. ~metric ()
  in
  List.iter
    (fun (p : Objectmath.Sweep.point) ->
      Alcotest.(check (float 1e-4))
        (Printf.sprintf "analytic exp(-%g)" p.value)
        (Float.exp (Float.neg p.value))
        p.metric)
    fast

(* ---------- Monte Carlo ---------- *)

let test_monte_carlo_deterministic () =
  let mc seed =
    Objectmath.Sweep.monte_carlo ~source:sweep_source
      ~specs:[ ("C", "k", Objectmath.Sweep.Uniform (0.5, 2.)) ]
      ~samples:16 ~seed ~tend:1.
      ~metric:(Objectmath.Sweep.final_value "c.x")
      ()
  in
  let a = mc 42 and b = mc 42 and c = mc 7 in
  Alcotest.(check bool) "promoted path" true a.Objectmath.Sweep.promoted;
  List.iter2
    (fun (x : Objectmath.Sweep.mc_sample) (y : Objectmath.Sweep.mc_sample) ->
      check_bits "same draw" x.draws.(0) y.draws.(0);
      check_bits "same metric" x.mc_metric y.mc_metric)
    a.Objectmath.Sweep.samples b.Objectmath.Sweep.samples;
  Alcotest.(check bool)
    "different seed, different draws" true
    (List.exists2
       (fun (x : Objectmath.Sweep.mc_sample) (y : Objectmath.Sweep.mc_sample) ->
         x.draws.(0) <> y.draws.(0))
       a.Objectmath.Sweep.samples c.Objectmath.Sweep.samples);
  (* Draws respect the distribution's support, and the metric follows:
     exp(-2) <= x(1) <= exp(-0.5). *)
  List.iter
    (fun (s : Objectmath.Sweep.mc_sample) ->
      Alcotest.(check bool) "draw in range" true
        (s.draws.(0) >= 0.5 && s.draws.(0) <= 2.);
      Alcotest.(check bool) "metric in range" true
        (s.mc_metric >= (Float.exp (-2.) -. 1e-3)
        && s.mc_metric <= Float.exp (-0.5) +. 1e-3))
    a.Objectmath.Sweep.samples

let () =
  Alcotest.run "om_ensemble"
    [
      ( "vm_batch",
        [
          Alcotest.test_case "matches scalar per lane" `Quick
            test_batch_matches_scalar;
          Alcotest.test_case "width one" `Quick test_batch_width_one;
          Alcotest.test_case "held register read past a jump" `Quick
            test_batch_held_register_across_jump;
          Alcotest.test_case "subrange execution" `Quick test_batch_subrange;
          Alcotest.test_case "zero allocation" `Quick test_batch_zero_alloc;
        ] );
      ( "batch_backend",
        [
          Alcotest.test_case "matches rhs_fn per lane" `Quick
            test_batch_backend_matches_rhs_fn;
          Alcotest.test_case "zero allocation" `Quick
            test_batch_backend_zero_alloc;
        ] );
      ( "ensemble",
        [
          Alcotest.test_case "rk4 matches scalar runs" `Quick
            test_rk4_matches_scalar_runs;
          Alcotest.test_case "rkf45 batch of one" `Quick
            test_rkf45_batch_of_one_matches_scalar;
          Alcotest.test_case "split isolates stiff member" `Quick
            test_split_isolates_stiff_member;
          Alcotest.test_case "domains match sequential" `Quick
            test_domains_match_sequential;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "compile-once promotion" `Quick
            test_sweep_promotes;
          Alcotest.test_case "structural fallback" `Quick
            test_sweep_structural_fallback;
          Alcotest.test_case "unknown parameter" `Quick
            test_sweep_unknown_param;
          Alcotest.test_case "matches analytic" `Quick
            test_sweep_matches_legacy_numerics;
          Alcotest.test_case "monte carlo deterministic" `Quick
            test_monte_carlo_deterministic;
        ] );
    ]
