type mode = Adams_mode | Bdf_mode

type result = {
  trajectory : Odesys.trajectory;
  switches : (float * mode) list;
  final_mode : mode;
}

let pp_mode ppf = function
  | Adams_mode -> Fmt.string ppf "adams"
  | Bdf_mode -> Fmt.string ppf "bdf"

(* Euclidean distance ||a - b||, summed in index order. *)
let dist2 a b =
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  Float.sqrt !acc

(* Local Lipschitz estimate ||f(a) - f(b)|| / ||a - b||. *)
let lipschitz fa fb ya yb =
  let ndy = dist2 ya yb in
  if ndy < 1e-300 then 0. else dist2 fa fb /. ndy

(* Weighted RMS norm of [a - b] under the error weights
   [atol + rtol * max |y_i| |a_i|] (see {!Linalg.wrms_norm}). *)
let weighted_gap ~atol ~rtol y a b =
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    let acc = ref 0. in
    for i = 0 to n - 1 do
      let w = atol +. (rtol *. Float.max (Float.abs y.(i)) (Float.abs a.(i))) in
      let r = (a.(i) -. b.(i)) /. w in
      acc := !acc +. (r *. r)
    done;
    Float.sqrt (!acc /. float_of_int n)
  end

let integrate ?(atol = 1e-8) ?(rtol = 1e-6) ?h0 ?(max_steps = 2_000_000)
    ?(stiffness_window = 5) ?(start_mode = Adams_mode) ?(max_retries = 8)
    ?jac_mode ?jac_batch (sys : Odesys.t) ~t0 ~y0 ~tend =
  let n = sys.dim in
  (* The Newton workspace (and the Jacobian plan's sparse workspace) is
     built lazily on the first BDF attempt: purely non-stiff runs never
     pay for it. *)
  let newton =
    lazy (Bdf.newton_ws (Jacobian.plan ?jac_mode ?batch:jac_batch sys) sys)
  in
  let span = tend -. t0 in
  if span <= 0. then invalid_arg "Lsoda.integrate: tend <= t0";
  let h = ref (match h0 with Some h -> h | None -> span /. 1000.) in
  let h_min = span *. 1e-14 in
  let mode = ref start_mode in
  let switches = ref [] in
  let t = ref t0 in
  (* The accepted state and its derivative, plus one step of history for
     the order-2 formulas ([has_prev]).  An attempt writes its candidate
     into [y_new]/[f_new]; accepting rotates the three buffers, so no
     step allocates state vectors. *)
  let y = ref (Array.copy y0) in
  let f_now = ref (Odesys.rhs sys t0 y0) in
  let y_prev = ref (Array.make n 0.) and f_prev = ref (Array.make n 0.) in
  let has_prev = ref false in
  let y_new = ref (Array.make n 0.) and f_new = ref (Array.make n 0.) in
  (* Per-attempt scratch: the predictor, f at the predictor, and the
     BDF history combination. *)
  let pred = Array.make n 0. and fpred = Array.make n 0. in
  let rhs_const = Array.make n 0. in
  let h_prev = ref !h in
  let ts = ref [ t0 ] and ys = ref [ Array.copy y0 ] in
  let stiff_score = ref 0 in
  let nonstiff_score = ref 0 in
  let cooldown = ref 0 in
  let steps = ref 0 in
  let switch_to m =
    if !mode <> m then begin
      mode := m;
      switches := (!t, m) :: !switches;
      stiff_score := 0;
      nonstiff_score := 0;
      (* Hysteresis: forbid another switch for a while, otherwise the
         driver thrashes on problems that ride the stiffness boundary. *)
      cooldown := 25;
      (* Restart as a one-step method after a switch. *)
      has_prev := false
    end
  in
  (* Take the candidate in [y_new]/[f_new]: previous <- current <- new,
     and the old previous buffers become the next candidate's. *)
  let accept h_used =
    if !cooldown > 0 then decr cooldown;
    let yp = !y_prev and fp = !f_prev in
    y_prev := !y;
    f_prev := !f_now;
    has_prev := true;
    y := !y_new;
    f_now := !f_new;
    y_new := yp;
    f_new := fp;
    h_prev := h_used;
    t := !t +. h_used;
    sys.counters.steps <- sys.counters.steps + 1;
    ts := !t :: !ts;
    ys := Array.copy !y :: !ys
  in
  (* --- One attempted Adams (ABM2 PECE) step; returns the stiffness
     probe and the error measure, the corrector in [y_new]/[f_new]. --- *)
  let adams_attempt h' =
    let r = h' /. !h_prev in
    let y = !y and f = !f_now in
    if !has_prev then begin
      (* Variable-step AB2 predictor. *)
      let fp = !f_prev and c0 = 1. +. (r /. 2.) and c1 = r /. 2. in
      for i = 0 to n - 1 do
        pred.(i) <- y.(i) +. (h' *. ((c0 *. f.(i)) -. (c1 *. fp.(i))))
      done
    end
    else
      for i = 0 to n - 1 do
        pred.(i) <- y.(i) +. (h' *. f.(i))
      done;
    Odesys.rhs_into sys (!t +. h') pred fpred;
    (* Trapezoidal corrector. *)
    let corr = !y_new and fcorr = !f_new and hh = h' /. 2. in
    for i = 0 to n - 1 do
      corr.(i) <- y.(i) +. (hh *. (f.(i) +. fpred.(i)))
    done;
    Odesys.rhs_into sys (!t +. h') corr fcorr;
    (* Milne estimate: for the AB2/AM2 pair the local error of the
       corrector is about 1/6 of the predictor-corrector gap. *)
    let err = weighted_gap ~atol ~rtol y corr pred /. 6. in
    (* Stiffness probe: the predictor-corrector gap points along the
       dominant (stiffest) eigendirection, so this difference quotient
       approximates the magnitude of the stiff eigenvalue. *)
    let l = lipschitz fpred fcorr pred corr in
    (l, err)
  in
  (* --- One attempted BDF step (order 2 when history exists); the
     solution in [y_new]/[f_new]. --- *)
  let bdf_attempt h' =
    let t_next = !t +. h' in
    let y = !y and f = !f_now in
    for i = 0 to n - 1 do
      pred.(i) <- y.(i) +. (h' *. f.(i))
    done;
    let alpha0, rhs_const =
      if !has_prev then begin
        let yp = !y_prev in
        let tau = h' /. !h_prev in
        let alpha0 = (1. +. (2. *. tau)) /. (1. +. tau) in
        let c1 = 1. +. tau in
        let c2 = Float.neg (tau *. tau) /. (1. +. tau) in
        for i = 0 to n - 1 do
          rhs_const.(i) <- (c1 *. y.(i)) +. (c2 *. yp.(i))
        done;
        (alpha0, rhs_const)
      end
      else (1., y)
    in
    let y_sol = !y_new and f_sol = !f_new in
    Array.blit pred 0 y_sol 0 n;
    match
      Bdf.solve_implicit_stage_with (Lazy.force newton) sys ~tol:1e-8
        ~max_iter:12 ~t_next ~beta_h:h' ~rhs_const ~alpha0 y_sol
    with
    | exception Om_guard.Om_error.Error (Om_guard.Om_error.Newton_failure _)
      ->
        None
    | () ->
        Odesys.rhs_into sys t_next y_sol f_sol;
        (* The explicit-Euler predictor gap overestimates the BDF2 error;
           the 1/3 factor matches the constant-step error constants. *)
        let err = weighted_gap ~atol ~rtol y y_sol pred /. 3. in
        (* Same stiff-eigendirection probe as the Adams path. *)
        Odesys.rhs_into sys t_next pred fpred;
        let l = lipschitz fpred f_sol pred y_sol in
        Some (l, err)
  in
  (* Consecutive guarded-fault retries at the current time; reset by any
     attempt that runs to completion (accepted or error-rejected). *)
  let consec = ref 0 in
  let step_failure step retries reason =
    Om_guard.Om_error.(
      error (Step_failure { solver = "lsoda"; time = !t; step; retries; reason }))
  in
  (* Backoff ladder shared by both modes: a guarded runtime fault inside
     an attempt is retried at the same step first (transient faults —
     injected poisons fire once — then recover bitwise-identically), then
     with halved steps, bounded by [max_retries]. *)
  let retry_fault h' cause =
    (* Cancellations and deadline overruns abort at once: retrying
       cannot unexpire a deadline (Om_error.retryable). *)
    if not (Om_guard.Om_error.retryable cause) then
      Om_guard.Om_error.error cause;
    sys.counters.retries <- sys.counters.retries + 1;
    incr consec;
    if !consec > max_retries then
      step_failure h' (!consec - 1) (Om_guard.Om_error.to_string cause);
    if !consec > 1 then h := h' /. 2.
  in
  while !t < tend -. 1e-12 do
    incr steps;
    if !steps > max_steps then
      step_failure !h sys.counters.retries "step budget exhausted";
    if !h < h_min then
      step_failure !h sys.counters.retries "step size underflow";
    let h' = Float.min !h (tend -. !t) in
    match !mode with
    | Adams_mode -> (
        match adams_attempt h' with
        | exception Om_guard.Om_error.Error cause -> retry_fault h' cause
        | l, err ->
            consec := 0;
            if err <= 1. then begin
              (* Stiffness monitor: the error-controlled step wants to grow
                 but h·L pins us at the stability boundary. *)
              if h' *. l > 0.8 then incr stiff_score
              else if h' *. l < 0.5 then stiff_score := 0;
              accept h';
              if !stiff_score >= stiffness_window && !cooldown = 0 then
                switch_to Bdf_mode
            end
            else sys.counters.rejected <- sys.counters.rejected + 1;
            let factor =
              if err = 0. then 4.
              else
                Float.min 4.
                  (Float.max 0.1 (0.9 /. Float.sqrt (Float.sqrt err)))
            in
            (* Never let the Adams step grow far past the stability bound;
               LSODA caps the non-stiff step similarly. *)
            h := h' *. factor)
    | Bdf_mode -> (
        match bdf_attempt h' with
        | exception Om_guard.Om_error.Error cause -> retry_fault h' cause
        | None ->
            (* Newton failure: retry with a smaller step. *)
            consec := 0;
            sys.counters.rejected <- sys.counters.rejected + 1;
            h := h' /. 4.
        | Some (l, err) ->
            consec := 0;
            if err <= 1. then begin
              if h' *. l < 0.2 then incr nonstiff_score
              else nonstiff_score := 0;
              accept h';
              if !nonstiff_score >= 2 * stiffness_window && !cooldown = 0
              then switch_to Adams_mode
            end
            else sys.counters.rejected <- sys.counters.rejected + 1;
            let factor =
              if err = 0. then 4.
              else
                Float.min 4.
                  (Float.max 0.1 (0.9 /. Float.sqrt (Float.sqrt err)))
            in
            h := h' *. factor)
  done;
  {
    trajectory =
      {
        Odesys.ts = Array.of_list (List.rev !ts);
        states = Array.of_list (List.rev !ys);
      };
    switches = List.rev !switches;
    final_mode = !mode;
  }
