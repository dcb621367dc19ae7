(* Property and regression tests for the sparse Newton path: CSR
   patterns, distance-2 column coloring, colored finite differences,
   the dense-replaying sparse LU, Newton-matrix assembly, and the
   parallel colored-group evaluator.

   The load-bearing claims are all *bitwise*: the sparse path must be a
   drop-in replacement for the dense one, producing Int64-identical
   numbers, so every comparison below goes through
   [Int64.bits_of_float] rather than a tolerance. *)

module S = Om_ode.Sparse
module L = Om_ode.Linalg
module Odesys = Om_ode.Odesys
module Jacobian = Om_ode.Jacobian

let bits = Int64.bits_of_float

(* ---------- generators ---------- *)

(* A random rectangular-free sparse pattern: [n] columns/rows plus a
   per-cell inclusion mask drawn from a density knob. *)
let pattern_gen =
  QCheck.Gen.(
    let* n = int_range 2 20 in
    let* keep = int_range 1 6 in
    let* mask = array_size (return (n * n)) (int_range 0 9) in
    let entries = ref [] in
    for i = n - 1 downto 0 do
      for j = n - 1 downto 0 do
        if mask.((i * n) + j) < keep then entries := (i, j) :: !entries
      done
    done;
    return (n, !entries))

let arbitrary_pattern =
  QCheck.make
    ~print:(fun (n, es) -> Printf.sprintf "n=%d nnz<=%d" n (List.length es))
    pattern_gen

(* A random sparse matrix: pattern with a full diagonal (so random
   values are usually nonsingular, and the Newton merge is the
   identity) plus values in [-5, 5]. *)
let matrix_gen =
  QCheck.Gen.(
    let* n, entries = pattern_gen in
    let pat =
      S.pattern_of_entries ~rows:n ~cols:n
        (List.init n (fun i -> (i, i)) @ entries)
    in
    let* v = array_size (return (S.nnz pat)) (float_range (-5.) 5.) in
    let* b = array_size (return n) (float_range (-5.) 5.) in
    return (pat, v, b))

let arbitrary_matrix =
  QCheck.make
    ~print:(fun (p, _, _) ->
      Printf.sprintf "n=%d nnz=%d" p.S.rows (S.nnz p))
    matrix_gen

let sparse_of (pat, v) =
  let sm = S.create pat in
  Array.blit v 0 sm.S.v 0 (S.nnz pat);
  sm

(* ---------- coloring ---------- *)

(* Validity: the partition into groups is consistent with the color
   array, and no two columns sharing a row share a color (the distance-2
   property that makes one RHS evaluation per group decompressible). *)
let prop_coloring_valid =
  QCheck.Test.make ~name:"coloring is a valid distance-2 partition"
    ~count:300 arbitrary_pattern (fun (n, entries) ->
      let pat = S.pattern_of_entries ~rows:n ~cols:n entries in
      let c = S.color_columns pat in
      let ok_range =
        Array.for_all (fun col -> col >= 0 && col < c.S.ncolors) c.S.color
      in
      let ok_groups =
        c.S.ncolors = Array.length c.S.groups
        && Array.for_all (fun g -> Array.length g > 0) c.S.groups
        && Array.to_list c.S.groups
           |> List.concat_map Array.to_list
           |> List.sort compare
           = List.init n Fun.id
        && Array.for_all2
             (fun g color -> Array.for_all (fun j -> c.S.color.(j) = color) g)
             c.S.groups
             (Array.init c.S.ncolors Fun.id)
      in
      let ok_distance2 =
        (* walk each row; its columns must have pairwise distinct colors *)
        let ok = ref true in
        for i = 0 to pat.S.rows - 1 do
          let seen = Hashtbl.create 8 in
          for k = pat.S.row_ptr.(i) to pat.S.row_ptr.(i + 1) - 1 do
            let col = c.S.color.(pat.S.col_ind.(k)) in
            if Hashtbl.mem seen col then ok := false;
            Hashtbl.replace seen col ()
          done
        done;
        !ok
      in
      ok_range && ok_groups && ok_distance2)

(* On a banded pattern the greedy ordering achieves the analytic bound:
   at most ml + mu + 1 colors (CPR on band matrices). *)
let prop_banded_color_bound =
  QCheck.Test.make ~name:"banded pattern colors <= ml + mu + 1" ~count:200
    (QCheck.make
       ~print:(fun (n, ml, mu) -> Printf.sprintf "n=%d ml=%d mu=%d" n ml mu)
       QCheck.Gen.(
         let* n = int_range 2 40 in
         let* ml = int_range 0 3 in
         let* mu = int_range 0 3 in
         return (n, ml, mu)))
    (fun (n, ml, mu) ->
      let entries = ref [] in
      for i = 0 to n - 1 do
        for j = max 0 (i - ml) to min (n - 1) (i + mu) do
          entries := (i, j) :: !entries
        done
      done;
      let pat = S.pattern_of_entries ~rows:n ~cols:n !entries in
      (S.color_columns pat).S.ncolors <= ml + mu + 1)

(* ---------- colored finite differences ---------- *)

(* A synthetic RHS that reads exactly the structural entries of its
   pattern (deterministic nonlinear coefficients), so forward
   differences outside the pattern are exactly +0 and the colored
   compression is loss-free. *)
let structural_rhs (pat : S.pattern) t y ydot =
  for i = 0 to pat.rows - 1 do
    let acc = ref (Float.sin t) in
    for k = pat.row_ptr.(i) to pat.row_ptr.(i + 1) - 1 do
      let j = pat.col_ind.(k) in
      let c = float_of_int ((((i * 7) + (j * 13)) mod 11) - 5) /. 7. in
      acc := !acc +. (c *. Float.sin y.(j)) +. (0.1 *. y.(j) *. y.(j))
    done;
    ydot.(i) <- !acc
  done

let prop_colored_fd_bitwise =
  QCheck.Test.make
    ~name:"colored fd decompresses to dense forward differences bitwise"
    ~count:200 arbitrary_pattern (fun (n, entries) ->
      let pat = S.pattern_of_entries ~rows:n ~cols:n entries in
      let sys = Odesys.make ~sparsity:pat ~dim:n (structural_rhs pat) in
      let ctx =
        match Jacobian.plan ~jac_mode:Odesys.Sparse sys with
        | Jacobian.Sparse_plan c -> c
        | _ -> QCheck.Test.fail_report "no sparse plan"
      in
      let y = Array.init n (fun i -> Float.cos (float_of_int i)) in
      Jacobian.sparse_eval_into sys ctx 0.3 y;
      let num = Jacobian.numeric sys 0.3 y in
      let ok_structural = ref true and ok_zero = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if S.mem pat i j then (
            let k = S.index pat i j in
            if bits ctx.Jacobian.sj.S.v.(k) <> bits num.(i).(j) then
              ok_structural := false)
          else if bits num.(i).(j) <> bits 0. then ok_zero := false
        done
      done;
      !ok_structural && !ok_zero)

(* The fd cost model the bench and the report advertise: one Jacobian
   evaluation costs exactly [colors + 1] RHS calls. *)
let test_fd_evals_equals_colors_plus_one () =
  let n = 20 in
  let entries = ref [] in
  for i = 0 to n - 1 do
    for j = max 0 (i - 1) to min (n - 1) (i + 1) do
      entries := (i, j) :: !entries
    done
  done;
  let pat = S.pattern_of_entries ~rows:n ~cols:n !entries in
  let sys = Odesys.make ~sparsity:pat ~dim:n (structural_rhs pat) in
  let ctx =
    match Jacobian.plan ~jac_mode:Odesys.Sparse sys with
    | Jacobian.Sparse_plan c -> c
    | _ -> Alcotest.fail "no sparse plan"
  in
  Alcotest.(check int) "tridiagonal colors" 3 ctx.Jacobian.coloring.S.ncolors;
  Odesys.reset_counters sys;
  let y = Array.make n 1. in
  Jacobian.sparse_eval_into sys ctx 0. y;
  Alcotest.(check int) "jac_calls" 1 sys.Odesys.counters.Odesys.jac_calls;
  Alcotest.(check int) "rhs calls = colors + 1" 4
    sys.Odesys.counters.Odesys.rhs_calls

(* ---------- sparse LU vs dense LU ---------- *)

let prop_sparse_lu_bitwise =
  QCheck.Test.make
    ~name:"sparse LU solve bitwise equals dense (incl. Singular parity)"
    ~count:300 arbitrary_matrix (fun (pat, v, b) ->
      let sm = sparse_of (pat, v) in
      let dense = S.to_dense sm in
      let s_res =
        try Ok (S.lu_solve (S.lu_factor sm) b) with L.Singular k -> Error k
      in
      let d_res =
        try Ok (L.lu_solve (L.lu_factor dense) b)
        with L.Singular k -> Error k
      in
      match (s_res, d_res) with
      | Ok xs, Ok xd -> Array.for_all2 (fun a c -> bits a = bits c) xs xd
      | Error a, Error c -> a = c
      | _ -> false)

let test_singular_index_parity () =
  (* An exactly zero pivot column: both factorisations must name the
     same pivot step. *)
  let dense = [| [| 1.; 0.; 2. |]; [| 3.; 0.; 4. |]; [| 5.; 0.; 6. |] |] in
  let sm = S.of_dense ~tol:(-1.) dense in
  let d_idx =
    try
      ignore (L.lu_factor (Array.map Array.copy dense));
      -1
    with L.Singular k -> k
  in
  let s_idx = try ignore (S.lu_factor sm); -1 with L.Singular k -> k in
  Alcotest.(check bool) "dense is singular" true (d_idx >= 0);
  Alcotest.(check int) "same pivot step" d_idx s_idx

(* ---------- refactorisation by pivot-sequence replay ---------- *)

(* Replays and fallbacks seen by [prop_refactor_bitwise]; the property
   is only meaningful if both happened. *)
let replay_hits = ref 0
let replay_fallbacks = ref 0

(* A random matrix followed by new value sets on its pattern: a relative
   jitter (pivots usually hold, so the replay hits), fresh values (pivots
   usually move, forcing the fallback), or zeroed entries (singular
   matrices). *)
let refactor_gen =
  QCheck.Gen.(
    let* pat, v, b = matrix_gen in
    let nz = S.nnz pat in
    let value_set =
      let* kind = int_range 0 2 in
      match kind with
      | 0 ->
          let* jit = array_size (return nz) (float_range 0.9 1.1) in
          return (`Jitter jit)
      | 1 ->
          let* fresh = array_size (return nz) (float_range (-5.) 5.) in
          return (`Fresh fresh)
      | _ ->
          let* keep = array_size (return nz) (int_range 0 3) in
          return (`Zero keep)
    in
    let* sets = list_size (int_range 1 4) value_set in
    return (pat, v, b, sets))

let arbitrary_refactor =
  QCheck.make
    ~print:(fun (p, _, _, sets) ->
      Printf.sprintf "n=%d nnz=%d sets=%d" p.S.rows (S.nnz p) (List.length sets))
    refactor_gen

let solve_or_singular factor b =
  try Ok (S.lu_solve (factor ()) b) with L.Singular k -> Error k

let same_result a c =
  match (a, c) with
  | Ok xa, Ok xc -> Array.for_all2 (fun p q -> bits p = bits q) xa xc
  | Error ka, Error kc -> ka = kc
  | _ -> false

let prop_refactor_bitwise =
  QCheck.Test.make
    ~name:"refactor replay bitwise equals a full lu_factor (incl. Singular)"
    ~count:400 arbitrary_refactor (fun (pat, v, b, sets) ->
      let ws = S.refactor_create () in
      let cur = Array.copy v in
      let step () =
        let m = sparse_of (pat, cur) in
        let r0 = S.refactor_replays ws and f0 = S.refactor_full ws in
        let got = solve_or_singular (fun () -> S.lu_refactor ws m) b in
        let want = solve_or_singular (fun () -> S.lu_factor m) b in
        replay_hits := !replay_hits + (S.refactor_replays ws - r0);
        if S.refactor_full ws > f0 && f0 > 0 then incr replay_fallbacks;
        same_result got want
      in
      let first = step () in
      List.fold_left
        (fun ok set ->
          (match set with
          | `Jitter jit -> Array.iteri (fun k x -> cur.(k) <- v.(k) *. x) jit
          | `Fresh fresh -> Array.blit fresh 0 cur 0 (Array.length fresh)
          | `Zero keep ->
              Array.iteri (fun k kp -> cur.(k) <- (if kp = 0 then 0. else v.(k))) keep);
          step () && ok)
        first sets)

let test_refactor_exercised () =
  Alcotest.(check bool) "replays hit" true (!replay_hits > 0);
  Alcotest.(check bool) "fallbacks fired" true (!replay_fallbacks > 0)

(* A pivot change on a 2x2: the first factorisation pivots on row 1,
   the new values make row 0 the larger, so the replay must fall back;
   a rescaled matrix keeps the pivots and replays. *)
let test_refactor_fallback_and_hit () =
  let pat = S.pattern_of_entries ~rows:2 ~cols:2 [ (0, 0); (0, 1); (1, 0); (1, 1) ] in
  let m v = sparse_of (pat, v) in
  let ws = S.refactor_create () in
  let b = [| 1.; -2. |] in
  let check label v =
    let got = S.lu_solve (S.lu_refactor ws (m v)) b in
    let want = L.lu_solve (L.lu_factor (S.to_dense (m v))) b in
    Alcotest.(check bool) label true (Array.for_all2 (fun p q -> bits p = bits q) got want)
  in
  check "first" [| 1.; 2.; 3.; 4. |];
  check "pivot moves" [| 5.; 2.; 3.; 4. |];
  Alcotest.(check int) "two full factorisations" 2 (S.refactor_full ws);
  Alcotest.(check int) "no replay yet" 0 (S.refactor_replays ws);
  check "pivots hold" [| 10.; 4.; 6.; 8. |];
  Alcotest.(check int) "one replay" 1 (S.refactor_replays ws);
  (* A zero pivot under replay reports the dense step, like lu_factor. *)
  let z = m [| 0.; 2.; 0.; 4. |] in
  let want = try ignore (S.lu_factor z); -1 with L.Singular k -> k in
  let got = try ignore (S.lu_refactor ws z); -1 with L.Singular k -> k in
  Alcotest.(check int) "singular step" want got

(* ---------- allocation-free Newton step ---------- *)

(* A tridiagonal linear RHS that allocates nothing itself. *)
let tridiag_system n =
  let entries = ref [] in
  for i = n - 1 downto 0 do
    if i + 1 < n then entries := (i, i + 1) :: !entries;
    entries := (i, i) :: !entries;
    if i > 0 then entries := (i, i - 1) :: !entries
  done;
  let pat = S.pattern_of_entries ~rows:n ~cols:n !entries in
  let f _t y ydot =
    for i = 0 to n - 1 do
      let l = if i > 0 then y.(i - 1) else 0. in
      let r = if i + 1 < n then y.(i + 1) else 0. in
      ydot.(i) <- 100. *. (l -. (2. *. y.(i)) +. r)
    done
  in
  Odesys.make ~sparsity:pat ~dim:n f

(* Words allocated by one replayed factorisation plus one Newton
   iteration, after a first stage has recorded the trace. *)
let newton_words n =
  let sys = tridiag_system n in
  let ctx =
    match Jacobian.plan ~jac_mode:Odesys.Sparse sys with
    | Jacobian.Sparse_plan c -> c
    | _ -> Alcotest.fail "sparse plan expected"
  in
  let ws = Om_ode.Bdf.newton_ws (Jacobian.Sparse_plan ctx) sys in
  let y = Array.init n (fun i -> Float.sin (float_of_int i)) in
  let rhs_const = Array.copy y in
  let stage () =
    Om_ode.Bdf.solve_implicit_stage_with ws sys ~tol:infinity ~max_iter:1
      ~t_next:0.1 ~beta_h:1e-3 ~rhs_const ~alpha0:1.5 y
  in
  stage ();
  let replays = S.refactor_replays ctx.refactor in
  let minor0, promoted0, major0 = Gc.counters () in
  stage ();
  let minor1, promoted1, major1 = Gc.counters () in
  Alcotest.(check int) "replayed" (replays + 1) (S.refactor_replays ctx.refactor);
  (minor1 -. minor0) +. (major1 -. major0) -. (promoted1 -. promoted0)

let test_newton_allocation_flat () =
  let small = newton_words 200 and large = newton_words 2000 in
  Alcotest.(check (float 0.)) "same words at n=200 and n=2000" small large

(* ---------- Newton assembly ---------- *)

let prop_newton_assemble_bitwise =
  QCheck.Test.make
    ~name:"newton_assemble bitwise equals dense alpha*I - beta*J"
    ~count:300
    (QCheck.make
       ~print:(fun ((p, _, _), _, _) ->
         Printf.sprintf "n=%d nnz=%d" p.S.rows (S.nnz p))
       QCheck.Gen.(
         let* m = matrix_gen in
         let* alpha = float_range (-3.) 3. in
         let* beta = float_range (-3.) 3. in
         return (m, alpha, beta)))
    (fun ((pat, v, _), alpha, beta) ->
      let sm = sparse_of (pat, v) in
      let n = pat.S.rows in
      let nt = S.make_newton pat in
      S.newton_assemble nt ~jac:sm ~alpha ~beta;
      let got = S.to_dense (S.newton_matrix nt) in
      let j = S.to_dense sm in
      let ok = ref true in
      for i = 0 to n - 1 do
        for k = 0 to n - 1 do
          let want =
            (if i = k then alpha else 0.) -. (beta *. j.(i).(k))
          in
          (* Outside the merged pattern the dense formula can produce a
             signed zero the CSR storage has no slot for; those
             positions are structurally impossible to disagree on
             magnitude, so compare values there and bits inside. *)
          if S.mem (S.newton_matrix nt).S.pat i k then (
            if bits got.(i).(k) <> bits want then ok := false)
          else if got.(i).(k) <> want then ok := false
        done
      done;
      !ok)

(* The merged pattern built straight from the CSR rows, on patterns
   that miss some diagonal entries (the property above always has a full
   diagonal): it must be J plus the diagonal, with every J slot and
   every diagonal slot mapped to the right M slot. *)
let prop_newton_pattern_merge =
  QCheck.Test.make ~name:"make_newton merges the diagonal into any pattern"
    ~count:300 arbitrary_pattern (fun (n, entries) ->
      let jpat = S.pattern_of_entries ~rows:n ~cols:n entries in
      let want =
        S.pattern_of_entries ~rows:n ~cols:n
          (List.init n (fun i -> (i, i)) @ entries)
      in
      let sm = S.create jpat in
      Array.iteri (fun k _ -> sm.S.v.(k) <- float_of_int (k + 1)) sm.S.v;
      let nt = S.make_newton jpat in
      S.newton_assemble nt ~jac:sm ~alpha:2. ~beta:0.5;
      let m = S.newton_matrix nt in
      let ok = ref (m.S.pat = want) in
      for i = 0 to n - 1 do
        for k = 0 to n - 1 do
          let expect = (if i = k then 2. else 0.) -. (0.5 *. S.get sm i k) in
          if S.get m i k <> expect then ok := false
        done
      done;
      !ok)

(* ---------- parallel colored-group evaluation ---------- *)

(* [Par_jac] with caller-supplied pure closures: the ticket-scheduled
   parallel batch must be bitwise the sequential loop, across repeated
   reuse of the evaluator. *)
let test_par_jac_matches_sequential () =
  let dim = 5 in
  let f t y out =
    for i = 0 to dim - 1 do
      out.(i) <- Float.sin (t +. (y.(i) *. float_of_int (i + 1))) +. y.((i + 1) mod dim)
    done
  in
  let pj = Om_parallel.Par_jac.create_with [| f; f; f |] in
  Fun.protect
    ~finally:(fun () -> Om_parallel.Par_jac.shutdown pj)
    (fun () ->
      Alcotest.(check int) "workers" 3 (Om_parallel.Par_jac.nworkers pj);
      for round = 1 to 3 do
        let npts = 7 in
        let pts =
          Array.init npts (fun p ->
              Array.init dim (fun i ->
                  Float.cos (float_of_int ((p * dim) + i + round))))
        in
        let expected = Array.init npts (fun _ -> Array.make dim 0.) in
        Array.iteri (fun p pt -> f 0.25 pt expected.(p)) pts;
        let got = Array.init npts (fun _ -> Array.make dim 0.) in
        Om_parallel.Par_jac.batch pj 0.25 pts got;
        Alcotest.(check bool)
          (Printf.sprintf "round %d bitwise" round)
          true
          (Array.for_all2
             (fun a b -> Array.for_all2 (fun x y -> bits x = bits y) a b)
             expected got)
      done)

(* ---------- pattern plumbing ---------- *)

let test_pattern_merge_and_index () =
  let pat =
    S.pattern_of_entries ~rows:3 ~cols:3
      [ (0, 2); (0, 0); (0, 2); (2, 1) ]
  in
  Alcotest.(check int) "duplicates merged" 3 (S.nnz pat);
  Alcotest.(check bool) "mem hit" true (S.mem pat 0 2);
  Alcotest.(check bool) "mem miss" false (S.mem pat 1 1);
  Alcotest.(check int) "index of miss" (-1) (S.index pat 1 1);
  Alcotest.(check bool) "ascending columns" true
    (pat.S.col_ind = [| 0; 2; 1 |])

let prop_dense_roundtrip =
  QCheck.Test.make ~name:"of_dense . to_dense is the identity" ~count:200
    arbitrary_matrix (fun (pat, v, _) ->
      let sm = sparse_of (pat, v) in
      let back = S.of_dense ~tol:(-1.) (S.to_dense sm) in
      (* [tol = -1] keeps explicit zeros, but of_dense cannot recover
         structural slots holding 0. exactly; compare as dense. *)
      S.to_dense back = S.to_dense sm)

let () =
  let q = Qcheck_seed.to_alcotest in
  Alcotest.run "om_sparse"
    [
      ( "coloring",
        [
          q prop_coloring_valid;
          q prop_banded_color_bound;
          Alcotest.test_case "fd evals = colors + 1" `Quick
            test_fd_evals_equals_colors_plus_one;
        ] );
      ("fd", [ q prop_colored_fd_bitwise ]);
      ( "lu",
        [
          q prop_sparse_lu_bitwise;
          Alcotest.test_case "singular index parity" `Quick
            test_singular_index_parity;
        ] );
      ( "refactor",
        [
          q prop_refactor_bitwise;
          Alcotest.test_case "replay and fallback exercised" `Quick
            test_refactor_exercised;
          Alcotest.test_case "fallback on pivot change" `Quick
            test_refactor_fallback_and_hit;
          Alcotest.test_case "newton step allocation flat in n" `Quick
            test_newton_allocation_flat;
        ] );
      ("newton", [ q prop_newton_assemble_bitwise; q prop_newton_pattern_merge ]);
      ( "par_jac",
        [
          Alcotest.test_case "parallel batch bitwise" `Quick
            test_par_jac_matches_sequential;
        ] );
      ( "pattern",
        [
          Alcotest.test_case "merge and index" `Quick
            test_pattern_merge_and_index;
          q prop_dense_roundtrip;
        ] );
    ]
