module E = Om_expr.Expr

type task = {
  tid : int;
  label : string;
  roots : (int * E.t) list;
}

type plan = {
  dim : int;
  n_partials : int;
  tasks : task array;
  epilogue : (int * int list) list;
  epilogue_flops : float;
}

let n_slots p = p.dim + p.n_partials

let task_cost t =
  List.fold_left
    (fun acc (_, e) -> acc +. Om_expr.Cost.flops_mean e)
    0. t.roots

(* Additive decomposition of an expression for task splitting.  Beyond
   top-level sums this descends through two meaning-preserving rewrites:

   - a product with a sum factor distributes when the remaining cofactor
     is cheap enough to duplicate;
   - a unilateral conditional [If (c, body, 0)] — the shape of every
     contact force — first absorbs cheap product cofactors
     ([k * If (c, b, 0) = If (c, k * b, 0)]) and then distributes over
     the terms of its taken branch ([If (c, sum t_i, 0) = sum If (c, t_i, 0)]),
     duplicating only the (cheap) condition.

   The cofactor/condition budget caps the recomputation this introduces. *)
let duplication_budget = 80.

let rec split_terms (e : E.t) : E.t list =
  match e with
  | E.Add ts -> List.concat_map split_terms ts
  | E.Mul fs -> (
      (* Pull a unilateral If out of the product. *)
      let ifs, others =
        List.partition
          (function E.If (_, _, E.Const 0.) -> true | _ -> false)
          fs
      in
      match ifs with
      | E.If (c, body, _) :: rest_ifs ->
          split_terms (E.if_ c (E.mul (body :: rest_ifs @ others)) E.zero)
      | _ -> (
          (* Distribute over one sum factor if the cofactor is cheap. *)
          let adds, rest =
            List.partition (function E.Add _ -> true | _ -> false) fs
          in
          match adds with
          | E.Add ts :: other_adds
            when Om_expr.Cost.flops_mean (E.mul (other_adds @ rest))
                 <= duplication_budget ->
              List.concat_map
                (fun t -> split_terms (E.mul (t :: other_adds @ rest)))
                ts
          | _ -> [ e ]))
  | E.If (c, a, E.Const 0.)
    when Om_expr.Cost.flops_mean c.lhs +. Om_expr.Cost.flops_mean c.rhs
         <= duplication_budget -> (
      match split_terms a with
      | [ _ ] -> [ e ]
      | ts -> List.map (fun t -> E.if_ c t E.zero) ts)
  | _ -> [ e ]

(* Split the terms of a sum into chunks of roughly [threshold] cost. *)
let chunk_terms threshold terms =
  let chunks = ref [] and current = ref [] and current_cost = ref 0. in
  List.iter
    (fun term ->
      let c = Om_expr.Cost.flops_mean term in
      if !current <> [] && !current_cost +. c > threshold then begin
        chunks := List.rev !current :: !chunks;
        current := [];
        current_cost := 0.
      end;
      current := term :: !current;
      current_cost := !current_cost +. c)
    terms;
  if !current <> [] then chunks := List.rev !current :: !chunks;
  List.rev !chunks

let partition ?(merge_threshold = 50.) ?(split_threshold = 4000.) assigns =
  let dim = Array.length assigns in
  let next_partial = ref 0 in
  let epilogue = ref [] in
  (* Worker work items: (slot, expr, cost), before grouping. *)
  let items = ref [] in
  Array.iter
    (fun (a : Assignments.t) ->
      let c = Assignments.cost a in
      match if c > split_threshold then split_terms a.rhs else [] with
      | _ :: _ :: _ as terms ->
          let chunks = chunk_terms (split_threshold /. 2.) terms in
          if List.length chunks = 1 then
            items := (a.state_index, a.rhs, c, a.state) :: !items
          else begin
            let slots =
              List.map
                (fun chunk ->
                  let slot = dim + !next_partial in
                  incr next_partial;
                  let e = E.add chunk in
                  items :=
                    (slot, e, Om_expr.Cost.flops_mean e,
                     Printf.sprintf "%s#%d" a.state (slot - dim))
                    :: !items;
                  slot)
                chunks
            in
            epilogue := (a.state_index, slots) :: !epilogue
          end
      | _ -> items := (a.state_index, a.rhs, c, a.state) :: !items)
    assigns;
  let items = List.rev !items in
  (* Group cheap items; expensive ones become singleton tasks. *)
  let tasks = ref [] in
  let flush group =
    match group with
    | [] -> ()
    | _ ->
        let roots = List.rev_map (fun (slot, e, _, _) -> (slot, e)) group in
        let label =
          match group with
          | [ (_, _, _, n) ] -> n
          | (_, _, _, n) :: _ ->
              Printf.sprintf "%s+%d" n (List.length group - 1)
          | [] -> assert false
        in
        tasks := (label, roots) :: !tasks
  in
  let group = ref [] and group_cost = ref 0. in
  List.iter
    (fun ((_, _, c, _) as item) ->
      if c >= merge_threshold then begin
        (* Large enough to stand alone. *)
        flush !group;
        group := [];
        group_cost := 0.;
        flush [ item ]
      end
      else begin
        if !group_cost +. c > merge_threshold && !group <> [] then begin
          flush !group;
          group := [];
          group_cost := 0.
        end;
        group := item :: !group;
        group_cost := !group_cost +. c
      end)
    items;
  flush !group;
  let tasks =
    List.rev !tasks
    |> List.mapi (fun tid (label, roots) -> { tid; label; roots })
    |> Array.of_list
  in
  let epilogue = List.rev !epilogue in
  let epilogue_flops =
    List.fold_left
      (fun acc (_, slots) -> acc +. float_of_int (List.length slots))
      0. epilogue
  in
  { dim; n_partials = !next_partial; tasks; epilogue; epilogue_flops }

let validate p =
  let written = Array.make (n_slots p) false in
  Array.iter
    (fun t ->
      List.iter
        (fun (slot, _) ->
          if slot < 0 || slot >= n_slots p then
            invalid_arg "Partition.validate: slot out of range";
          if written.(slot) then
            invalid_arg
              (Printf.sprintf "Partition.validate: slot %d written twice" slot);
          written.(slot) <- true)
        t.roots)
    p.tasks;
  List.iter
    (fun (deriv, slots) ->
      if deriv < 0 || deriv >= p.dim then
        invalid_arg "Partition.validate: epilogue derivative out of range";
      if written.(deriv) then
        invalid_arg
          (Printf.sprintf
             "Partition.validate: derivative %d both direct and via epilogue"
             deriv);
      written.(deriv) <- true;
      List.iter
        (fun s ->
          if s < p.dim || s >= n_slots p then
            invalid_arg "Partition.validate: epilogue partial out of range")
        slots)
    p.epilogue;
  for i = 0 to p.dim - 1 do
    if not written.(i) then
      invalid_arg
        (Printf.sprintf "Partition.validate: derivative %d never produced" i)
  done
