exception Unbound = Name_index.Unbound

type env = (string, float) Hashtbl.t

let env_of_list l : env =
  let h = Hashtbl.create (List.length l) in
  List.iter (fun (k, v) -> Hashtbl.replace h k v) l;
  h

let rec eval env (e : Expr.t) =
  match e with
  | Const x -> x
  | Var v -> (
      match Hashtbl.find_opt env v with
      | Some x -> x
      | None -> raise (Unbound v))
  | Add xs -> List.fold_left (fun acc x -> acc +. eval env x) 0. xs
  | Mul xs -> List.fold_left (fun acc x -> acc *. eval env x) 1. xs
  | Pow (b, e') -> Expr.eval_pow (eval env b) (eval env e')
  | Call (f, args) -> Expr.eval_func f (List.map (eval env) args)
  | If (c, t, e') ->
      if Expr.eval_rel c.rel (eval env c.lhs) (eval env c.rhs) then eval env t
      else eval env e'

let eval_fn index e =
  (* Compile the tree once into a closure over the value vector. *)
  let rec build (e : Expr.t) : float array -> float =
    match e with
    | Const x -> fun _ -> x
    | Var v ->
        let i = Name_index.find index v in
        fun ys -> ys.(i)
    | Add xs ->
        let fs = Array.of_list (List.map build xs) in
        fun ys ->
          let acc = ref 0. in
          Array.iter (fun f -> acc := !acc +. f ys) fs;
          !acc
    | Mul xs ->
        let fs = Array.of_list (List.map build xs) in
        fun ys ->
          let acc = ref 1. in
          Array.iter (fun f -> acc := !acc *. f ys) fs;
          !acc
    | Pow (b, ex) ->
        let fb = build b and fe = build ex in
        fun ys -> Expr.eval_pow (fb ys) (fe ys)
    | Call (f, args) -> (
        let fs = List.map build args in
        match fs with
        | [ f1 ] ->
            fun ys -> Expr.eval_func f [ f1 ys ]
        | [ f1; f2 ] -> fun ys -> Expr.eval_func f [ f1 ys; f2 ys ]
        | _ -> fun ys -> Expr.eval_func f (List.map (fun g -> g ys) fs))
    | If (c, t, e') ->
        let fl = build c.lhs and fr = build c.rhs in
        let ft = build t and fe = build e' in
        let rel = c.rel in
        fun ys ->
          if Expr.eval_rel rel (fl ys) (fr ys) then ft ys else fe ys
  in
  build e
