type instr =
  | Push of float
  | Load of int
  | Add_n of int
  | Mul_n of int
  | Pow_op
  | Call_f of Expr.func
  | Jump of int
  | Jump_if_not of Expr.rel * int

type program = {
  code : instr array;
  stack_size : int;
}

let compile names e =
  let index = Name_index.of_array names in
  (* Growable emission buffer: [If] placeholders are back-patched in
     place, so compilation is linear in the instruction count. *)
  let buf = ref (Array.make 64 Pow_op) in
  let n = ref 0 in
  let emit i =
    if !n >= Array.length !buf then begin
      let bigger = Array.make (2 * Array.length !buf) Pow_op in
      Array.blit !buf 0 bigger 0 !n;
      buf := bigger
    end;
    !buf.(!n) <- i;
    incr n
  in
  (* Emit instructions; returns the maximum stack depth the fragment
     needs, given that it starts from an empty local context and leaves
     exactly one value. *)
  let rec go (e : Expr.t) =
    match e with
    | Const x ->
        emit (Push x);
        1
    | Var v ->
        emit (Load (Name_index.find index v));
        1
    | Add xs -> nary (fun k -> Add_n k) xs
    | Mul xs -> nary (fun k -> Mul_n k) xs
    | Pow (b, ex) ->
        let d1 = go b in
        let d2 = go ex in
        emit Pow_op;
        max d1 (1 + d2)
    | Call (f, args) ->
        let depth =
          List.fold_left
            (fun (i, acc) a ->
              let d = go a in
              (i + 1, max acc (i + d)))
            (0, 0) args
          |> snd
        in
        emit (Call_f f);
        max 1 depth
    | If (c, t, e') ->
        let d1 = go c.lhs in
        let d2 = go c.rhs in
        (* Placeholder jump, patched after the then-branch. *)
        let jz_at = !n in
        emit (Jump_if_not (c.rel, -1));
        let d3 = go t in
        let jmp_at = !n in
        emit (Jump (-1));
        let else_at = !n in
        let d4 = go e' in
        let end_at = !n in
        !buf.(jz_at) <- Jump_if_not (c.rel, else_at);
        !buf.(jmp_at) <- Jump end_at;
        max (max d1 (1 + d2)) (max d3 d4)
  and nary make xs =
    let k = List.length xs in
    let depth =
      List.fold_left
        (fun (i, acc) a ->
          let d = go a in
          (i + 1, max acc (i + d)))
        (0, 0) xs
      |> snd
    in
    emit (make k);
    max 1 depth
  in
  let depth = go e in
  { code = Array.sub !buf 0 !n; stack_size = max 1 depth }

let length p = Array.length p.code
let max_stack p = p.stack_size
let instructions p = Array.copy p.code

let run p env =
  let stack = Array.make p.stack_size 0. in
  let sp = ref 0 in
  let push v =
    stack.(!sp) <- v;
    incr sp
  in
  let pc = ref 0 in
  let code = p.code in
  let n = Array.length code in
  while !pc < n do
    (match code.(!pc) with
    | Push x ->
        push x;
        incr pc
    | Load i ->
        push env.(i);
        incr pc
    | Add_n k ->
        let acc = ref 0. in
        for _ = 1 to k do
          decr sp;
          acc := !acc +. stack.(!sp)
        done;
        push !acc;
        incr pc
    | Mul_n k ->
        let acc = ref 1. in
        for _ = 1 to k do
          decr sp;
          acc := !acc *. stack.(!sp)
        done;
        push !acc;
        incr pc
    | Pow_op ->
        decr sp;
        let e = stack.(!sp) in
        decr sp;
        let b = stack.(!sp) in
        push (Expr.eval_pow b e);
        incr pc
    | Call_f f ->
        let arity = Expr.func_arity f in
        sp := !sp - arity;
        let args = List.init arity (fun i -> stack.(!sp + i)) in
        push (Expr.eval_func f args);
        incr pc
    | Jump target -> pc := target
    | Jump_if_not (rel, target) ->
        decr sp;
        let rhs = stack.(!sp) in
        decr sp;
        let lhs = stack.(!sp) in
        if Expr.eval_rel rel lhs rhs then incr pc else pc := target)
  done;
  stack.(!sp - 1)

let disassemble p =
  let buf = Buffer.create 256 in
  Array.iteri
    (fun i instr ->
      Buffer.add_string buf
        (Printf.sprintf "%4d  %s\n" i
           (match instr with
           | Push x -> Printf.sprintf "push  %g" x
           | Load s -> Printf.sprintf "load  [%d]" s
           | Add_n k -> Printf.sprintf "add   x%d" k
           | Mul_n k -> Printf.sprintf "mul   x%d" k
           | Pow_op -> "pow"
           | Call_f f -> Printf.sprintf "call  %s" (Expr.func_name f)
           | Jump t -> Printf.sprintf "jmp   %d" t
           | Jump_if_not (r, t) ->
               Printf.sprintf "jnot  %s %d" (Expr.rel_name r) t)))
    p.code;
  Buffer.contents buf
