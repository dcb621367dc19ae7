(* Batched SoA interpreter over the register VM's instruction stream.

   A batch instance holds one [float array] of length [width] per
   virtual register (structure of arrays, batch-major), so one
   instruction decode drives the whole batch: the per-op dispatch cost
   of the scalar VM is amortised over [width] lanes and the inner loops
   are tight float-array kernels.

   Per lane, the arithmetic is copied verbatim from {!Vm.loop} —
   including [Expr.eval_pow], the inlined [Float.min]/[Float.max]
   semantics and the two-rounding [fma] — so lane [j] of a batch run is
   Int64-bitwise identical to a scalar run of the same program over
   lane [j]'s environment.  Batch width 1 therefore reproduces the
   scalar VM exactly.

   Control flow ([If] lowering: forward-only [jnot]/[jmp] with a join
   register, see {!Vm}) is linearised SIMT-style: the program counter
   advances straight through the code, and a per-lane wake-up counter
   [sleep] masks lanes out of the instructions of the branch they are
   not taking.  At a [jnot] whose condition fails on a lane, the lane
   sleeps until the jump target; at a [jmp], every awake lane sleeps
   until the target.  Because jumps are forward-only and structured,
   every lane executes exactly the instruction subsequence the scalar
   interpreter would, in the same order.  Programs without jumps take a
   separate unmasked fast path, and the hybrid [drive] loop brings that
   fast path to branchy programs whenever the whole batch agrees.

   [create] conditions the instruction stream for batched execution
   (virtual-register compaction, load/consumer fusion — see the passes
   below); both rewrites preserve per-lane arithmetic bitwise.

   All mutable state — register rows, the sleep array, env/out columns —
   is indexed by lane, so running disjoint lane ranges of the same
   instance from different domains is safe (the parallel ensemble
   driver relies on this). *)

type t = {
  code : int array;
  consts : float array;
  width : int;
  nregs : int;
  result : int;
  env_size : int;
  out_size : int;
  regs : float array array; (* nregs rows of length width *)
  sleep : int array; (* per-lane wake-up pc; used only when has_jumps *)
  has_jumps : bool;
  njump : int array; (* per op: code offset of the next jmp/jnot at or
                        after it (code length if none); drives the
                        hybrid masked/unmasked execution *)
  mutable seen_env : float array array;
      (* last env/out validated by [exec]: callers like Batch_backend
         pass the same arrays on every call, so the O(env_size) column
         checks are skipped when both match physically *)
  mutable seen_out : float array array;
}

let () =
  (* Same literal-opcode contract as the scalar interpreter. *)
  assert (Vm_code.stride = 5);
  assert (Vm_code.op_jmp = 18 && Vm_code.op_jnot = 19)

(* ---- register compaction ----

   The compiler emits (almost) write-once virtual registers, so a
   program's register count grows with its length — hundreds of rows
   for the big generated tasks.  The scalar VM does not care (a row is
   one float), but here every row is [width] floats and a few hundred
   rows put the register file far outside the cache, which is exactly
   where a batch interpreter lives or dies.

   Renaming virtual registers onto a small physical file by occurrence
   intervals is semantics-preserving, masked control flow included:
   lanes advance through the code in pc order and each lane only
   touches its own column, so per column the memory order follows the
   pc.  A physical register freed at a virtual register's last textual
   occurrence is therefore never read as the old value again before
   its next definition (all later occurrences belong to the new
   virtual register).  Reads-before-write within one instruction are
   safe to share — every kernel reads its operand lanes before writing
   the destination lane. *)

let compact code nregs result =
  let nops = Array.length code / 5 in
  let first = Array.make (max nregs 1) max_int in
  let last = Array.make (max nregs 1) (-1) in
  let touch r i =
    if i < first.(r) then first.(r) <- i;
    if i > last.(r) then last.(r) <- i
  in
  for i = 0 to nops - 1 do
    let op = code.(i * 5)
    and d = code.((i * 5) + 1)
    and a = code.((i * 5) + 2)
    and b = code.((i * 5) + 3)
    and c = code.((i * 5) + 4) in
    match op with
    | 0 | 1 | 2 | 16 (* ldc/ldv/ldo/vmul: only [d] is a register *) ->
        touch d i
    | 3 | 7 | 8 | 9 | 12 | 13 | 14 | 17 (* unary on [a] *) ->
        touch d i;
        touch a i
    | 4 | 5 | 6 | 10 | 15 (* binary on [a],[b] *) ->
        touch d i;
        touch a i;
        touch b i
    | 11 (* fma *) ->
        touch d i;
        touch a i;
        touch b i;
        touch c i
    | 18 (* jmp: no registers *) -> ()
    | 19 (* jnot: [d] is the relation id *) ->
        touch a i;
        touch b i
    | _ (* ste/sto: [c] is an env/out slot *) -> touch a i
  done;
  (* The result register is read after the program ends. *)
  if result >= 0 then last.(result) <- nops;
  let starts = Array.make (nops + 2) [] in
  let ends = Array.make (nops + 2) [] in
  for r = 0 to nregs - 1 do
    if last.(r) >= 0 then begin
      let f = if first.(r) = max_int then last.(r) else first.(r) in
      starts.(f) <- r :: starts.(f);
      ends.(min last.(r) (nops + 1)) <- r :: ends.(min last.(r) (nops + 1))
    end
  done;
  let phys = Array.make (max nregs 1) (-1) in
  let free = ref [] in
  let next = ref 0 in
  for i = 0 to nops + 1 do
    (* Registers dying at op [i] free up before its definition: the
       kernels read all operands of a lane before writing it. *)
    List.iter
      (fun r -> if first.(r) < i then free := phys.(r) :: !free)
      ends.(i);
    List.iter
      (fun r ->
        match !free with
        | p :: tl ->
            free := tl;
            phys.(r) <- p
        | [] ->
            phys.(r) <- !next;
            incr next)
      starts.(i);
    (* A dead store (defined at [i], never read) frees immediately. *)
    List.iter
      (fun r -> if first.(r) = i then free := phys.(r) :: !free)
      ends.(i)
  done;
  let code' = Array.copy code in
  for i = 0 to nops - 1 do
    let op = code'.(i * 5) in
    let remap k = code'.((i * 5) + k) <- phys.(code'.((i * 5) + k)) in
    match op with
    | 0 | 1 | 2 | 16 -> remap 1
    | 3 | 7 | 8 | 9 | 12 | 13 | 14 | 17 ->
        remap 1;
        remap 2
    | 4 | 5 | 6 | 10 | 15 ->
        remap 1;
        remap 2;
        remap 3
    | 11 ->
        remap 1;
        remap 2;
        remap 3;
        remap 4
    | 18 -> ()
    | 19 ->
        remap 2;
        remap 3
    | _ -> remap 2
  done;
  (code', !next, (if result >= 0 then phys.(result) else result))

(* ---- load/consumer fusion ----

   Generated code is full of [ldv r, slot] feeding exactly one
   consumer: per lane that is a row write plus a row read for a value
   that already sits in an env column.  Batch-only opcodes (22..29,
   never produced by {!Vm.compile}) let the consumer read the env
   column in place, and the dead [ldv] is deleted outright:

     22 emulk   d <- env.(a) *. consts.(c)
     23 eaddk   d <- env.(a) +. consts.(c)
     24 eneg    d <- -. env.(a)
     25 esqr    d <- env.(a) * env.(a)
     26 erecip  d <- 1. /. env.(a)
     27 ecall1  d <- prim_c (env.(a))
     28 emula   d <- env.(a) *. regs.(b)
     29 emulb   d <- regs.(a) *. env.(b)

   Fusion is restricted to an [ldv] whose register the whole program
   reads exactly once ([single_use], counted on the virtual registers
   before compaction: a register held across statements may be read
   again past a jump), to a def/use pair inside one jump-free segment
   (no jump instruction or jump target strictly between them) — the
   awake-lane mask cannot change there, so the consumer reads env for
   exactly the lanes the [ldv] would have served — and to env slots not
   stored to ([ste]) in between.  [emula]/[emulb] keep the operand
   order of the original [mul] so NaN payload propagation stays
   bitwise.  Runs after register compaction (whose role table only
   knows scalar opcodes); jump targets are remapped over the deleted
   instructions. *)

(* Per instruction: an [ldv] whose virtual register is read exactly
   once in the whole program. *)
let single_use code nregs =
  let nops = Array.length code / 5 in
  let reads = Array.make (max nregs 1) 0 in
  let read r = reads.(r) <- reads.(r) + 1 in
  for i = 0 to nops - 1 do
    let a = code.((i * 5) + 2)
    and b = code.((i * 5) + 3)
    and c = code.((i * 5) + 4) in
    match code.(i * 5) with
    | 3 | 7 | 8 | 9 | 12 | 13 | 14 | 17 | 20 | 21 -> read a
    | 4 | 5 | 6 | 10 | 15 | 19 ->
        read a;
        read b
    | 11 ->
        read a;
        read b;
        read c
    | _ -> ()
  done;
  Array.init nops (fun i ->
      code.(i * 5) = 1 && reads.(code.((i * 5) + 1)) = 1)

let fuse code single =
  let nops = Array.length code / 5 in
  let boundary = Array.make (nops + 1) false in
  for i = 0 to nops - 1 do
    let op = code.(i * 5) in
    if op = 18 || op = 19 then begin
      boundary.(i) <- true;
      let t = code.((i * 5) + 4) / 5 in
      boundary.(min t nops) <- true
    end
  done;
  let dead = Array.make (max nops 1) false in
  let changed = ref false in
  for i = 0 to nops - 1 do
    if single.(i) (* ldv *) then begin
      let r = code.((i * 5) + 1) and e = code.((i * 5) + 2) in
      let j = ref (i + 1) in
      let halt = ref false and blocked = ref false in
      let use = ref (-1) and nuses = ref 0 in
      while (not !halt) && !j < nops do
        if boundary.(!j) then halt := true
        else begin
          let op = code.(!j * 5)
          and d = code.((!j * 5) + 1)
          and a = code.((!j * 5) + 2)
          and b = code.((!j * 5) + 3)
          and c = code.((!j * 5) + 4) in
          let reads =
            match op with
            | 3 | 7 | 8 | 9 | 12 | 13 | 14 -> if a = r then 1 else 0
            | 4 | 5 | 6 | 10 | 15 ->
                (if a = r then 1 else 0) + if b = r then 1 else 0
            | 11 ->
                (if a = r then 1 else 0)
                + (if b = r then 1 else 0)
                + if c = r then 1 else 0
            | 17 | 20 | 21 -> if a = r then 1 else 0
            | 28 -> if b = r then 1 else 0
            | 29 -> if a = r then 1 else 0
            | _ -> 0
          in
          if reads > 0 then begin
            nuses := !nuses + reads;
            use := !j
          end;
          if op = 20 && c = e then blocked := true;
          let defines =
            match op with
            | 18 | 19 | 20 | 21 -> false
            | _ -> d = r
          in
          if defines then halt := true else incr j
        end
      done;
      if !nuses = 1 && not !blocked then begin
        let u = !use in
        let op = code.(u * 5) and a = code.((u * 5) + 2) in
        let b = code.((u * 5) + 3) in
        let rewrite op' k =
          code.(u * 5) <- op';
          code.((u * 5) + k) <- e;
          dead.(i) <- true;
          changed := true
        in
        match op with
        | 13 -> rewrite 22 2
        | 12 -> rewrite 23 2
        | 7 -> rewrite 24 2
        | 8 -> rewrite 25 2
        | 9 -> rewrite 26 2
        | 14 -> rewrite 27 2
        | 6 when a = r -> rewrite 28 2
        | 6 when b = r -> rewrite 29 3
        | _ -> ()
      end
    end
  done;
  if not !changed then code
  else begin
    let newpos = Array.make (nops + 1) 0 in
    let k = ref 0 in
    for i = 0 to nops - 1 do
      newpos.(i) <- !k;
      if not dead.(i) then incr k
    done;
    newpos.(nops) <- !k;
    let code' = Array.make (!k * 5) 0 in
    for i = 0 to nops - 1 do
      if not dead.(i) then begin
        let p = newpos.(i) * 5 in
        Array.blit code (i * 5) code' p 5;
        let op = code'.(p) in
        if op = 18 || op = 19 then
          code'.(p + 4) <- newpos.(min (code'.(p + 4) / 5) nops) * 5
      end
    done;
    code'
  end

let create (p : Vm.program) ~width =
  if width < 1 then invalid_arg "Vm_batch.create: width < 1";
  let r = Vm.raw p in
  let has_jumps =
    let found = ref false in
    let n = Array.length r.rw_code in
    let pos = ref 0 in
    while !pos < n do
      let op = r.rw_code.(!pos) in
      if op = Vm_code.op_jmp || op = Vm_code.op_jnot then found := true;
      pos := !pos + Vm_code.stride
    done;
    !found
  in
  let single = single_use r.rw_code r.rw_nregs in
  let code, nregs, result = compact r.rw_code r.rw_nregs r.rw_result in
  let code = fuse code single in
  let njump =
    let nops = Array.length code / 5 in
    let nj = Array.make (max nops 1) (Array.length code) in
    let nearest = ref (Array.length code) in
    for i = nops - 1 downto 0 do
      let op = code.(i * 5) in
      if op = 18 || op = 19 then nearest := i * 5;
      nj.(i) <- !nearest
    done;
    nj
  in
  {
    code;
    consts = r.rw_consts;
    width;
    nregs = max nregs 1;
    result;
    env_size = r.rw_env_size;
    out_size = r.rw_out_size;
    regs = Array.init (max nregs 1) (fun _ -> Array.make width 0.);
    sleep = Array.make width 0;
    has_jumps;
    njump;
    seen_env = [||];
    seen_out = [||];
  }

(* The conditioned code, constant pool and njump table are immutable
   after [create]; the register rows, sleep counters and validation
   memo are the only mutable state.  Cloning those gives an independent
   instance without re-running compaction/fusion. *)
let clone_scratch t =
  {
    t with
    regs = Array.init (Array.length t.regs) (fun _ -> Array.make t.width 0.);
    sleep = Array.make t.width 0;
    seen_env = [||];
    seen_out = [||];
  }

let width t = t.width
let has_jumps t = t.has_jumps

(* Float.min/Float.max semantics, inlined like the scalar VM (the
   stdlib functions are not [@@noalloc] and would box at the call). *)
let[@inline] fmin x y =
  if x <> x then x
  else if y <> y then y
  else if x < y then x
  else if y < x then y
  else if x = 0. && 1. /. x < 0. then x
  else y

let[@inline] fmax x y =
  if x <> x then x
  else if y <> y then y
  else if x < y then y
  else if y < x then x
  else if x = 0. && 1. /. x < 0. then y
  else x

(* ---- straight-line fast path (no jumps in the program) ----

   Toplevel recursive functions over immediate parameters, like the
   scalar [Vm.loop]: a local recursive function would capture the
   arrays in a closure and allocate on every call. *)

let rec sloop code consts regs env out stop pc lo hi =
  if pc < stop then begin
    let op = Array.unsafe_get code pc in
    let d = Array.unsafe_get code (pc + 1) in
    let a = Array.unsafe_get code (pc + 2) in
    let b = Array.unsafe_get code (pc + 3) in
    let c = Array.unsafe_get code (pc + 4) in
    (match op with
    | 0 (* ldc *) ->
        let dst = Array.unsafe_get regs d in
        let k = Array.unsafe_get consts c in
        for j = lo to hi do
          Array.unsafe_set dst j k
        done
    | 1 (* ldv *) ->
        let dst = Array.unsafe_get regs d in
        let src = Array.unsafe_get env a in
        for j = lo to hi do
          Array.unsafe_set dst j (Array.unsafe_get src j)
        done
    | 2 (* ldo *) ->
        let dst = Array.unsafe_get regs d in
        let src = Array.unsafe_get out a in
        for j = lo to hi do
          Array.unsafe_set dst j (Array.unsafe_get src j)
        done
    | 3 (* mov *) ->
        let dst = Array.unsafe_get regs d in
        let src = Array.unsafe_get regs a in
        for j = lo to hi do
          Array.unsafe_set dst j (Array.unsafe_get src j)
        done
    | 4 (* add *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let xb = Array.unsafe_get regs b in
        for j = lo to hi do
          Array.unsafe_set dst j
            (Array.unsafe_get xa j +. Array.unsafe_get xb j)
        done
    | 5 (* sub *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let xb = Array.unsafe_get regs b in
        for j = lo to hi do
          Array.unsafe_set dst j
            (Array.unsafe_get xa j -. Array.unsafe_get xb j)
        done
    | 6 (* mul *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let xb = Array.unsafe_get regs b in
        for j = lo to hi do
          Array.unsafe_set dst j
            (Array.unsafe_get xa j *. Array.unsafe_get xb j)
        done
    | 7 (* neg *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        for j = lo to hi do
          Array.unsafe_set dst j (-.Array.unsafe_get xa j)
        done
    | 8 (* sqr *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        for j = lo to hi do
          let x = Array.unsafe_get xa j in
          Array.unsafe_set dst j (x *. x)
        done
    | 9 (* recip *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        for j = lo to hi do
          Array.unsafe_set dst j (1. /. Array.unsafe_get xa j)
        done
    | 10 (* pow *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let xb = Array.unsafe_get regs b in
        for j = lo to hi do
          Array.unsafe_set dst j
            (Expr.eval_pow (Array.unsafe_get xa j) (Array.unsafe_get xb j))
        done
    | 11 (* fma *) ->
        (* Two rounded operations, matching Eval.eval — not a hardware
           fused multiply-add. *)
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let xb = Array.unsafe_get regs b in
        let xc = Array.unsafe_get regs c in
        for j = lo to hi do
          Array.unsafe_set dst j
            ((Array.unsafe_get xa j *. Array.unsafe_get xb j)
            +. Array.unsafe_get xc j)
        done
    | 12 (* addk *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let k = Array.unsafe_get consts c in
        for j = lo to hi do
          Array.unsafe_set dst j (Array.unsafe_get xa j +. k)
        done
    | 13 (* mulk *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let k = Array.unsafe_get consts c in
        for j = lo to hi do
          Array.unsafe_set dst j (Array.unsafe_get xa j *. k)
        done
    | 14 (* call1 *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        (match c with
        | 0 ->
            for j = lo to hi do
              Array.unsafe_set dst j (Float.sin (Array.unsafe_get xa j))
            done
        | 1 ->
            for j = lo to hi do
              Array.unsafe_set dst j (Float.cos (Array.unsafe_get xa j))
            done
        | 2 ->
            for j = lo to hi do
              Array.unsafe_set dst j (Float.tan (Array.unsafe_get xa j))
            done
        | 3 ->
            for j = lo to hi do
              Array.unsafe_set dst j (Float.asin (Array.unsafe_get xa j))
            done
        | 4 ->
            for j = lo to hi do
              Array.unsafe_set dst j (Float.acos (Array.unsafe_get xa j))
            done
        | 5 ->
            for j = lo to hi do
              Array.unsafe_set dst j (Float.atan (Array.unsafe_get xa j))
            done
        | 6 ->
            for j = lo to hi do
              Array.unsafe_set dst j (Float.sinh (Array.unsafe_get xa j))
            done
        | 7 ->
            for j = lo to hi do
              Array.unsafe_set dst j (Float.cosh (Array.unsafe_get xa j))
            done
        | 8 ->
            for j = lo to hi do
              Array.unsafe_set dst j (Float.tanh (Array.unsafe_get xa j))
            done
        | 9 ->
            for j = lo to hi do
              Array.unsafe_set dst j (Float.exp (Array.unsafe_get xa j))
            done
        | 10 ->
            for j = lo to hi do
              Array.unsafe_set dst j (Float.log (Array.unsafe_get xa j))
            done
        | 11 ->
            for j = lo to hi do
              Array.unsafe_set dst j (Float.sqrt (Array.unsafe_get xa j))
            done
        | 12 ->
            for j = lo to hi do
              Array.unsafe_set dst j (Float.abs (Array.unsafe_get xa j))
            done
        | _ (* 13: sign *) ->
            for j = lo to hi do
              let x = Array.unsafe_get xa j in
              Array.unsafe_set dst j
                (if x > 0. then 1. else if x < 0. then -1. else 0.)
            done)
    | 15 (* call2 *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let xb = Array.unsafe_get regs b in
        (match c with
        | 0 ->
            for j = lo to hi do
              Array.unsafe_set dst j
                (Float.atan2 (Array.unsafe_get xa j) (Array.unsafe_get xb j))
            done
        | 1 ->
            for j = lo to hi do
              Array.unsafe_set dst j
                (fmin (Array.unsafe_get xa j) (Array.unsafe_get xb j))
            done
        | 2 ->
            for j = lo to hi do
              Array.unsafe_set dst j
                (fmax (Array.unsafe_get xa j) (Array.unsafe_get xb j))
            done
        | _ (* 3: hypot *) ->
            for j = lo to hi do
              Array.unsafe_set dst j
                (Float.hypot (Array.unsafe_get xa j) (Array.unsafe_get xb j))
            done)
    | 16 (* vmul *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get env a in
        let xb = Array.unsafe_get env b in
        for j = lo to hi do
          Array.unsafe_set dst j
            (Array.unsafe_get xa j *. Array.unsafe_get xb j)
        done
    | 17 (* vmacc *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let xb = Array.unsafe_get env b in
        let xc = Array.unsafe_get env c in
        for j = lo to hi do
          Array.unsafe_set dst j
            (Array.unsafe_get xa j
            +. (Array.unsafe_get xb j *. Array.unsafe_get xc j))
        done
    | 20 (* ste *) ->
        let dst = Array.unsafe_get env c in
        let src = Array.unsafe_get regs a in
        for j = lo to hi do
          Array.unsafe_set dst j (Array.unsafe_get src j)
        done
    | 21 (* sto *) ->
        let dst = Array.unsafe_get out c in
        let src = Array.unsafe_get regs a in
        for j = lo to hi do
          Array.unsafe_set dst j (Array.unsafe_get src j)
        done
    | 22 (* emulk *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get env a in
        let k = Array.unsafe_get consts c in
        for j = lo to hi do
          Array.unsafe_set dst j (Array.unsafe_get xa j *. k)
        done
    | 23 (* eaddk *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get env a in
        let k = Array.unsafe_get consts c in
        for j = lo to hi do
          Array.unsafe_set dst j (Array.unsafe_get xa j +. k)
        done
    | 24 (* eneg *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get env a in
        for j = lo to hi do
          Array.unsafe_set dst j (-.Array.unsafe_get xa j)
        done
    | 25 (* esqr *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get env a in
        for j = lo to hi do
          let x = Array.unsafe_get xa j in
          Array.unsafe_set dst j (x *. x)
        done
    | 26 (* erecip *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get env a in
        for j = lo to hi do
          Array.unsafe_set dst j (1. /. Array.unsafe_get xa j)
        done
    | 27 (* ecall1 *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get env a in
        (match c with
        | 0 ->
            for j = lo to hi do
              Array.unsafe_set dst j (Float.sin (Array.unsafe_get xa j))
            done
        | 1 ->
            for j = lo to hi do
              Array.unsafe_set dst j (Float.cos (Array.unsafe_get xa j))
            done
        | 2 ->
            for j = lo to hi do
              Array.unsafe_set dst j (Float.tan (Array.unsafe_get xa j))
            done
        | 3 ->
            for j = lo to hi do
              Array.unsafe_set dst j (Float.asin (Array.unsafe_get xa j))
            done
        | 4 ->
            for j = lo to hi do
              Array.unsafe_set dst j (Float.acos (Array.unsafe_get xa j))
            done
        | 5 ->
            for j = lo to hi do
              Array.unsafe_set dst j (Float.atan (Array.unsafe_get xa j))
            done
        | 6 ->
            for j = lo to hi do
              Array.unsafe_set dst j (Float.sinh (Array.unsafe_get xa j))
            done
        | 7 ->
            for j = lo to hi do
              Array.unsafe_set dst j (Float.cosh (Array.unsafe_get xa j))
            done
        | 8 ->
            for j = lo to hi do
              Array.unsafe_set dst j (Float.tanh (Array.unsafe_get xa j))
            done
        | 9 ->
            for j = lo to hi do
              Array.unsafe_set dst j (Float.exp (Array.unsafe_get xa j))
            done
        | 10 ->
            for j = lo to hi do
              Array.unsafe_set dst j (Float.log (Array.unsafe_get xa j))
            done
        | 11 ->
            for j = lo to hi do
              Array.unsafe_set dst j (Float.sqrt (Array.unsafe_get xa j))
            done
        | 12 ->
            for j = lo to hi do
              Array.unsafe_set dst j (Float.abs (Array.unsafe_get xa j))
            done
        | _ (* 13: sign *) ->
            for j = lo to hi do
              let x = Array.unsafe_get xa j in
              Array.unsafe_set dst j
                (if x > 0. then 1. else if x < 0. then -1. else 0.)
            done)
    | 28 (* emula *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get env a in
        let xb = Array.unsafe_get regs b in
        for j = lo to hi do
          Array.unsafe_set dst j
            (Array.unsafe_get xa j *. Array.unsafe_get xb j)
        done
    | _ (* 29: emulb *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let xb = Array.unsafe_get env b in
        for j = lo to hi do
          Array.unsafe_set dst j
            (Array.unsafe_get xa j *. Array.unsafe_get xb j)
        done);
    sloop code consts regs env out stop (pc + 5) lo hi
  end

(* ---- masked path (programs with jumps) ----

   Every instruction is guarded per lane: lane [j] participates iff
   [sleep.(j) <= pc].  [jnot] puts condition-failing lanes to sleep
   until the else-branch target; [jmp] puts the then-branch's awake
   lanes to sleep until the join.  Targets are strictly forward, so a
   sleeping lane always wakes at its branch's continuation. *)

let rec mloop code consts regs env out sleep stop pc lo hi =
  if pc < stop then begin
    let op = Array.unsafe_get code pc in
    let d = Array.unsafe_get code (pc + 1) in
    let a = Array.unsafe_get code (pc + 2) in
    let b = Array.unsafe_get code (pc + 3) in
    let c = Array.unsafe_get code (pc + 4) in
    (match op with
    | 0 (* ldc *) ->
        let dst = Array.unsafe_get regs d in
        let k = Array.unsafe_get consts c in
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then Array.unsafe_set dst j k
        done
    | 1 (* ldv *) ->
        let dst = Array.unsafe_get regs d in
        let src = Array.unsafe_get env a in
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then
            Array.unsafe_set dst j (Array.unsafe_get src j)
        done
    | 2 (* ldo *) ->
        let dst = Array.unsafe_get regs d in
        let src = Array.unsafe_get out a in
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then
            Array.unsafe_set dst j (Array.unsafe_get src j)
        done
    | 3 (* mov *) ->
        let dst = Array.unsafe_get regs d in
        let src = Array.unsafe_get regs a in
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then
            Array.unsafe_set dst j (Array.unsafe_get src j)
        done
    | 4 (* add *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let xb = Array.unsafe_get regs b in
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then
            Array.unsafe_set dst j
              (Array.unsafe_get xa j +. Array.unsafe_get xb j)
        done
    | 5 (* sub *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let xb = Array.unsafe_get regs b in
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then
            Array.unsafe_set dst j
              (Array.unsafe_get xa j -. Array.unsafe_get xb j)
        done
    | 6 (* mul *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let xb = Array.unsafe_get regs b in
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then
            Array.unsafe_set dst j
              (Array.unsafe_get xa j *. Array.unsafe_get xb j)
        done
    | 7 (* neg *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then
            Array.unsafe_set dst j (-.Array.unsafe_get xa j)
        done
    | 8 (* sqr *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then begin
            let x = Array.unsafe_get xa j in
            Array.unsafe_set dst j (x *. x)
          end
        done
    | 9 (* recip *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then
            Array.unsafe_set dst j (1. /. Array.unsafe_get xa j)
        done
    | 10 (* pow *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let xb = Array.unsafe_get regs b in
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then
            Array.unsafe_set dst j
              (Expr.eval_pow (Array.unsafe_get xa j) (Array.unsafe_get xb j))
        done
    | 11 (* fma *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let xb = Array.unsafe_get regs b in
        let xc = Array.unsafe_get regs c in
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then
            Array.unsafe_set dst j
              ((Array.unsafe_get xa j *. Array.unsafe_get xb j)
              +. Array.unsafe_get xc j)
        done
    | 12 (* addk *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let k = Array.unsafe_get consts c in
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then
            Array.unsafe_set dst j (Array.unsafe_get xa j +. k)
        done
    | 13 (* mulk *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let k = Array.unsafe_get consts c in
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then
            Array.unsafe_set dst j (Array.unsafe_get xa j *. k)
        done
    | 14 (* call1 *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        (match c with
        | 0 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j (Float.sin (Array.unsafe_get xa j))
            done
        | 1 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j (Float.cos (Array.unsafe_get xa j))
            done
        | 2 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j (Float.tan (Array.unsafe_get xa j))
            done
        | 3 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j (Float.asin (Array.unsafe_get xa j))
            done
        | 4 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j (Float.acos (Array.unsafe_get xa j))
            done
        | 5 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j (Float.atan (Array.unsafe_get xa j))
            done
        | 6 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j (Float.sinh (Array.unsafe_get xa j))
            done
        | 7 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j (Float.cosh (Array.unsafe_get xa j))
            done
        | 8 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j (Float.tanh (Array.unsafe_get xa j))
            done
        | 9 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j (Float.exp (Array.unsafe_get xa j))
            done
        | 10 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j (Float.log (Array.unsafe_get xa j))
            done
        | 11 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j (Float.sqrt (Array.unsafe_get xa j))
            done
        | 12 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j (Float.abs (Array.unsafe_get xa j))
            done
        | _ (* 13: sign *) ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then begin
                let x = Array.unsafe_get xa j in
                Array.unsafe_set dst j
                  (if x > 0. then 1. else if x < 0. then -1. else 0.)
              end
            done)
    | 15 (* call2 *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let xb = Array.unsafe_get regs b in
        (match c with
        | 0 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j
                  (Float.atan2 (Array.unsafe_get xa j)
                     (Array.unsafe_get xb j))
            done
        | 1 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j
                  (fmin (Array.unsafe_get xa j) (Array.unsafe_get xb j))
            done
        | 2 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j
                  (fmax (Array.unsafe_get xa j) (Array.unsafe_get xb j))
            done
        | _ (* 3: hypot *) ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j
                  (Float.hypot (Array.unsafe_get xa j)
                     (Array.unsafe_get xb j))
            done)
    | 16 (* vmul *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get env a in
        let xb = Array.unsafe_get env b in
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then
            Array.unsafe_set dst j
              (Array.unsafe_get xa j *. Array.unsafe_get xb j)
        done
    | 17 (* vmacc *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let xb = Array.unsafe_get env b in
        let xc = Array.unsafe_get env c in
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then
            Array.unsafe_set dst j
              (Array.unsafe_get xa j
              +. (Array.unsafe_get xb j *. Array.unsafe_get xc j))
        done
    | 18 (* jmp *) ->
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then Array.unsafe_set sleep j c
        done
    | 19 (* jnot *) ->
        let xa = Array.unsafe_get regs a in
        let xb = Array.unsafe_get regs b in
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then begin
            let x = Array.unsafe_get xa j in
            let y = Array.unsafe_get xb j in
            let holds =
              match d with
              | 0 -> x < y
              | 1 -> x <= y
              | 2 -> x > y
              | _ -> x >= y
            in
            if not holds then Array.unsafe_set sleep j c
          end
        done
    | 20 (* ste *) ->
        let dst = Array.unsafe_get env c in
        let src = Array.unsafe_get regs a in
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then
            Array.unsafe_set dst j (Array.unsafe_get src j)
        done
    | 21 (* sto *) ->
        let dst = Array.unsafe_get out c in
        let src = Array.unsafe_get regs a in
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then
            Array.unsafe_set dst j (Array.unsafe_get src j)
        done
    | 22 (* emulk *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get env a in
        let k = Array.unsafe_get consts c in
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then
            Array.unsafe_set dst j (Array.unsafe_get xa j *. k)
        done
    | 23 (* eaddk *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get env a in
        let k = Array.unsafe_get consts c in
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then
            Array.unsafe_set dst j (Array.unsafe_get xa j +. k)
        done
    | 24 (* eneg *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get env a in
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then
            Array.unsafe_set dst j (-.Array.unsafe_get xa j)
        done
    | 25 (* esqr *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get env a in
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then begin
            let x = Array.unsafe_get xa j in
            Array.unsafe_set dst j (x *. x)
          end
        done
    | 26 (* erecip *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get env a in
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then
            Array.unsafe_set dst j (1. /. Array.unsafe_get xa j)
        done
    | 27 (* ecall1 *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get env a in
        (match c with
        | 0 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j (Float.sin (Array.unsafe_get xa j))
            done
        | 1 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j (Float.cos (Array.unsafe_get xa j))
            done
        | 2 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j (Float.tan (Array.unsafe_get xa j))
            done
        | 3 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j (Float.asin (Array.unsafe_get xa j))
            done
        | 4 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j (Float.acos (Array.unsafe_get xa j))
            done
        | 5 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j (Float.atan (Array.unsafe_get xa j))
            done
        | 6 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j (Float.sinh (Array.unsafe_get xa j))
            done
        | 7 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j (Float.cosh (Array.unsafe_get xa j))
            done
        | 8 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j (Float.tanh (Array.unsafe_get xa j))
            done
        | 9 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j (Float.exp (Array.unsafe_get xa j))
            done
        | 10 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j (Float.log (Array.unsafe_get xa j))
            done
        | 11 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j (Float.sqrt (Array.unsafe_get xa j))
            done
        | 12 ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then
                Array.unsafe_set dst j (Float.abs (Array.unsafe_get xa j))
            done
        | _ (* 13: sign *) ->
            for j = lo to hi do
              if Array.unsafe_get sleep j <= pc then begin
                let x = Array.unsafe_get xa j in
                Array.unsafe_set dst j
                  (if x > 0. then 1. else if x < 0. then -1. else 0.)
              end
            done)
    | 28 (* emula *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get env a in
        let xb = Array.unsafe_get regs b in
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then
            Array.unsafe_set dst j
              (Array.unsafe_get xa j *. Array.unsafe_get xb j)
        done
    | _ (* 29: emulb *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let xb = Array.unsafe_get env b in
        for j = lo to hi do
          if Array.unsafe_get sleep j <= pc then
            Array.unsafe_set dst j
              (Array.unsafe_get xa j *. Array.unsafe_get xb j)
        done);
    mloop code consts regs env out sleep stop (pc + 5) lo hi
  end

(* ---- hybrid driver (programs with jumps) ----

   The masked walk above pays a per-lane sleep test on every
   instruction and executes {e both} arms of every branch, while the
   scalar interpreter jumps over the arm it does not take.  The driver
   recovers the scalar behaviour whenever the batch agrees: it tracks
   the number of sleeping lanes, runs jump-free segments through the
   unmasked [sloop] while everyone is awake, resolves a [jnot] all
   lanes answer the same way by jumping (skipping the untaken arm
   entirely), and only falls back to [mloop] segments while lanes
   genuinely diverge.  [nasleep] counts lanes with [sleep.(j) > pc];
   [next_wake] is the smallest wake-up pc among them ([max_int] when
   none sleep), so sleeper counts are only recomputed at pcs where a
   lane can actually wake. *)

let rec drive code consts njump regs env out sleep stop pc lo hi nasleep
    next_wake =
  if pc < stop then begin
    if nasleep = 0 then begin
      let j = Array.unsafe_get njump (pc / 5) in
      if j > pc then begin
        (* jump-free prefix, everyone awake: full-speed unmasked run *)
        sloop code consts regs env out j pc lo hi;
        drive code consts njump regs env out sleep stop j lo hi 0 max_int
      end
      else begin
        let op = Array.unsafe_get code pc in
        let c = Array.unsafe_get code (pc + 4) in
        if op = 18 (* jmp: everyone skips to the target *) then
          drive code consts njump regs env out sleep stop c lo hi 0 max_int
        else begin
          (* jnot with all lanes awake *)
          let d = Array.unsafe_get code (pc + 1) in
          let xa = Array.unsafe_get regs (Array.unsafe_get code (pc + 2)) in
          let xb = Array.unsafe_get regs (Array.unsafe_get code (pc + 3)) in
          let fails = ref 0 in
          for j = lo to hi do
            let x = Array.unsafe_get xa j in
            let y = Array.unsafe_get xb j in
            let holds =
              match d with
              | 0 -> x < y
              | 1 -> x <= y
              | 2 -> x > y
              | _ -> x >= y
            in
            if not holds then begin
              incr fails;
              Array.unsafe_set sleep j c
            end
          done;
          if !fails = 0 then
            drive code consts njump regs env out sleep stop (pc + 5) lo hi 0
              max_int
          else if !fails = hi - lo + 1 then
            (* unanimous: skip the then-arm like the scalar VM *)
            drive code consts njump regs env out sleep stop c lo hi 0 max_int
          else
            drive code consts njump regs env out sleep stop (pc + 5) lo hi
              !fails c
        end
      end
    end
    else if pc >= next_wake then begin
      (* a wake-up pc: recount the sleepers *)
      let n = ref 0 and nw = ref max_int in
      for j = lo to hi do
        let s = Array.unsafe_get sleep j in
        if s > pc then begin
          incr n;
          if s < !nw then nw := s
        end
      done;
      drive code consts njump regs env out sleep stop pc lo hi !n !nw
    end
    else begin
      let j = Array.unsafe_get njump (pc / 5) in
      if j > pc then begin
        (* jump-free masked segment up to the next jump or wake-up *)
        let seg = if next_wake < j then next_wake else j in
        mloop code consts regs env out sleep seg pc lo hi;
        drive code consts njump regs env out sleep stop seg lo hi nasleep
          next_wake
      end
      else begin
        let op = Array.unsafe_get code pc in
        let c = Array.unsafe_get code (pc + 4) in
        if op = 18 then begin
          (* jmp under divergence: the awake lanes sleep to the join;
             everyone is now asleep, so hop to the earliest wake-up *)
          for j = lo to hi do
            if Array.unsafe_get sleep j <= pc then Array.unsafe_set sleep j c
          done;
          let nw = if c < next_wake then c else next_wake in
          drive code consts njump regs env out sleep stop nw lo hi
            (hi - lo + 1) nw
        end
        else begin
          (* jnot under divergence *)
          let d = Array.unsafe_get code (pc + 1) in
          let xa = Array.unsafe_get regs (Array.unsafe_get code (pc + 2)) in
          let xb = Array.unsafe_get regs (Array.unsafe_get code (pc + 3)) in
          let k = ref 0 in
          for j = lo to hi do
            if Array.unsafe_get sleep j <= pc then begin
              let x = Array.unsafe_get xa j in
              let y = Array.unsafe_get xb j in
              let holds =
                match d with
                | 0 -> x < y
                | 1 -> x <= y
                | 2 -> x > y
                | _ -> x >= y
              in
              if not holds then begin
                incr k;
                Array.unsafe_set sleep j c
              end
            end
          done;
          let nl = nasleep + !k in
          let nw = if c < next_wake then c else next_wake in
          if nl = hi - lo + 1 then
            (* everyone asleep: hop to the earliest wake-up *)
            drive code consts njump regs env out sleep stop nw lo hi nl nw
          else
            drive code consts njump regs env out sleep stop (pc + 5) lo hi nl
              nw
        end
      end
    end
  end

let exec t ~env ~out ~lo ~hi =
  if lo < 0 || hi > t.width || lo >= hi then
    invalid_arg "Vm_batch.exec: bad lane range";
  (if env != t.seen_env || out != t.seen_out then begin
     if Array.length env < t.env_size then
       invalid_arg "Vm_batch.exec: env too small";
     if Array.length out < t.out_size then
       invalid_arg "Vm_batch.exec: out too small";
     let full = ref true in
     for s = 0 to t.env_size - 1 do
       let n = Array.length env.(s) in
       if n < hi then invalid_arg "Vm_batch.exec: env column too short";
       if n < t.width then full := false
     done;
     for s = 0 to t.out_size - 1 do
       let n = Array.length out.(s) in
       if n < hi then invalid_arg "Vm_batch.exec: out column too short";
       if n < t.width then full := false
     done;
     (* Cache only when every column covers the full batch width, so a
        later call with a larger lane range stays covered. *)
     if !full then begin
       t.seen_env <- env;
       t.seen_out <- out
     end
   end);
  let stop = Array.length t.code in
  if t.has_jumps then begin
    Array.fill t.sleep lo (hi - lo) 0;
    drive t.code t.consts t.njump t.regs env out t.sleep stop 0 lo (hi - 1) 0
      max_int
  end
  else sloop t.code t.consts t.regs env out stop 0 lo (hi - 1)

let result_row t =
  if t.result < 0 then
    invalid_arg "Vm_batch.result_row: statement program (use stores)";
  t.regs.(t.result)
