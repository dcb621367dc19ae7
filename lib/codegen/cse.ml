module E = Om_expr.Expr

(* Value numbering.  Every subtree gets a number, and two subtrees get
   the same number exactly when [E.equal] holds: a node is interned by
   its head (constructor plus constant, name, function or relation) and
   the numbers of its children, so deciding equality never looks below
   a node's immediate children.  [E.equal] compares floats with
   [Float.compare], so constant heads do too.

   Everything lives in flat int arrays — the interning table (open
   addressing), each number's children, and the per-elimination scratch
   indexed by number — so numbering allocates next to nothing per node
   and leaves the minor heap alone. *)

let same_head (a : E.t) (b : E.t) =
  a == b
  ||
  match (a, b) with
  | Const x, Const y -> Float.compare x y = 0
  | Var x, Var y -> String.equal x y
  | Add _, Add _ | Mul _, Mul _ | Pow _, Pow _ -> true
  | Call (f, _), Call (g, _) -> f = g
  | If (c, _, _), If (d, _, _) -> c.rel = d.rel
  | _ -> false

let hash_head : E.t -> int = function
  | Const x -> Hashtbl.hash x
  | Var v -> Hashtbl.hash v
  | Add _ -> 3
  | Mul _ -> 5
  | Pow _ -> 7
  | Call (f, _) -> 11 + (13 * Hashtbl.hash f)
  | If (c, _, _) -> 17 + (19 * Hashtbl.hash c.rel)

let arity : E.t -> int = function
  | Const _ | Var _ -> 0
  | Add xs | Mul xs | Call (_, xs) -> List.length xs
  | Pow _ -> 2
  | If _ -> 4

(* FNV-style mixing: a linear combination of child numbers would make
   unrelated shapes collide systematically. *)
let mix acc v = (acc lxor v) * 0x100000001b3

let grow a n fill =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

type numbering = {
  mutable heads : E.t array;  (** number -> a subtree with that number *)
  mutable hashes : int array;  (** number -> hash of head and children *)
  mutable kid_start : int array;
      (** number -> its children's numbers in [kids], up to the next
          number's start *)
  mutable kids : int array;
  mutable n_kids : int;
  mutable slots : int array;  (** open addressing: number + 1, 0 free *)
  mutable next : int;
  mutable checks : int;  (** node comparisons, see {!comparisons} *)
  (* Per-elimination scratch, indexed by number and reset after use. *)
  mutable count : int array;
  mutable last_group : int array;
  mutable last_pos : int array;
  mutable name_of : int array;
}

(* Small to start with: most numberings serve one task's trees. *)
let numbering () =
  {
    heads = Array.make 16 E.zero;
    hashes = Array.make 16 0;
    kid_start = Array.make 17 0;
    kids = Array.make 32 0;
    n_kids = 0;
    slots = Array.make 32 0;
    next = 0;
    checks = 0;
    count = [||];
    last_group = [||];
    last_pos = [||];
    name_of = [||];
  }

let comparisons nb = nb.checks

(* Target/expression pairs annotated in preorder: position [p] holds a
   subtree, its number and its size, and its children follow it, each
   child [size] positions after the previous one. *)
type numbered = {
  nb : numbering;
  targets : (string * int) list;  (** target, position of its tree *)
  mutable subs : E.t array;
  mutable vns : int array;
  mutable sizes : int array;
  mutable len : int;
}

let rehash nb =
  let cap = 2 * Array.length nb.slots in
  let slots = Array.make cap 0 in
  for v = 0 to nb.next - 1 do
    let i = ref (nb.hashes.(v) land (cap - 1)) in
    while slots.(!i) <> 0 do
      i := (!i + 1) land (cap - 1)
    done;
    slots.(!i) <- v + 1
  done;
  nb.slots <- slots

(* Whether number [v] is the subtree at [p] of [g] (head [e], [k]
   children, hash [h]), comparing child numbers. *)
let same nb g p e k h v =
  nb.checks <- nb.checks + 1;
  nb.hashes.(v) = h
  && same_head nb.heads.(v) e
  && nb.kid_start.(v + 1) - nb.kid_start.(v) = k
  &&
  let ok = ref true and c = ref (p + 1) and j = ref nb.kid_start.(v) in
  while !ok && !j < nb.kid_start.(v + 1) do
    nb.checks <- nb.checks + 1;
    ok := nb.kids.(!j) = g.vns.(!c);
    c := !c + g.sizes.(!c);
    incr j
  done;
  !ok

(* The slot holding the subtree's number, or the free slot where it
   belongs. *)
let rec probe nb g p e k h i =
  match nb.slots.(i) with
  | 0 -> i
  | s ->
      if same nb g p e k h (s - 1) then i
      else probe nb g p e k h ((i + 1) land (Array.length nb.slots - 1))

(* The number of the subtree at [p], whose [k] children are already
   numbered. *)
let intern nb g p k =
  let e = g.subs.(p) in
  let h = ref (hash_head e) and c = ref (p + 1) in
  for _ = 1 to k do
    h := mix !h g.vns.(!c);
    c := !c + g.sizes.(!c)
  done;
  let h = !h land max_int in
  let i = probe nb g p e k h (h land (Array.length nb.slots - 1)) in
  if nb.slots.(i) <> 0 then nb.slots.(i) - 1
  else begin
    let v = nb.next in
    nb.next <- v + 1;
    nb.heads <- grow nb.heads (v + 1) E.zero;
    nb.hashes <- grow nb.hashes (v + 1) 0;
    nb.kid_start <- grow nb.kid_start (v + 2) 0;
    nb.kids <- grow nb.kids (nb.n_kids + k) 0;
    nb.heads.(v) <- e;
    nb.hashes.(v) <- h;
    let c = ref (p + 1) in
    for _ = 1 to k do
      nb.kids.(nb.n_kids) <- g.vns.(!c);
      nb.n_kids <- nb.n_kids + 1;
      c := !c + g.sizes.(!c)
    done;
    nb.kid_start.(v + 1) <- nb.n_kids;
    nb.slots.(i) <- v + 1;
    if 2 * nb.next > Array.length nb.slots then rehash nb;
    v
  end

let rec annotate g (e : E.t) =
  let p = g.len in
  if p = Array.length g.subs then begin
    g.subs <- grow g.subs (p + 1) E.zero;
    g.vns <- grow g.vns (p + 1) 0;
    g.sizes <- grow g.sizes (p + 1) 0
  end;
  g.subs.(p) <- e;
  g.len <- p + 1;
  let k =
    match e with
    | Const _ | Var _ -> 0
    | Add xs | Mul xs | Call (_, xs) -> annotate_list g xs 0
    | Pow (a, b) ->
        annotate g a;
        annotate g b;
        2
    | If (c, t, f) ->
        annotate g c.lhs;
        annotate g c.rhs;
        annotate g t;
        annotate g f;
        4
  in
  g.sizes.(p) <- g.len - p;
  g.vns.(p) <- intern g.nb g p k

and annotate_list g xs k =
  match xs with
  | [] -> k
  | x :: rest ->
      annotate g x;
      annotate_list g rest (k + 1)

let number nb targets =
  let g =
    { nb; targets = []; subs = Array.make 64 E.zero; vns = Array.make 64 0;
      sizes = Array.make 64 0; len = 0 }
  in
  let targets =
    List.map
      (fun (t, e) ->
        let p = g.len in
        annotate g e;
        (t, p))
      targets
  in
  { g with targets }

(* [E.compare] on annotated subtrees: equal numbers decide at once, so
   only the path down to the first differing child is walked.  Heads
   that differ, and atoms, are decided by [E.compare] at the root
   without a walk. *)
let rec order nb ga pa gb pb =
  nb.checks <- nb.checks + 1;
  if ga.vns.(pa) = gb.vns.(pb) then 0
  else
    let kids () =
      order_kids nb ga (pa + 1) (pa + ga.sizes.(pa)) gb (pb + 1)
        (pb + gb.sizes.(pb))
    in
    match (ga.subs.(pa), gb.subs.(pb)) with
    | Add _, Add _ | Mul _, Mul _ | Pow _, Pow _ -> kids ()
    | Call (f, _), Call (g, _) when f = g -> kids ()
    | If (c1, _, _), If (c2, _, _) ->
        (* [E.compare] orders a condition by lhs, relation, rhs. *)
        let c = order nb ga (pa + 1) gb (pb + 1) in
        if c <> 0 then c
        else
          let c = Stdlib.compare c1.rel c2.rel in
          if c <> 0 then c
          else
            order_kids nb ga
              (pa + 1 + ga.sizes.(pa + 1))
              (pa + ga.sizes.(pa))
              gb
              (pb + 1 + gb.sizes.(pb + 1))
              (pb + gb.sizes.(pb))
    | a, b -> E.compare a b

(* Lexicographic order of the children starting at [ja] and [jb], up to
   the ends [ea] and [eb] of their parents' extents. *)
and order_kids nb ga ja ea gb jb eb =
  if ja >= ea then if jb >= eb then 0 else -1
  else if jb >= eb then 1
  else
    let c = order nb ga ja gb jb in
    if c <> 0 then c
    else order_kids nb ga (ja + ga.sizes.(ja)) ea gb (jb + gb.sizes.(jb)) eb

type binding = { name : string; expr : E.t }

type block = {
  temps : binding list;
  roots : (string * E.t) list;
}

let extractable e =
  match e with
  | E.Const _ | E.Var _ -> false
  | E.Add _ | E.Mul _ | E.Pow _ | E.Call _ | E.If _ -> true

(* All rewriting below preserves operand order ([E.with_children],
   [E.map_exact]): the smart constructors keep n-ary [Add]/[Mul]
   operands sorted, so replacing an extracted subtree with its temp
   variable (whose sort position differs from the subtree's) would
   reorder the operand list — and reordering a left-to-right float fold
   is a reassociation that can change the result by an ulp.  An
   order-preserving swap of a subtree for a variable bound to its value
   is exactly value-preserving, which the differential fuzz oracle
   relies on: every backend must reproduce the tree-walk interpreter
   bitwise. *)
let subst_exact = E.map_exact

let eliminate_numbered ?(min_size = 3) ?(min_count = 2) ?(prefix = "cse$")
    groups =
  let nb =
    match groups with
    | [] -> numbering ()
    | g :: rest ->
        if List.exists (fun g' -> g'.nb != g.nb) rest then
          invalid_arg "Cse.eliminate_numbered: groups from different numberings";
        g.nb
  in
  let groups = Array.of_list groups in
  if Array.length nb.count < nb.next then begin
    nb.count <- grow nb.count nb.next 0;
    nb.last_group <- grow nb.last_group nb.next 0;
    nb.last_pos <- grow nb.last_pos nb.next 0;
    nb.name_of <- grow nb.name_of nb.next (-1)
  end;
  (* Pass 1: count syntactic occurrences of every candidate subtree,
     scanning each tree in preorder.  The last occurrence is kept as the
     representative (equal subtrees may still differ in the sign of a
     zero constant).  The (size, E.compare) order is total over distinct
     numbers, so the scan order does not leak into the naming. *)
  let touched = ref [] in
  Array.iteri
    (fun gi g ->
      for p = 0 to g.len - 1 do
        if extractable g.subs.(p) && g.sizes.(p) >= min_size then begin
          let v = g.vns.(p) in
          if nb.count.(v) = 0 then touched := v :: !touched;
          nb.count.(v) <- nb.count.(v) + 1;
          nb.last_group.(v) <- gi;
          nb.last_pos.(v) <- p
        end
      done)
    groups;
  let shared =
    List.filter (fun v -> nb.count.(v) >= min_count) !touched
    |> List.map (fun v -> (nb.last_group.(v), nb.last_pos.(v)))
    |> List.sort (fun (ga, pa) (gb, pb) ->
           let ga = groups.(ga) and gb = groups.(gb) in
           let c = Int.compare ga.sizes.(pa) gb.sizes.(pb) in
           if c <> 0 then c else order nb ga pa gb pb)
    |> Array.of_list
  in
  List.iter (fun v -> nb.count.(v) <- 0) !touched;
  (* Pass 2: name the shared subtrees smallest-first, so each definition
     refers only to smaller temps, and count each temp's uses: the
     outermost named subtrees reached from the roots and from every
     definition.  A subtree smaller than [min_size] holds no named
     subtree and is skipped; [marked] records the positions that do hold
     one, so pass 3 rebuilds only their spines. *)
  let n_shared = Array.length shared in
  Array.iteri (fun i (gi, p) -> nb.name_of.(groups.(gi).vns.(p)) <- i) shared;
  let named gi p = nb.name_of.(groups.(gi).vns.(p)) in
  let uses = Array.make n_shared 0 in
  let marked = Array.map (fun g -> Bytes.make g.len '\000') groups in
  let rec visit gi p =
    let i = named gi p in
    if i >= 0 then begin
      uses.(i) <- uses.(i) + 1;
      true
    end
    else visit_children gi p
  and visit_children gi p =
    let g = groups.(gi) in
    g.sizes.(p) >= min_size
    && begin
         let found = ref false and c = ref (p + 1) in
         for _ = 1 to arity g.subs.(p) do
           if visit gi !c then found := true;
           c := !c + g.sizes.(!c)
         done;
         if !found then Bytes.set marked.(gi) p '\001';
         !found
       end
  in
  Array.iter (fun (gi, p) -> ignore (visit_children gi p)) shared;
  Array.iteri
    (fun gi g -> List.iter (fun (_, p) -> ignore (visit gi p)) g.targets)
    groups;
  (* Pass 3: a temp used at most once is inlined into its consumer
     (extraction counts occurrences before substitution, so a subtree
     appearing only inside one bigger shared subtree would otherwise
     survive as a single-use temporary); the kept temps are numbered
     densely in definition order.  Building follows operand order and
     leaves every subtree without a named descendant as it was. *)
  let kept_name = Array.make n_shared "" in
  let n_kept = ref 0 in
  Array.iteri
    (fun i u ->
      if u > 1 then begin
        kept_name.(i) <- prefix ^ string_of_int !n_kept;
        incr n_kept
      end)
    uses;
  let rec build gi p =
    let i = named gi p in
    if i < 0 then build_children gi p
    else if uses.(i) > 1 then E.var kept_name.(i)
    else
      let gi, p = shared.(i) in
      build_children gi p
  and build_children gi p =
    let g = groups.(gi) in
    let e = g.subs.(p) in
    if Bytes.get marked.(gi) p = '\000' then e
    else
      let rec kids c n =
        if n = 0 then []
        else
          let k = build gi c in
          k :: kids (c + g.sizes.(c)) (n - 1)
      in
      E.with_children e (kids (p + 1) (arity e))
  in
  let temps =
    List.filter_map
      (fun i ->
        if uses.(i) > 1 then
          let gi, p = shared.(i) in
          Some { name = kept_name.(i); expr = build_children gi p }
        else None)
      (List.init n_shared Fun.id)
  in
  let roots =
    Array.to_list groups
    |> List.mapi (fun gi g -> List.map (fun (t, p) -> (t, build gi p)) g.targets)
    |> List.concat
  in
  Array.iter (fun (gi, p) -> nb.name_of.(groups.(gi).vns.(p)) <- -1) shared;
  { temps; roots }

let eliminate ?min_size ?min_count ?prefix targets =
  eliminate_numbered ?min_size ?min_count ?prefix
    [ number (numbering ()) targets ]

let temp_count b = List.length b.temps

let block_cost b =
  List.fold_left (fun acc t -> acc +. Om_expr.Cost.flops_mean t.expr) 0. b.temps
  +. List.fold_left
       (fun acc (_, e) -> acc +. Om_expr.Cost.flops_mean e)
       0. b.roots

(* Order-exact, like the elimination itself, so inlining is its exact
   inverse: no operand is re-sorted or re-folded. *)
let inline b =
  let resolved = Hashtbl.create 64 in
  let resolve =
    subst_exact (function
      | E.Var v -> Hashtbl.find_opt resolved v
      | _ -> None)
  in
  List.iter (fun t -> Hashtbl.replace resolved t.name (resolve t.expr)) b.temps;
  List.map (fun (t, e) -> (t, resolve e)) b.roots

let verify_no_forward_refs b =
  let all_temps = Hashtbl.create 16 in
  List.iter (fun t -> Hashtbl.add all_temps t.name ()) b.temps;
  let defined = Hashtbl.create 16 in
  List.for_all
    (fun t ->
      let ok =
        List.for_all
          (fun v -> (not (Hashtbl.mem all_temps v)) || Hashtbl.mem defined v)
          (E.vars t.expr)
      in
      Hashtbl.add defined t.name ();
      ok)
    b.temps
