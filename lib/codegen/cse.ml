module E = Om_expr.Expr
module Smap = Map.Make (String)

(* A subtree annotated bottom-up with its structural hash and size, so
   that no pass rehashes or re-measures a subtree: every per-node cost
   below is O(1) plus an [E.equal] on genuine hash hits. *)
type node = { sub : E.t; hash : int; size : int; kids : node list }

let rec annotate e =
  let kids = List.map annotate (E.children e) in
  {
    sub = e;
    hash = E.hash_node e (List.map (fun k -> k.hash) kids);
    size = List.fold_left (fun n k -> n + k.size) 1 kids;
    kids;
  }

module Ntbl = Hashtbl.Make (struct
  type t = node

  let equal a b = a.hash = b.hash && E.equal a.sub b.sub
  let hash n = n.hash
end)

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

let eliminate ?(min_size = 3) ?(min_count = 2) ?(prefix = "cse$") targets =
  let trees = List.map (fun (t, e) -> (t, annotate e)) targets in
  (* Pass 1: count syntactic occurrences of every candidate subtree.
     [replace] keeps the last occurrence as the representative.  The
     (size, E.compare) order is total over distinct keys, so the
     table's iteration order does not leak into the naming. *)
  let counts = Ntbl.create 256 in
  let rec count n =
    if extractable n.sub && n.size >= min_size then
      Ntbl.replace counts n
        (1 + Option.value ~default:0 (Ntbl.find_opt counts n));
    List.iter count n.kids
  in
  List.iter (fun (_, n) -> count n) trees;
  let shared =
    Ntbl.fold (fun n c acc -> if c >= min_count then n :: acc else acc) counts []
    |> List.sort (fun a b ->
           let c = Int.compare a.size b.size in
           if c <> 0 then c else E.compare a.sub b.sub)
  in
  (* Pass 2: name the shared subtrees smallest-first, so each definition
     can refer to already-named smaller temps.  Rewriting replaces the
     outermost named subtrees, rebuilding the spine in operand order, and
     counts each temp's uses as it emits them. *)
  let shared = Array.of_list shared in
  let names = Ntbl.create 64 in
  Array.iteri (fun i n -> Ntbl.add names n i) shared;
  let name i = prefix ^ string_of_int i in
  let uses = Array.make (Array.length shared) 0 in
  let rec rewrite n =
    match Ntbl.find_opt names n with
    | Some i ->
        uses.(i) <- uses.(i) + 1;
        E.var (name i)
    | None -> rewrite_children n
  and rewrite_children n =
    if n.kids = [] then n.sub
    else E.with_children n.sub (List.map rewrite n.kids)
  in
  let defs = Array.map rewrite_children shared in
  let roots = List.map (fun (t, n) -> (t, rewrite n)) trees in
  (* Pass 3, one substitution in definition order: a temp used at most
     once is inlined into its consumer (extraction counts occurrences
     before substitution, so a subtree appearing only inside one bigger
     shared subtree would otherwise survive as a single-use temporary),
     and the kept temps are renumbered densely.  A definition only
     refers to earlier temps, whose replacements are known by then. *)
  let replacement = Hashtbl.create 64 in
  let resolve =
    subst_exact (function
      | E.Var v -> Hashtbl.find_opt replacement v
      | _ -> None)
  in
  let kept = ref [] and n_kept = ref 0 in
  Array.iteri
    (fun i def ->
      let expr = resolve def in
      if uses.(i) <= 1 then Hashtbl.replace replacement (name i) expr
      else begin
        let kept_name = name !n_kept in
        incr n_kept;
        Hashtbl.replace replacement (name i) (E.var kept_name);
        kept := { name = kept_name; expr } :: !kept
      end)
    defs;
  {
    temps = List.rev !kept;
    roots = List.map (fun (t, e) -> (t, resolve e)) roots;
  }

let temp_count b = List.length b.temps

let block_cost b =
  List.fold_left (fun acc t -> acc +. Om_expr.Cost.flops_mean t.expr) 0. b.temps
  +. List.fold_left
       (fun acc (_, e) -> acc +. Om_expr.Cost.flops_mean e)
       0. b.roots

let inline b =
  let resolved =
    List.fold_left
      (fun m t -> Smap.add t.name (Om_expr.Subst.apply_map m t.expr) m)
      Smap.empty b.temps
  in
  List.map (fun (t, e) -> (t, Om_expr.Subst.apply_map resolved e)) b.roots

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
