type t = {
  mutable labels : string array;
  mutable out_edges : int list array;
  mutable in_edges : int list array;
  mutable n : int;
  mutable m : int;
  index : (string, int) Hashtbl.t;
  edge_set : (int * int, unit) Hashtbl.t;  (* O(1) duplicate-edge test *)
}

let create () =
  {
    labels = Array.make 8 "";
    out_edges = Array.make 8 [];
    in_edges = Array.make 8 [];
    n = 0;
    m = 0;
    index = Hashtbl.create 16;
    edge_set = Hashtbl.create 16;
  }

let grow g =
  let cap = Array.length g.labels in
  if g.n >= cap then (
    let cap' = 2 * cap in
    let resize a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    g.labels <- resize g.labels "";
    g.out_edges <- resize g.out_edges [];
    g.in_edges <- resize g.in_edges [])

let add_node g lbl =
  grow g;
  let id = g.n in
  g.labels.(id) <- lbl;
  g.n <- id + 1;
  if not (Hashtbl.mem g.index lbl) then Hashtbl.add g.index lbl id;
  id

let check g v =
  if v < 0 || v >= g.n then
    invalid_arg (Printf.sprintf "Digraph: node %d out of range" v)

let mem_edge g a b =
  check g a;
  check g b;
  Hashtbl.mem g.edge_set (a, b)

let add_edge g a b =
  check g a;
  check g b;
  if not (Hashtbl.mem g.edge_set (a, b)) then (
    Hashtbl.add g.edge_set (a, b) ();
    g.out_edges.(a) <- b :: g.out_edges.(a);
    g.in_edges.(b) <- a :: g.in_edges.(b);
    g.m <- g.m + 1)

let node_count g = g.n
let edge_count g = g.m

let label g v =
  check g v;
  g.labels.(v)

let succ g v =
  check g v;
  List.rev g.out_edges.(v)

let pred g v =
  check g v;
  List.rev g.in_edges.(v)

let nodes g = List.init g.n Fun.id

let edges g =
  List.concat_map (fun v -> List.map (fun w -> (v, w)) (succ g v)) (nodes g)

let find_node g lbl = Hashtbl.find_opt g.index lbl

let of_edges labels pairs =
  let g = create () in
  List.iter (fun l -> ignore (add_node g l)) labels;
  let resolve l =
    match find_node g l with
    | Some v -> v
    | None -> invalid_arg ("Digraph.of_edges: unknown label " ^ l)
  in
  List.iter (fun (a, b) -> add_edge g (resolve a) (resolve b)) pairs;
  g

let transpose g =
  let g' = create () in
  List.iter (fun v -> ignore (add_node g' (label g v))) (nodes g);
  List.iter (fun (a, b) -> add_edge g' b a) (edges g);
  g'
