type info = {
  reads : int list array;
  writes : int list array;
}

let analyse (plan : Partition.plan) ~state_names =
  let index = Om_expr.Name_index.of_array state_names in
  let task_reads (t : Partition.task) =
    let module Iset = Set.Make (Int) in
    List.fold_left
      (fun acc (_, e) ->
        List.fold_left
          (fun acc v ->
            match Om_expr.Name_index.find_opt index v with
            | Some i -> Iset.add i acc
            | None -> acc)
          acc
          (Om_expr.Expr.vars e))
      Iset.empty t.roots
    |> Iset.elements
  in
  {
    reads = Array.map task_reads plan.tasks;
    writes =
      Array.map
        (fun (t : Partition.task) -> List.map fst t.roots)
        plan.tasks;
  }

let read_fraction info ~dim =
  let n = Array.length info.reads in
  if n = 0 || dim = 0 then 0.
  else
    Array.fold_left
      (fun acc r -> acc +. (float_of_int (List.length r) /. float_of_int dim))
      0. info.reads
    /. float_of_int n
