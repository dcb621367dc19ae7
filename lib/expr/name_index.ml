exception Unbound of string

type t = { size : int; slots : (string, int) Hashtbl.t }

let of_array names =
  let slots = Hashtbl.create (max 16 (2 * Array.length names)) in
  Array.iteri
    (fun i n -> if not (Hashtbl.mem slots n) then Hashtbl.add slots n i)
    names;
  { size = Array.length names; slots }

let size t = t.size
let find_opt t v = Hashtbl.find_opt t.slots v

let find t v =
  match Hashtbl.find_opt t.slots v with
  | Some i -> i
  | None -> raise (Unbound v)
