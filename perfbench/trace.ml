(* In-memory spans recorded around the benchmark's own calls into the
   libraries.  A span carries its name, start, end, the span that was
   open when it started (on the same domain) and the job it belongs to.
   Spans are kept in memory and written out once the run ends; a layer's
   self time is its duration minus the durations of its children. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 = a root span *)
  job : string;
  start : float;
  stop : float;
}

let enabled = ref false
let lock = Mutex.create ()
let spans : span list ref = ref []
let next_id = Atomic.make 1
let current = Domain.DLS.new_key (fun () -> 0)

let with_span ?(job = "") name f =
  if not !enabled then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = Domain.DLS.get current in
    Domain.DLS.set current id;
    let start = Measure.now () in
    let close () =
      let stop = Measure.now () in
      Domain.DLS.set current parent;
      Mutex.protect lock (fun () ->
          spans := { id; name; parent; job; start; stop } :: !spans)
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

let all () = Mutex.protect lock (fun () -> List.rev !spans)
let duration s = s.stop -. s.start

(* Self time of each span of [spans]: its duration minus the durations
   of its children within [spans]. *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          (duration s
          +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt children s.id)))
    spans

(* The spans that started at or after [t0]. *)
let since t0 = List.filter (fun s -> s.start >= t0) (all ())

let self_total spans name =
  Measure.sum
    (List.filter_map
       (fun (s, self) -> if s.name = name then Some self else None)
       (self_times spans))

let durations spans name =
  List.filter_map (fun s -> if s.name = name then Some (duration s) else None) spans

(* One JSON object per span, one per line, with its self time. *)
let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun (s, self) ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"job\":%S,\"start\":%.9f,\"end\":%.9f,\"self\":%.9f}\n"
            s.id s.name s.parent s.job s.start s.stop self)
        (self_times (all ())))
