(* Metrics as they are reported: one descriptive line each while the
   run goes, and the JSON result line at the end. *)

let metrics : (string * float * string) list ref = ref []

let metric ?(note = "") name unit value =
  metrics := (name, value, unit) :: !metrics;
  Printf.printf "  %-34s %14.6g %-6s %s\n%!" name value unit note

(* A timing: its median, with the tail percentile and sample count. *)
let timing ?(scale = 1.) name unit samples =
  let s = Measure.summarize samples in
  metric name unit (s.median *. scale)
    ~note:(Printf.sprintf "median; p%g %.6g; n=%d" s.tail_p (s.tail *. scale) s.n)

let count name value = metric name "count" (float_of_int value)

let ratio name ~num ~den =
  metric name "ratio"
    (if den = 0 then 0. else float_of_int num /. float_of_int den)
    ~note:(Printf.sprintf "%d / %d" num den)

let result_line ~correct ~attempted ~failed =
  let ms =
    List.rev_map
      (fun (name, value, unit) ->
        Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" name value unit)
      !metrics
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed (String.concat "," ms)
