(* Clocks, sample summaries and time-budgeted repetition. *)

let now = Om_parallel.Monotonic.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* CPU seconds of the calling thread, and of the whole process (every
   domain and thread).  Neither counts time the hypervisor stole. *)
external thread_cpu : unit -> (float[@unboxed])
  = "perfbench_thread_cpu" "perfbench_thread_cpu_unboxed"
[@@noalloc]

external process_cpu : unit -> (float[@unboxed])
  = "perfbench_process_cpu" "perfbench_process_cpu_unboxed"
[@@noalloc]

(* [f]'s result and the CPU seconds the calling thread spent in it: the
   timing of every single-threaded end-to-end phase. *)
let cpu_time f =
  let t0 = thread_cpu () in
  let r = f () in
  (r, thread_cpu () -. t0)

(* The same over the whole process, for work spread over domains. *)
let process_cpu_time f =
  let t0 = process_cpu () in
  let r = f () in
  (r, process_cpu () -. t0)

(* ---- host speed ---- *)

(* The benchmark shares its cores with other guests, and the speed of a
   core moves with their load by up to 2x over minutes (a busy sibling
   hyperthread, a shared cache).  CPU time does not count the time
   another guest held the core, but it still counts the slower
   instructions.  So every timed sample is taken between two passes of
   a fixed calibration kernel and reported at a reference host speed:
   its CPU time times [reference_pass_s] over the mean CPU time of the
   two passes.

   The kernel is the benchmark's own code, so no change to the program
   moves it.  It is an interpreter's inner loop -- a dispatch on
   pseudo-random opcodes over register arrays that stay in the first
   level of cache, with float adds, multiplies and compares -- because
   that is where the program spends its time too, and it allocates
   nothing, so the program's heap cannot move it either.  It has no
   division or square root: with those, its speed moved by some 10% more
   than the program's between states of a shared host. *)

let reference_pass_s = 0.005
let cal_ops = 4096
let cal_prog = Array.init cal_ops (fun i -> ((i * 7919) + ((i lsr 3) * 31)) land 7)
let cal_args = Array.init cal_ops (fun i -> (i * 104729) land 255)
let cal_regs = Array.make 256 1.0

(* The CPU seconds of one calibration pass. *)
let calibration_pass () =
  let r = cal_regs in
  let t0 = thread_cpu () in
  for _ = 1 to 400 do
    for pc = 0 to cal_ops - 1 do
      let a = cal_args.(pc) in
      match cal_prog.(pc) with
      | 0 -> r.(a) <- (r.(a) +. r.((a + 1) land 255)) *. 0.5
      | 1 -> r.(a) <- (r.(a) *. 0.999999) +. 1e-6
      | 2 -> r.(a) <- (0.75 *. r.((a + 3) land 255)) +. (0.25 *. r.(a))
      | 3 -> if r.(a) > 2. then r.(a) <- 1.0 else r.(a) <- r.(a) +. 0.01
      | 4 -> r.(a) <- Float.abs (r.(a) -. 0.1) +. 0.1
      | 5 -> r.(a) <- (r.(a) *. 0.999) +. 0.001
      | 6 -> r.(a) <- Float.abs (r.(a) -. 1.) +. 1.
      | _ -> r.(a) <- r.((a * 5) land 255)
    done
  done;
  thread_cpu () -. t0

(* [t] CPU seconds taken at the speed the passes [k] (seconds per pass)
   measured, restated at the reference speed. *)
let at_reference ~k t = t *. reference_pass_s /. k

(* [f]'s result, its CPU seconds (from [cpu_time] or [process_cpu_time])
   at the reference speed, and the raw CPU seconds. *)
let calibrated timer f =
  let before = calibration_pass () in
  let r, t = timer f in
  let after = calibration_pass () in
  (r, at_reference ~k:((before +. after) /. 2.) t, t)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending array. *)
let percentile s p =
  let n = Array.length s in
  if n = 0 then Float.nan
  else
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))

let median xs =
  let s = sorted xs in
  let n = Array.length s in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* A timing is reported as its median plus the highest percentile of
   this ladder that still has at least ten samples beyond it. *)
type summary = { n : int; median : float; tail_p : float; tail : float }

let tail_ladder = [ 99.9; 99.; 95.; 90.; 75.; 50. ]

let summarize xs =
  let s = sorted xs in
  let n = Array.length s in
  let beyond p = n - int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  let tail_p =
    match List.find_opt (fun p -> beyond p >= 10) tail_ladder with
    | Some p -> p
    | None -> 100.
  in
  { n; median = median xs; tail_p; tail = percentile s tail_p }

let geomean = function
  | [] -> Float.nan
  | xs ->
      Float.exp
        (List.fold_left (fun a x -> a +. Float.log x) 0. xs
        /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.

(* Peak resident set of this process in MiB (VmHWM). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:"
          ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d" (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> Float.nan
      in
      go ())

(* Call [f] repeatedly until [budget] seconds have passed, taking at
   least [min_n] and at most [max_n] samples; returns the results in
   call order. *)
let repeat ~budget ~min_n ~max_n f =
  let t0 = now () in
  let rec go i acc =
    if i >= max_n || (i >= min_n && now () -. t0 >= budget) then List.rev acc
    else go (i + 1) (f () :: acc)
  in
  go 0 []

(* Aggregate CPU time of the host as (steal, total) jiffies, from the
   first line of /proc/stat: steal is time the hypervisor ran something
   else while this machine wanted its CPUs. *)
let cpu_jiffies () =
  let ic = open_in "/proc/stat" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      match String.split_on_char ' ' (input_line ic) |> List.filter (( <> ) "") with
      | "cpu" :: fields ->
          let v = List.map int_of_string fields in
          let steal = match List.nth_opt v 7 with Some x -> x | None -> 0 in
          (steal, List.fold_left ( + ) 0 v)
      | _ -> (0, 0))
