(* Summary statistics and the result line. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a non-empty list. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  a.(max 0 (min (n - 1) (k - 1)))

let median xs = percentile 50. xs

(* The highest whole percentile that leaves at least ten samples beyond
   it; with fewer than eleven samples, the maximum (reported as p100). *)
let tail xs =
  let n = List.length xs in
  if n < 11 then (100, percentile 100. xs, n)
  else
    let p = 100 * (n - 10) / n in
    (p, percentile (float_of_int p) xs, n)

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0. xs
let mean xs = sum xs /. float_of_int (max 1 (List.length xs))

(* Peak resident set (VmHWM) of a live process, in MB. *)
let vm_hwm_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Where runs leave their files (sockets, spans), relative to the root
   of the checkout the benchmark runs from. *)
let dir = "perfbench/out"

let ensure_dir () =
  try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* Print the human-readable lines, then the one JSON result line. *)
let emit ~attempted ~failed ~problems metrics =
  List.iteri
    (fun i p -> if i < 20 then Printf.printf "FAILED: %s\n" p)
    problems;
  let bad = List.filter (fun m -> not (Float.is_finite m.value)) metrics in
  List.iter (fun m -> Printf.printf "FAILED: metric %s is not finite\n" m.name) bad;
  Printf.printf "attempted %d, failed %d, failed_frac %g\n" attempted failed
    (float_of_int failed /. float_of_int (max 1 attempted));
  List.iter (fun m -> Printf.printf "  %-34s %14.6g %s\n" m.name m.value m.unit_) metrics;
  let correct = failed = 0 && problems = [] && bad = [] in
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name
             (if Float.is_finite m.value then m.value else 0.)
             m.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body
