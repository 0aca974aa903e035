(* perfbench: the repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload (paper-batch, lu-250k or scheduld-open) and prints,
   as its last line, one JSON object with the keys correct, attempted,
   failed and metrics: the end-to-end metrics untraced, the per-layer
   metrics with --trace 1.  See README.md.  [main.exe daemon PATH] is
   the scheduld child scheduld-open starts. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload paper-batch|lu-250k|scheduld-open --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "daemon"; path ] -> Open_loop.daemon_main path
  | _ :: args ->
      let rec parse acc = function
        | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
            parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
      let workload = get "workload" and seed = int "seed" and seconds = int "seconds" in
      let trace =
        match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
      in
      if trace then begin
        let attempted, problems, layers =
          match workload with
          | "paper-batch" -> Closed_loop.traced Closed_loop.paper_batch ~seed
          | "lu-250k" -> Closed_loop.traced Closed_loop.lu_250k ~seed
          | "scheduld-open" -> Open_loop.traced ~seed ~seconds
          | _ -> usage ()
        in
        let metrics = Layers.metrics layers in
        Out.ensure_dir ();
        let path = Printf.sprintf "%s/spans-%s-%d.json" Out.dir workload seed in
        Tracer.write path;
        Printf.printf "spans written to %s\n" path;
        Out.emit ~attempted ~failed:(List.length problems) ~problems metrics
      end
      else begin
        match workload with
        | "paper-batch" -> Closed_loop.e2e Closed_loop.paper_batch ~seed ~seconds
        | "lu-250k" -> Closed_loop.e2e Closed_loop.lu_250k ~seed ~seconds
        | "scheduld-open" -> Open_loop.e2e ~seed ~seconds
        | _ -> usage ()
      end
  | [] -> usage ()
