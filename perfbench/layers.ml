(* The per-layer metrics of a traced run, from the spans, the engine's
   counters and the scheduld core's replies. *)

module O = Onesched
module C = O.Obs_counters

(* One traced job's engine counts. *)
type count = { model : string; tasks : int; delta : C.snapshot }

(* [f ()] returns the tasks it scheduled and a value; the engine counts
   it made (counters must be on) go onto [counts]. *)
let counting counts ~model f =
  let before = C.snapshot () in
  let tasks, v = f () in
  counts := { model; tasks; delta = C.diff before (C.snapshot ()) } :: !counts;
  v

let sum f counts = List.fold_left (fun a c -> a + f c) 0 counts

type t = {
  counts : count list;
  jobs : Pipeline.outcome list;  (** the traced pipeline jobs *)
  served : Pipeline.served;
  late_s : float list;  (** how late each request left the generator *)
  wall_untraced_s : float;
  wall_traced_s : float;
}

(* Print self time per span name, heaviest first. *)
let print_self_times table =
  let rows = Hashtbl.fold (fun name row acc -> (name, row) :: acc) table [] in
  let rows =
    List.sort (fun (_, (_, _, a)) (_, (_, _, b)) -> compare b a) rows
  in
  let total = List.fold_left (fun acc (_, (_, _, s)) -> acc +. s) 0. rows in
  Printf.printf "self time by span (%.3f s traced):\n" total;
  List.iter
    (fun (name, (calls, tot, self)) ->
      Printf.printf "  %-24s %7d calls %10.3f ms total %10.3f ms self %5.1f%%\n"
        name calls (tot *. 1e3) (self *. 1e3)
        (100. *. self /. Float.max total 1e-12))
    rows

(* Print the engine counters of the traced jobs, one row per model. *)
let print_by_model counts =
  List.iter
    (fun model ->
      let mine = List.filter (fun c -> c.model = model) counts in
      let tasks = sum (fun c -> c.tasks) mine in
      let per f = float_of_int (sum (fun c -> f c.delta) mine) /. float_of_int tasks in
      Printf.printf
        "engine/%s: %d tasks, per task: %.2f evaluations, %.2f gap probes, \
         %.2f joint gap probes, %.2f tentative hops, %.2f route-cache hits\n"
        model tasks
        (per (fun d -> d.C.evaluations))
        (per (fun d -> d.C.gap_probes))
        (per (fun d -> d.C.joint_gap_probes))
        (per (fun d -> d.C.tentative_hops))
        (per (fun d -> d.C.route_cache_hits)))
    (List.sort_uniq compare (List.map (fun c -> c.model) counts))

let metrics x =
  let table = Tracer.self_times () in
  print_self_times table;
  print_by_model x.counts;
  let tasks = sum (fun c -> c.tasks) x.counts in
  let total_of f = sum (fun c -> f c.delta) x.counts in
  let evaluations = total_of (fun d -> d.C.evaluations) in
  let pruned = total_of (fun d -> d.C.pruned_evaluations) in
  let calls name =
    match Hashtbl.find_opt table name with Some (c, _, _) -> c | None -> 0
  in
  let total name =
    match Hashtbl.find_opt table name with Some (_, t, _) -> t | None -> 0.
  in
  let self name =
    match Hashtbl.find_opt table name with Some (_, _, s) -> s | None -> 0.
  in
  let per_call scale name = self name *. scale /. float_of_int (max 1 (calls name)) in
  let ms = per_call 1e3 and us = per_call 1e6 in
  let per_task f = float_of_int (total_of f) /. float_of_int (max 1 tasks) in
  let s = x.served in
  let m = Out.metric in
  [
    m "taskgraph.build_ms" "ms" (ms "taskgraph.build");
    m "taskgraph.parse_ms" "ms" (ms "taskgraph.parse");
    m "ranking.upward_ms" "ms" (ms "ranking.upward");
    m "engine.schedule_ms" "ms" (ms "engine.schedule");
    m "engine.ns_per_evaluation" "ns"
      (self "engine.schedule" *. 1e9 /. float_of_int (max 1 evaluations));
    m "engine.evaluations_per_task" "count" (per_task (fun d -> d.C.evaluations));
    m "engine.pruned_ratio" "ratio"
      (float_of_int pruned /. float_of_int (max 1 (evaluations + pruned)));
    m "engine.gap_probes_per_task" "count" (per_task (fun d -> d.C.gap_probes));
    m "engine.joint_gap_probes_per_task" "count"
      (per_task (fun d -> d.C.joint_gap_probes));
    m "engine.tentative_hops_per_task" "count"
      (per_task (fun d -> d.C.tentative_hops));
    m "engine.route_cache_hits_per_task" "count"
      (per_task (fun d -> d.C.route_cache_hits));
    m "validate.check_ms" "ms" (ms "validate.check");
    m "validate.share" "ratio" (self "validate.check" /. Float.max 1e-12 (total "job"));
    m "bounds.quality_ms" "ms" (ms "bounds.quality");
    m "metrics.compute_ms" "ms" (ms "metrics.compute");
    m "export.fingerprint_ms" "ms" (ms "export.fingerprint");
    m "simkit.replay_ms" "ms" (ms "simkit.replay");
    m "gc.allocated_mb_per_job" "MB"
      (Out.mean (List.map (fun (o : Pipeline.outcome) -> o.alloc_mb) x.jobs));
    m "gc.major_collections" "count"
      (Out.mean
         (List.map (fun (o : Pipeline.outcome) -> float_of_int o.major_gcs) x.jobs));
    m "proto.request_parse_us" "us" (us "proto.request_parse");
    m "proto.response_decode_us" "us" (us "proto.response_decode");
    m "scheduld.input_us" "us" (us "scheduld.input");
    m "scheduld.flush_ms" "ms" (ms "scheduld.flush");
    m "scheduld.jobs_per_batch" "count"
      (float_of_int s.Pipeline.placed /. float_of_int (max 1 s.Pipeline.batches));
    m "scheduld.reply_bytes_per_job" "bytes"
      (float_of_int s.Pipeline.reply_bytes /. float_of_int (max 1 s.Pipeline.placed));
    m "scheduld.queue_peak" "count" (float_of_int s.Pipeline.queue_peak);
    m "generator.late_p99_ms" "ms" (Out.percentile 99. x.late_s *. 1e3);
    m "trace.overhead_pct" "%"
      (100. *. (x.wall_traced_s -. x.wall_untraced_s) /. x.wall_untraced_s);
  ]
