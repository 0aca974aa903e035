(* One in-process scheduling job, timed end to end and layer by layer.

   A job runs build -> schedule -> validate -> metrics -> bounds ->
   fingerprint, each step inside a {!Tracer} span named after the layer
   it calls.  The correctness replay ({!Onesched.Executor}) and, in a
   traced run, a separate upward ranking and a trip through the
   scheduld core run after the timed part. *)

module O = Onesched

let platform = O.Platform.paper_platform ()

type job = {
  label : string;
  build : unit -> O.Graph.t;
  build_span : string;  (** taskgraph.build, or taskgraph.parse for a text *)
  heuristic : string;
  params : O.Params.t;
}

type outcome = {
  label : string;
  tasks : int;
  quality : float;
  fingerprint : string;
  started : float;  (** wall clock when the job began *)
  placed_s : float;  (** due -> schedule returned (build + schedule) *)
  total_s : float;  (** the whole pipeline *)
  alloc_mb : float;
  major_gcs : int;
  problems : string list;  (** empty when every check passed *)
}

let model_name (j : job) = O.Comm_model.name j.params.O.Params.model

(* Every check the benchmark makes on a schedule it produced itself:
   the independent validator and the executor replay. *)
let replay_problems ~replay label sched verdict =
  let invalid =
    match verdict with
    | Ok () -> []
    | Error msgs ->
        [ Printf.sprintf "%s: invalid schedule (%s)" label (List.hd msgs) ]
  in
  if not replay then invalid
  else
  let replayed =
    Tracer.span "simkit.replay" (fun () -> O.Executor.run sched)
  in
  let makespan = O.Schedule.makespan sched in
  if Float.abs (replayed.O.Executor.makespan -. makespan) > 1e-9 *. makespan
  then
    Printf.sprintf "%s: executor replay makespan %g <> %g" label
      replayed.O.Executor.makespan makespan
    :: invalid
  else invalid

(* Run [job] once; the graph and schedule come back for the traced
   extras.  [replay] (default true) adds the executor replay check. *)
let run ?(replay = true) job =
  let gc0 = Gc.quick_stat () in
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let g, sched, verdict, quality, fingerprint, placed =
    Tracer.span "job" (fun () ->
        let g = Tracer.span job.build_span job.build in
        let entry = O.Registry.find job.heuristic in
        let sched =
          Tracer.span "engine.schedule" (fun () ->
              entry.O.Registry.scheduler job.params platform g)
        in
        let placed = Unix.gettimeofday () in
        let verdict =
          Tracer.span "validate.check" (fun () -> O.Validate.check sched)
        in
        ignore (Tracer.span "metrics.compute" (fun () -> O.Metrics.compute sched));
        let quality =
          Tracer.span "bounds.quality" (fun () -> O.Bounds.quality sched)
        in
        let fingerprint =
          Tracer.span "export.fingerprint" (fun () -> O.Export.fingerprint sched)
        in
        (g, sched, verdict, quality, fingerprint, placed))
  in
  let t1 = Unix.gettimeofday () in
  let a1 = Gc.allocated_bytes () in
  let gc1 = Gc.quick_stat () in
  let problems = replay_problems ~replay job.label sched verdict in
  ( {
    label = job.label;
    tasks = O.Graph.n_tasks g;
    quality;
    fingerprint;
    started = t0;
    placed_s = placed -. t0;
    total_s = t1 -. t0;
    alloc_mb = (a1 -. a0) /. 1e6;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
    problems;
  },
    g,
    sched )

(* ------------------------------------------------------------------ *)
(* the wire and the scheduld core, in process                           *)
(* ------------------------------------------------------------------ *)

module P = O.Scheduld_proto

type served = {
  mutable requests : int;
  mutable reply_bytes : int;
  mutable placed : int;
  mutable batches : int;
  mutable queue_peak : int;
  mutable serve_problems : string list;
}

let new_served () =
  {
    requests = 0;
    reply_bytes = 0;
    placed = 0;
    batches = 0;
    queue_peak = 0;
    serve_problems = [];
  }

(* A submit with the server's defaults; inline DAGs ask for the
   placement table back. *)
let submit_line spec =
  P.print_request
    (P.Submit
       {
         P.spec;
         heuristic = None;
         model = None;
         priority = 0;
         deadline = None;
         placements = (match spec with P.Inline _ -> true | P.Testbed _ -> false);
       })

(* Parse a request line the way the core will, timing the two layers
   it touches from outside: the protocol and, for inline DAGs, the
   graph text parser. *)
let parse_request line =
  match Tracer.span "proto.request_parse" (fun () -> P.request_of_line line) with
  | Ok (P.Submit { P.spec = P.Inline text; _ }) ->
      ignore (Tracer.span "taskgraph.parse" (fun () -> O.Graph_io.of_string text))
  | Ok _ -> ()
  | Error msg -> failwith ("benchmark built a malformed request: " ^ msg)

let feed st core ~client line =
  st.requests <- st.requests + 1;
  parse_request line;
  Tracer.span "scheduld.input" (fun () -> O.Scheduld.input core ~client line)

(* Flush the whole backlog and decode every reply; [expect id] gives
   the fingerprint a [Placed] for job [id] must carry. *)
let flush_all st core ~expect =
  while O.Scheduld.pending core > 0 do
    ignore (Tracer.span "scheduld.flush" (fun () -> O.Scheduld.flush core));
    st.batches <- st.batches + 1
  done;
  let outs =
    Tracer.span "scheduld.take_outputs" (fun () -> O.Scheduld.take_outputs core)
  in
  List.iter
    (fun (_, line) ->
      st.reply_bytes <- st.reply_bytes + String.length line + 1;
      match
        Tracer.span "proto.response_decode" (fun () -> P.response_of_line line)
      with
      | Ok (P.Placed { id; valid; fingerprint; _ }) ->
          st.placed <- st.placed + 1;
          if not valid then
            st.serve_problems <-
              Printf.sprintf "scheduld job %d: valid=false" id :: st.serve_problems;
          if fingerprint <> expect id then
            st.serve_problems <-
              Printf.sprintf "scheduld job %d: fingerprint differs from offline"
                id
              :: st.serve_problems
      | Ok (P.Error { msg; _ }) | Ok (P.Failed { msg; _ }) ->
          st.serve_problems <- ("scheduld: " ^ msg) :: st.serve_problems
      | Ok _ -> ()
      | Error msg ->
          st.serve_problems <- ("scheduld reply: " ^ msg) :: st.serve_problems)
    outs;
  st.queue_peak <- max st.queue_peak (O.Scheduld.stats core).P.queue_peak

(* A closed-loop caller handing [job] to a fresh core as an inline DAG
   and waiting for the reply: the server layer's cost for this job. *)
let serve_closed st job g ~fingerprint =
  let config =
    {
      O.Scheduld.default_config with
      O.Scheduld.params = job.params;
      heuristic = job.heuristic;
    }
  in
  let core = O.Scheduld.create ~config platform in
  let client = O.Scheduld.connect core in
  feed st core ~client (submit_line (P.Inline (O.Graph_io.to_string g)));
  flush_all st core ~expect:(fun _ -> fingerprint);
  O.Scheduld.shutdown core
