(* The two in-process workloads: one caller runs jobs back to back
   (a closed loop), each job through the whole {!Pipeline}.

   Heap isolation: every job starts right after the {!Calib} kernel,
   which begins with a [Gc.compact] (outside the timed part), so no job
   pays for the garbage of the jobs before it, whatever order the seed
   picked. *)

module O = Onesched

type workload = {
  jobs : O.Rng.t -> Pipeline.job list;  (** one pass, in run order *)
  setup : unit -> unit;  (** the work timed as [setup_s] *)
  pass_s : float;
      (** nominal seconds per pass: a run makes [seconds / pass_s]
          passes (at least one), a count fixed by [--seconds] alone *)
}

let ccr = 10.

let paper_batch =
  let graphs =
    List.concat_map
      (fun (tb : O.Suite.t) ->
        List.map (fun n -> (tb, n)) [ 100; 200 ])
      O.Suite.all
  in
  let all_jobs =
    List.concat_map
      (fun ((tb : O.Suite.t), n) ->
        List.concat_map
          (fun model ->
            List.map
              (fun (heuristic, params) ->
                {
                  Pipeline.label =
                    Printf.sprintf "%s:%d %s %s" tb.name n heuristic
                      (O.Comm_model.name model);
                  build = (fun () -> tb.build ~n ~ccr);
                  build_span = "taskgraph.build";
                  heuristic;
                  params;
                })
              [
                ("heft", O.Params.make ~model ());
                ("ilha", O.Params.make ~model ~b:tb.paper_b ());
              ])
          [ O.Comm_model.one_port; O.Comm_model.macro_dataflow ])
      graphs
  in
  {
    jobs =
      (fun rng ->
        let a = Array.of_list all_jobs in
        O.Rng.shuffle rng a;
        Array.to_list a);
    setup =
      (fun () ->
        List.iter (fun ((tb : O.Suite.t), n) -> ignore (tb.build ~n ~ccr)) graphs);
    pass_s = 14.;
  }

let lu_n = 708

let lu_250k =
  let job =
    {
      Pipeline.label = Printf.sprintf "lu:%d heft one-port" lu_n;
      build = (fun () -> O.Kernels.lu ~n:lu_n ~ccr);
      build_span = "taskgraph.build";
      heuristic = "heft";
      params = O.Params.make ~model:O.Comm_model.one_port ();
    }
  in
  {
    jobs = (fun _ -> [ job ]);
    setup = (fun () -> ignore (job.build ()));
    pass_s = 10.;
  }

let setup_rounds = 3

(* A read due every 20 ms against a serial scheduler is answered only
   when the job in progress ends: the head-of-line wait of each such
   read, over the jobs laid end to end. *)
let ping_waits durations =
  let period = 0.020 in
  let waits = ref [] and phase = ref 0. in
  List.iter
    (fun d ->
      let t = ref !phase in
      while !t < d do
        waits := (d -. !t) :: !waits;
        t := !t +. period
      done;
      phase := !t -. d)
    durations;
  !waits

let problems_of outcomes =
  List.concat_map (fun (o : Pipeline.outcome) -> o.problems) outcomes

(* Run [jobs] back to back, each with the host's speed around it: the
   {!Calib} kernel runs between jobs, each run serving the job before
   and the job after.  A job is replayed by the executor the first time
   [seen] meets it; after that, its fingerprint must not change. *)
let run_jobs ?(seen = Hashtbl.create 64) jobs =
  let k = ref (Calib.kernel ()) in
  List.map
    (fun (job : Pipeline.job) ->
      let first = Hashtbl.find_opt seen job.label in
      let o, _, _ = Pipeline.run ~replay:(first = None) job in
      let k' = Calib.kernel () in
      let speed = Calib.nominal_s /. ((!k +. k') /. 2.) in
      k := k';
      let o =
        match first with
        | Some fp when fp <> o.fingerprint ->
            {
              o with
              problems = (job.label ^ ": schedule changed between passes") :: o.problems;
            }
        | _ ->
            Hashtbl.replace seen job.label o.fingerprint;
            o
      in
      (o, speed))
    jobs

(* The outcome's times at reference speed. *)
let at_speed ((o : Pipeline.outcome), v) =
  { o with total_s = o.total_s *. v; placed_s = o.placed_s *. v }

(* Each distinct job's best time over the run's passes: the host's
   speed swings by up to 2x over periods of seconds, and a job's best
   run, taken over passes spread through the run, is the statistic
   that stays put from run to run. *)
let best_of outcomes =
  let best = Hashtbl.create 64 in
  List.iter
    (fun (o : Pipeline.outcome) ->
      match Hashtbl.find_opt best o.label with
      | None -> Hashtbl.replace best o.label o
      | Some (b : Pipeline.outcome) ->
          Hashtbl.replace best o.label
            { b with total_s = Float.min b.total_s o.total_s;
                     placed_s = Float.min b.placed_s o.placed_s })
    outcomes;
  List.sort compare (Hashtbl.fold (fun _ o acc -> o :: acc) best [])

let e2e w ~seed ~seconds =
  let setup_s =
    Out.median
      (List.init setup_rounds (fun _ ->
           let (), t, v = Calib.timed w.setup in
           t *. v))
  in
  let rng = O.Rng.create ~seed in
  let passes = max 1 (int_of_float (float_of_int seconds /. w.pass_s)) in
  let seen = Hashtbl.create 64 in
  let runs = List.concat (List.init passes (fun _ -> run_jobs ~seen (w.jobs rng))) in
  let outcomes = List.map fst runs in
  let best = best_of (List.map at_speed runs) in
  let raw = best_of outcomes in
  Printf.printf
    "wall clock: job p50 %.1f ms, %.0f tasks/s; host speed %.2f-%.2f of \
     reference\n"
    (Out.median (List.map (fun (o : Pipeline.outcome) -> o.total_s) raw) *. 1e3)
    (float_of_int (List.fold_left (fun a (o : Pipeline.outcome) -> a + o.tasks) 0 raw)
    /. Out.sum (List.map (fun (o : Pipeline.outcome) -> o.total_s) raw))
    (List.fold_left (fun a (_, v) -> Float.min a v) infinity runs)
    (List.fold_left (fun a (_, v) -> Float.max a v) 0. runs);
  let total = List.map (fun (o : Pipeline.outcome) -> o.total_s) best in
  let placed = List.map (fun (o : Pipeline.outcome) -> o.placed_s) best in
  let n = List.length best in
  let p, tail, _ = Out.tail total in
  Printf.printf
    "%d passes over %d jobs; per job, the best of its %d runs; job_tail_ms \
     is p%d of %d jobs\n"
    passes n passes p n;
  let tasks = List.fold_left (fun acc (o : Pipeline.outcome) -> acc + o.tasks) 0 best in
  let failed = List.filter (fun (o : Pipeline.outcome) -> o.problems <> []) outcomes in
  let m = Out.metric in
  Out.emit ~attempted:(List.length outcomes) ~failed:(List.length failed)
    ~problems:(problems_of outcomes)
    [
      m "setup_s" "s" setup_s;
      m "job_p50_ms" "ms" (Out.median total *. 1e3);
      m "job_tail_ms" "ms" (tail *. 1e3);
      m "tasks_per_s" "1/s" (float_of_int tasks /. Out.sum total);
      m "quality_geomean" "ratio"
        (Out.geomean (List.map (fun (o : Pipeline.outcome) -> o.quality) best));
      m "peak_rss_mb" "MB" (Out.vm_hwm_mb None);
      m "submit_p50_ms" "ms" (Out.median placed *. 1e3);
      m "submit_tail_ms" "ms" ((fun (_, t, _) -> t *. 1e3) (Out.tail placed));
      m "ping_p99_ms" "ms" (Out.percentile 99. (ping_waits total) *. 1e3);
      m "max_rate_jps" "1/s" (float_of_int n /. Out.sum total);
    ]

(* One pass untraced, then the same pass traced: each job also gets a
   separate upward ranking and a trip through a fresh scheduld core. *)
let traced w ~seed =
  let jobs = w.jobs (O.Rng.create ~seed) in
  let untraced = List.map fst (run_jobs jobs) in
  Tracer.enabled := true;
  O.Obs_counters.enable ();
  let served = Pipeline.new_served () in
  let counts = ref [] in
  let late = ref [] in
  let outcomes =
    List.mapi
      (fun i (job : Pipeline.job) ->
        Gc.compact ();
        let due = Unix.gettimeofday () in
        Tracer.with_job i (fun () ->
            let o, g =
              Layers.counting counts ~model:(Pipeline.model_name job) (fun () ->
                  let o, g, _ = Pipeline.run job in
                  (o.Pipeline.tasks, (o, g)))
            in
            late := (o.started -. due) :: !late;
            ignore
              (Tracer.span "ranking.upward" (fun () ->
                   O.Ranking.upward g Pipeline.platform));
            Pipeline.serve_closed served job g ~fingerprint:o.fingerprint;
            o))
      jobs
  in
  O.Obs_counters.disable ();
  Tracer.enabled := false;
  let sum_total os = Out.sum (List.map (fun (o : Pipeline.outcome) -> o.total_s) os) in
  let layers =
    {
      Layers.counts = !counts;
      jobs = outcomes;
      served;
      late_s = !late;
      wall_untraced_s = sum_total untraced;
      wall_traced_s = sum_total outcomes;
    }
  in
  let problems =
    problems_of untraced @ problems_of outcomes @ served.serve_problems
  in
  (2 * List.length jobs, problems, layers)
