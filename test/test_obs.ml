(* Observability layer: counters, span tracing, reports and the Chrome
   trace export.  The cardinal property is non-interference — turning
   observability on must not change any schedule. *)

module O = Onesched
open Util

(* Leave the global obs switches the way we found them. *)
let with_obs_off f =
  O.Obs_counters.disable ();
  O.Obs_span.disable ();
  Fun.protect
    ~finally:(fun () ->
      O.Obs_counters.disable ();
      O.Obs_span.disable ())
    f

let with_obs_on f =
  O.Obs_counters.enable ();
  O.Obs_counters.reset ();
  O.Obs_span.enable ();
  O.Obs_span.reset ();
  Fun.protect
    ~finally:(fun () ->
      O.Obs_counters.disable ();
      O.Obs_span.disable ())
    f

module C = O.Obs_counters

(* An independent restatement of the counter table, to catch a
   transposed slot: per [pp] block, each counter's [--stats] label, its
   bump, and the snapshot one bump yields from zero. *)
let counter_blocks =
  C.
    [
      [
        ("evaluations:", evaluation, { zero with evaluations = 1 });
        ( "pruned evaluations:",
          pruned_evaluation,
          { zero with pruned_evaluations = 1 } );
        ( "route-cache hits:",
          route_cache_hit,
          { zero with route_cache_hits = 1 } );
        ("gap probes:", gap_probe, { zero with gap_probes = 1 });
        ( "joint gap probes:",
          joint_gap_probe,
          { zero with joint_gap_probes = 1 } );
        ("tentative hops:", tentative_hop, { zero with tentative_hops = 1 });
        ("commits:", commit, { zero with commits = 1 });
        ("copies:", copy, { zero with copies = 1 });
      ];
      [
        ("retries:", retry, { zero with retries = 1 });
        ("repairs:", repair, { zero with repairs = 1 });
        ( "backoff time:",
          (fun () -> backoff 0.5),
          { zero with backoff_s = 0.5 } );
      ];
      [
        ("rollbacks:", rollback, { zero with rollbacks = 1 });
        ("replayed tasks:", replayed_task, { zero with replayed_tasks = 1 });
        ( "search pruned:",
          search_pruned_node,
          { zero with search_pruned_nodes = 1 } );
      ];
      [
        ("replans:", replan, { zero with replans = 1 });
        ("shed jobs:", shed_job, { zero with shed_jobs = 1 });
        ("frozen tasks:", frozen_task, { zero with frozen_tasks = 1 });
        ("deadline misses:", deadline_miss, { zero with deadline_misses = 1 });
      ];
      [
        ("requests:", server_request, { zero with requests = 1 });
        ("batched replans:", batched_replan, { zero with batched_replans = 1 });
        ("queued jobs:", queued_job, { zero with queued_jobs = 1 });
      ];
    ]

(* Every counter holding a different value. *)
let distinct : C.snapshot =
  {
    evaluations = 1;
    pruned_evaluations = 2;
    route_cache_hits = 3;
    gap_probes = 4;
    joint_gap_probes = 5;
    tentative_hops = 6;
    commits = 7;
    copies = 8;
    retries = 9;
    repairs = 10;
    backoff_s = 11.5;
    rollbacks = 12;
    replayed_tasks = 13;
    search_pruned_nodes = 14;
    replans = 15;
    shed_jobs = 16;
    frozen_tasks = 17;
    deadline_misses = 18;
    requests = 19;
    batched_replans = 20;
    queued_jobs = 21;
  }

(* "label:   value" lines of a [pp] rendering, split at the last space. *)
let pp_lines c =
  String.split_on_char '\n' (Format.asprintf "%a" C.pp c)
  |> List.map (fun l ->
         let i = String.rindex l ' ' in
         ( String.trim (String.sub l 0 i),
           String.sub l (i + 1) (String.length l - i - 1) ))

let counter_tests =
  [
    Alcotest.test_case "disabled bumps are no-ops" `Quick (fun () ->
        with_obs_off @@ fun () ->
        O.Obs_counters.reset ();
        O.Obs_counters.evaluation ();
        O.Obs_counters.gap_probe ();
        O.Obs_counters.commit ();
        check_bool "still zero" true
          (O.Obs_counters.snapshot () = O.Obs_counters.zero));
    Alcotest.test_case "enabled bumps accumulate and reset zeroes" `Quick
      (fun () ->
        with_obs_on @@ fun () ->
        O.Obs_counters.evaluation ();
        O.Obs_counters.evaluation ();
        O.Obs_counters.pruned_evaluation ();
        O.Obs_counters.route_cache_hit ();
        O.Obs_counters.gap_probe ();
        O.Obs_counters.joint_gap_probe ();
        O.Obs_counters.tentative_hop ();
        O.Obs_counters.commit ();
        O.Obs_counters.copy ();
        let c = O.Obs_counters.snapshot () in
        check_int "evaluations" 2 c.O.Obs_counters.evaluations;
        check_int "pruned evaluations" 1 c.O.Obs_counters.pruned_evaluations;
        check_int "route cache hits" 1 c.O.Obs_counters.route_cache_hits;
        check_int "gap probes" 1 c.O.Obs_counters.gap_probes;
        check_int "joint gap probes" 1 c.O.Obs_counters.joint_gap_probes;
        check_int "tentative hops" 1 c.O.Obs_counters.tentative_hops;
        check_int "commits" 1 c.O.Obs_counters.commits;
        check_int "copies" 1 c.O.Obs_counters.copies;
        O.Obs_counters.reset ();
        check_bool "reset zeroes" true
          (O.Obs_counters.snapshot () = O.Obs_counters.zero);
        (* each bump moves its own field and only that one *)
        List.iter
          (List.iter (fun (label, bump, expected) ->
               C.reset ();
               bump ();
               check_bool (label ^ " moves only its field") true
                 (C.snapshot () = expected)))
          counter_blocks;
        (* merge then snapshot round-trips every field *)
        C.reset ();
        C.merge distinct;
        check_bool "merge/snapshot round trip" true (C.snapshot () = distinct);
        check_bool "diff from zero is identity" true
          (C.diff C.zero distinct = distinct);
        (* one nonzero counter prints block 0 plus exactly its own block *)
        let labels block = List.map (fun (l, _, _) -> l) block in
        let always = labels (List.hd counter_blocks) in
        List.iteri
          (fun b block ->
            List.iter
              (fun (label, _, expected) ->
                let lines = pp_lines expected in
                check_bool (label ^ " prints its block") true
                  (List.map fst lines
                  = always @ if b = 0 then [] else labels block);
                check_bool (label ^ " value printed") true
                  (List.assoc label lines
                  = if label = "backoff time:" then "0.5" else "1"))
              block)
          counter_blocks);
    Alcotest.test_case "diff is per-field subtraction" `Quick (fun () ->
        with_obs_on @@ fun () ->
        O.Obs_counters.evaluation ();
        let before = O.Obs_counters.snapshot () in
        O.Obs_counters.evaluation ();
        O.Obs_counters.commit ();
        let after = O.Obs_counters.snapshot () in
        let d = O.Obs_counters.diff before after in
        check_int "evaluations delta" 1 d.O.Obs_counters.evaluations;
        check_int "commits delta" 1 d.O.Obs_counters.commits;
        check_int "copies delta" 0 d.O.Obs_counters.copies);
    Alcotest.test_case "a real schedule drives every hot counter" `Quick
      (fun () ->
        with_obs_on @@ fun () ->
        let plat = O.Platform.paper_platform () in
        let g = O.Kernels.lu ~n:15 ~ccr:10. in
        ignore (O.Heft.schedule plat g : O.Schedule.t);
        let c = O.Obs_counters.snapshot () in
        let tasks = O.Graph.n_tasks g in
        check_bool "one evaluation per (task, proc) at least" true
          (c.O.Obs_counters.evaluations >= tasks);
        check_int "one commit per task" tasks c.O.Obs_counters.commits;
        check_bool "gap probes outnumber commits" true
          (c.O.Obs_counters.gap_probes + c.O.Obs_counters.joint_gap_probes
          > c.O.Obs_counters.commits);
        check_bool "candidate pruning fires" true
          (c.O.Obs_counters.pruned_evaluations > 0);
        check_bool "route cache is reused" true
          (c.O.Obs_counters.route_cache_hits > 0));
  ]

let span_tests =
  [
    Alcotest.test_case "with_ brackets and nests" `Quick (fun () ->
        with_obs_on @@ fun () ->
        let r =
          O.Obs_span.with_ "outer" (fun () ->
              O.Obs_span.with_ "inner" (fun () -> 42))
        in
        check_int "result threaded" 42 r;
        let names =
          List.map
            (fun (e : O.Obs_span.event) ->
              ( e.O.Obs_span.name,
                match e.O.Obs_span.kind with
                | O.Obs_span.Begin -> "B"
                | O.Obs_span.End -> "E" ))
            (O.Obs_span.events ())
        in
        check_bool "B/E properly nested" true
          (names
          = [
              ("outer", "B"); ("inner", "B"); ("inner", "E"); ("outer", "E");
            ]));
    Alcotest.test_case "end event survives an exception" `Quick (fun () ->
        with_obs_on @@ fun () ->
        (try O.Obs_span.with_ "boom" (fun () -> failwith "x") with
        | Failure _ -> ());
        let kinds =
          List.map (fun (e : O.Obs_span.event) -> e.O.Obs_span.kind)
            (O.Obs_span.events ())
        in
        check_bool "begin then end" true
          (kinds = [ O.Obs_span.Begin; O.Obs_span.End ]));
    Alcotest.test_case "timestamps never run backwards" `Quick (fun () ->
        with_obs_on @@ fun () ->
        let plat = O.Platform.paper_platform () in
        let g = O.Kernels.stencil ~n:20 ~ccr:10. in
        ignore (O.Ilha.schedule plat g : O.Schedule.t);
        let rec monotone last = function
          | [] -> true
          | (e : O.Obs_span.event) :: rest ->
              e.O.Obs_span.ts >= last && monotone e.O.Obs_span.ts rest
        in
        check_bool "monotone" true (monotone 0. (O.Obs_span.events ())));
    Alcotest.test_case "ring overwrites oldest and counts drops" `Quick
      (fun () ->
        O.Obs_span.enable ~capacity:8 ();
        O.Obs_span.reset ();
        Fun.protect ~finally:(fun () ->
            O.Obs_span.disable ();
            (* restore the default ring for later suites *)
            O.Obs_span.enable ();
            O.Obs_span.disable ())
        @@ fun () ->
        for i = 0 to 9 do
          O.Obs_span.with_ (string_of_int i) (fun () -> ())
        done;
        check_int "ring holds capacity" 8
          (List.length (O.Obs_span.events ()));
        check_int "drops counted" 12 (O.Obs_span.dropped ()));
  ]

(* The whole point: observability must not perturb scheduling. *)
let non_interference_tests =
  [
    Alcotest.test_case "tracing on/off yields identical makespans" `Quick
      (fun () ->
        let plat = O.Platform.paper_platform () in
        let g = O.Kernels.doolittle ~n:20 ~ccr:10. in
        List.iter
          (fun (entry : O.Registry.entry) ->
            let off =
              with_obs_off (fun () ->
                  O.Schedule.makespan
                    (entry.O.Registry.scheduler O.Params.default plat g))
            in
            let on =
              with_obs_on (fun () ->
                  O.Schedule.makespan
                    (entry.O.Registry.scheduler O.Params.default plat g))
            in
            check_float (entry.O.Registry.name ^ " unchanged") off on)
          O.Registry.all);
  ]

let report_tests =
  [
    Alcotest.test_case "capture with obs disabled is empty" `Quick (fun () ->
        with_obs_off @@ fun () ->
        let x, report = O.Obs_report.capture (fun () -> 7) in
        check_int "value threaded" 7 x;
        check_bool "empty report" true (report = O.Obs_report.empty));
    Alcotest.test_case "capture scopes counters and phases" `Quick (fun () ->
        with_obs_on @@ fun () ->
        let plat = O.Platform.paper_platform () in
        let g = O.Kernels.lu ~n:10 ~ccr:10. in
        (* pollute before the window: capture must not see this *)
        ignore (O.Heft.schedule plat g : O.Schedule.t);
        let before = O.Obs_counters.snapshot () in
        let _, report =
          O.Obs_report.capture (fun () ->
              ignore (O.Heft.schedule plat g : O.Schedule.t))
        in
        let c = report.O.Obs_report.counters in
        check_int "window commits = one run" (O.Graph.n_tasks g)
          c.O.Obs_counters.commits;
        check_int "pre-window commits excluded"
          before.O.Obs_counters.commits c.O.Obs_counters.commits;
        check_bool "heft phase reported" true
          (List.mem_assoc "heft" report.O.Obs_report.phases);
        check_bool "rank phase reported" true
          (List.mem_assoc "rank" report.O.Obs_report.phases));
  ]

(* A hand-rolled structural check of the Chrome trace: we do not have a
   JSON parser in the test closure, so scan the flat event array the
   exporter emits (one object per line, known key order). *)
let trace_lines json =
  check_bool "array-shaped" true
    (String.length json > 2 && json.[0] = '[' && contains json "]");
  String.split_on_char '\n' json
  |> List.filter (fun l -> contains l {|"ph":|})

let field line key =
  (* extract the value of "key": up to the next , or } *)
  let tag = Printf.sprintf {|"%s":|} key in
  let n = String.length line and m = String.length tag in
  let rec find i =
    if i + m > n then None
    else if String.sub line i m = tag then
      let stop = ref (i + m) in
      while !stop < n && line.[!stop] <> ',' && line.[!stop] <> '}' do
        incr stop
      done;
      Some (String.sub line (i + m) (!stop - i - m))
    else find (i + 1)
  in
  find 0

let export_tests =
  [
    Alcotest.test_case "chrome export is balanced and monotone" `Quick
      (fun () ->
        let json =
          with_obs_on (fun () ->
              let plat = O.Platform.paper_platform () in
              let g = O.Kernels.lu ~n:15 ~ccr:10. in
              ignore (O.Ilha.schedule plat g : O.Schedule.t);
              O.Obs_counters.server_request ();
              let c = O.Obs_counters.snapshot () in
              O.Obs_trace.to_chrome ~counters:c (O.Obs_span.events ()))
        in
        let lines = trace_lines json in
        let depth = ref 0 and last_ts = ref neg_infinity and ok = ref true in
        let n_durations = ref 0 in
        List.iter
          (fun line ->
            (match field line "ph" with
            | Some {|"B"|} ->
                incr depth;
                incr n_durations
            | Some {|"E"|} ->
                decr depth;
                incr n_durations;
                if !depth < 0 then ok := false
            | _ -> ());
            match field line "ts" with
            | Some ts ->
                let ts = float_of_string ts in
                if ts < !last_ts then ok := false;
                last_ts := ts
            | None -> ())
          lines;
        check_bool "has duration events" true (!n_durations > 0);
        check_int "spans balanced" 0 !depth;
        check_bool "no orphan end, monotone ts" true !ok;
        check_bool "metadata present" true
          (contains json {|"ph":"M"|} && contains json "scheduler");
        check_bool "counter track present" true
          (contains json {|"ph":"C"|} && contains json "evaluations");
        (* every counter, the scheduld block included, reaches the track *)
        match List.filter (fun l -> field l "ph" = Some {|"C"|}) lines with
        | [ counter_line ] ->
            List.iter
              (fun key ->
                check_bool (key ^ " in the counter event") true
                  (field counter_line key <> None))
              [
                "evaluations"; "pruned_evaluations"; "route_cache_hits";
                "gap_probes"; "joint_gap_probes"; "tentative_hops"; "commits";
                "copies"; "retries"; "repairs"; "backoff_s"; "rollbacks";
                "replayed_tasks"; "search_pruned_nodes"; "replans";
                "shed_jobs"; "frozen_tasks"; "deadline_misses"; "requests";
                "batched_replans"; "queued_jobs";
              ];
            check_bool "requests counted" true
              (field counter_line "requests" = Some "1")
        | _ -> Alcotest.fail "expected exactly one counter event");
    Alcotest.test_case "orphan events are repaired on export" `Quick
      (fun () ->
        with_obs_on @@ fun () ->
        (* an End with no Begin, then a Begin never closed *)
        O.Obs_span.end_ "orphan-end";
        O.Obs_span.begin_ "left-open";
        let json = O.Obs_trace.to_chrome (O.Obs_span.events ()) in
        check_bool "orphan end dropped" true
          (not (contains json "orphan-end"));
        let lines = trace_lines json in
        let opens =
          List.filter (fun l -> field l "ph" = Some {|"B"|}) lines
        and closes =
          List.filter (fun l -> field l "ph" = Some {|"E"|}) lines
        in
        check_int "synthesized closer" (List.length opens)
          (List.length closes));
  ]

let runner_obs_tests =
  [
    Alcotest.test_case "runner rows carry obs only when enabled" `Quick
      (fun () ->
        let cfg = O.Config.with_sizes (O.Config.paper ()) [ 10 ] in
        let run () =
          O.Runner.run cfg ~testbed:(O.Suite.find "lu") ~n:10
            ~heuristic:(O.Registry.find "heft") ()
        in
        let row_off = with_obs_off run in
        check_bool "no payload when disabled" true
          (row_off.O.Runner.obs = None);
        let row_on = with_obs_on run in
        match row_on.O.Runner.obs with
        | None -> Alcotest.fail "expected an obs payload"
        | Some report ->
            check_bool "counted the run" true
              (report.O.Obs_report.counters.O.Obs_counters.commits > 0));
  ]

(* deterministic: List.iter over the first line of the exporter output
   keeps field order stable; see lib/obs/trace_export.ml *)

let suite =
  counter_tests @ span_tests @ non_interference_tests @ report_tests
  @ export_tests @ runner_obs_tests
