(* Executor and I/O round-trips: the discrete-event executor must agree
   with the PERT longest-path view on every model and on copy-set
   schedules; the text formats must invert. *)

module O = Onesched
open Util

let executor_tests =
  [
    (* The executor is the empty fault scenario: it completes with zero
       fault stats, and its event-driven loop agrees with PERT's
       longest-path loop over the shared extraction — on HEFT across the
       ladder and on heft-dup copy-set schedules.  The extraction itself
       is pinned by the replay: never later than the schedule, and on the
       port regime, where every event occupies its whole span, every task
       starts exactly when its earliest copy was planned to. *)
    qtest ~count:80 "executor agrees with PERT compaction"
      QCheck2.Gen.(tup4 graph_gen platform_gen model_gen bool)
      (fun (params, plat, model, dup) ->
        let g = build_graph params in
        let params = O.Params.of_model model in
        let sched =
          if dup then O.Heft_dup.schedule ~params plat g
          else O.Heft.schedule ~params plat g
        in
        let pert = O.Pert.build sched in
        match O.Faulty_executor.run ~faults:[] sched with
        | O.Faulty_executor.Completed { trace; stats } ->
            let replayed = trace.O.Executor.makespan in
            stats
            = { O.Faulty_executor.retries = 0; backoff_time = 0.; deferred = 0 }
            && Prelude.Stats.fequal replayed (O.Pert.compacted_makespan pert)
            && replayed <= O.Schedule.makespan sched +. 1e-9
            && (model.O.Comm_model.regime <> O.Comm_model.Port
               || List.for_all
                    (fun v ->
                      let planned_start =
                        List.fold_left
                          (fun t (c : O.Schedule.placement) -> min t c.start)
                          infinity (O.Schedule.copies sched v)
                      in
                      Prelude.Stats.fequal planned_start
                        trace.O.Executor.task_starts.(v))
                    (List.init (O.Graph.n_tasks g) Fun.id))
        | O.Faulty_executor.Stranded _ -> false);
    qtest ~count:40 "executor fires every event exactly once"
      QCheck2.Gen.(tup2 graph_gen platform_gen)
      (fun (params, plat) ->
        let g = build_graph params in
        let sched = O.Ilha.schedule plat g in
        let trace = O.Executor.run sched in
        trace.O.Executor.events_fired
        = O.Graph.n_tasks g + O.Schedule.n_comm_events sched);
    Alcotest.test_case "executor start times respect dependencies" `Quick
      (fun () ->
        let g =
          O.Graph.create ~weights:[| 1.; 2. |] ~edges:[ (0, 1, 3.) ] ()
        in
        let plat = O.Platform.homogeneous ~p:2 ~link_cost:1. in
        let sched = O.Heft.schedule plat g in
        let trace = O.Executor.run sched in
        check_float "chain start" 0. trace.O.Executor.task_starts.(0);
        check_bool "successor waits" true
          (trace.O.Executor.task_starts.(1) >= 1.));
  ]

let graph_io_tests =
  [
    qtest ~count:100 "graph text format round-trips" graph_gen (fun params ->
        let g = build_graph params in
        let g' = O.Graph_io.of_string (O.Graph_io.to_string g) in
        O.Graph.n_tasks g' = O.Graph.n_tasks g
        && O.Graph.n_edges g' = O.Graph.n_edges g
        && List.for_all
             (fun v -> O.Graph.weight g' v = O.Graph.weight g v)
             (List.init (O.Graph.n_tasks g) Fun.id)
        && List.for_all2
             (fun (a : O.Graph.edge) (b : O.Graph.edge) ->
               a.src = b.src && a.dst = b.dst && a.data = b.data)
             (O.Graph.edges g) (O.Graph.edges g'));
    Alcotest.test_case "parses the documented example" `Quick (fun () ->
        let g =
          O.Graph_io.of_string
            "# my application\ngraph my-app\ntask 0 2.5\ntask 1 4\nedge 0 1 10\n"
        in
        Alcotest.(check string) "name" "my-app" (O.Graph.name g);
        check_float "weight" 2.5 (O.Graph.weight g 0);
        check_int "edges" 1 (O.Graph.n_edges g));
    Alcotest.test_case "rejects malformed input with line numbers" `Quick
      (fun () ->
        let expect_fail text fragment =
          match O.Graph_io.of_string text with
          | exception Invalid_argument msg ->
              check_bool
                (Printf.sprintf "%S mentions %S" msg fragment)
                true (contains msg fragment)
          | _ -> Alcotest.fail "accepted malformed input"
        in
        expect_fail "task 0 oops\n" "line 1";
        expect_fail "task 0 1\ntask 0 2\n" "duplicate";
        expect_fail "bogus stuff\n" "unknown directive";
        expect_fail "task 1 1\n" "missing task 0");
    Alcotest.test_case "file save/load round-trip" `Quick (fun () ->
        let g = O.Kernels.fork_join ~n:4 ~ccr:2. in
        let path = Filename.temp_file "onesched" ".tg" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            O.Graph_io.save g path;
            let g' = O.Graph_io.load path in
            check_int "tasks" (O.Graph.n_tasks g) (O.Graph.n_tasks g')));
  ]

let platform_io_tests =
  [
    Alcotest.test_case "parses the three interconnect forms" `Quick (fun () ->
        let full =
          O.Platform.of_description "cycle-times 1 2 3\nlink-cost 2\n"
        in
        check_float "uniform" 2. (O.Platform.link full ~src:0 ~dst:2);
        let topo =
          O.Platform.of_description
            "cycle-times 1 1 1\nlink 0 1 1\nlink 1 2 1\n"
        in
        check_float "routed" 2. (O.Platform.link topo ~src:0 ~dst:2);
        let matrix =
          O.Platform.of_description
            "cycle-times 1 1\nrow 0 5\nrow 3 0\n"
        in
        check_float "asymmetric" 5. (O.Platform.link matrix ~src:0 ~dst:1);
        check_float "asymmetric back" 3. (O.Platform.link matrix ~src:1 ~dst:0));
    Alcotest.test_case "description round-trips pairwise costs" `Quick
      (fun () ->
        List.iter
          (fun plat ->
            let plat' = O.Platform.of_description (O.Platform.to_description plat) in
            check_int "p" (O.Platform.p plat) (O.Platform.p plat');
            for q = 0 to O.Platform.p plat - 1 do
              check_float "cycle" (O.Platform.cycle_time plat q)
                (O.Platform.cycle_time plat' q);
              for r = 0 to O.Platform.p plat - 1 do
                check_float "cost"
                  (O.Platform.link plat ~src:q ~dst:r)
                  (O.Platform.link plat' ~src:q ~dst:r)
              done
            done)
          [
            O.Platform.paper_platform ();
            O.Platform.star ~cycle_times:[| 1.; 2.; 3. |] ~spoke_cost:2. ();
            O.Platform.ring ~cycle_times:(Array.make 4 1.) ~link_cost:3. ();
          ]);
    Alcotest.test_case "rejects inconsistent descriptions" `Quick (fun () ->
        let expect_fail text =
          match O.Platform.of_description text with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "accepted malformed description"
        in
        expect_fail "link-cost 1\n";
        expect_fail "cycle-times 1 1\n";
        expect_fail "cycle-times 1 1\nlink-cost 1\nlink 0 1 1\n";
        expect_fail "cycle-times 1 1\nwhatever\n");
  ]

let suite = executor_tests @ graph_io_tests @ platform_io_tests
