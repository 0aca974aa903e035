(* Fault model, fault-injecting executor and online crash repair. *)

open Util
module O = Util.O

let default_sched plat g = O.Heft.schedule plat g

(* --- fault spec grammar --- *)

let spec_grammar () =
  let resolved s makespan =
    O.Fault.resolve ~makespan (O.Fault.of_string s)
  in
  (match resolved "crash:3@120" 1000. with
  | O.Fault.Crash { proc; at } ->
      check_int "crash proc" 3 proc;
      check_float "crash at" 120. at
  | _ -> Alcotest.fail "expected a crash");
  (match resolved "crash:0@25%" 400. with
  | O.Fault.Crash { at; _ } -> check_float "relative crash at" 100. at
  | _ -> Alcotest.fail "expected a crash");
  (match resolved "outage:1@10-50%" 200. with
  | O.Fault.Outage { proc; from_; until } ->
      check_int "outage proc" 1 proc;
      check_float "outage from" 10. from_;
      check_float "outage until" 100. until
  | _ -> Alcotest.fail "expected an outage");
  (match resolved "degrade:2x1.5" 1. with
  | O.Fault.Degrade { proc; factor } ->
      check_int "degrade proc" 2 proc;
      check_float "degrade factor" 1.5 factor
  | _ -> Alcotest.fail "expected a degrade");
  (match resolved "flaky:0.25" 1. with
  | O.Fault.Flaky { prob; max_retries; backoff } ->
      check_float "flaky prob" 0.25 prob;
      check_int "default retries" 3 max_retries;
      check_float "default backoff" 1. backoff
  | _ -> Alcotest.fail "expected a flaky");
  (match resolved "flaky:0.5:7:0.25" 1. with
  | O.Fault.Flaky { max_retries; backoff; _ } ->
      check_int "explicit retries" 7 max_retries;
      check_float "explicit backoff" 0.25 backoff
  | _ -> Alcotest.fail "expected a flaky");
  (match resolved "rejoin:2@180" 1. with
  | O.Fault.Rejoin { proc; at } ->
      check_int "rejoin proc" 2 proc;
      check_float "rejoin at" 180. at
  | _ -> Alcotest.fail "expected a rejoin");
  (match resolved "rejoin:1@25%" 400. with
  | O.Fault.Rejoin { at; _ } -> check_float "relative rejoin at" 100. at
  | _ -> Alcotest.fail "expected a rejoin");
  List.iter
    (fun bad ->
      match O.Fault.of_string bad with
      | _ -> Alcotest.failf "accepted %S" bad
      | exception Invalid_argument _ -> ())
    [ ""; "crash"; "crash:x@3"; "crash:1@-5"; "outage:1@9"; "degrade:1x0.5";
      "flaky:1.5"; "meteor:1@2"; "rejoin"; "rejoin:1"; "rejoin:x@3";
      "rejoin:1@-5" ]

let spec_roundtrip () =
  List.iter
    (fun s ->
      let f = O.Fault.resolve ~makespan:1. (O.Fault.of_string s) in
      Alcotest.(check string) s s (O.Fault.to_string f))
    [ "crash:3@120"; "outage:1@10-50"; "degrade:2x1.5"; "flaky:0.25:3:1";
      "rejoin:2@180" ]

(* Unresolved specs — including makespan-relative times — survive
   print -> parse -> print unchanged (quarter-integer times and integer
   percentages print exactly under %g). *)
let spec_print_roundtrip =
  qtest "fault specs print/parse round-trip"
    QCheck2.Gen.(
      tup4 (int_bound 5) (int_bound 9)
        (tup2 (int_bound 400) (int_bound 99))
        (tup2 (int_bound 400) (int_bound 6)))
    (fun (kind, proc, (t1i, pct), (t2i, retries)) ->
      let q x = float_of_int x /. 4. in
      let s =
        match kind with
        | 0 -> Printf.sprintf "crash:%d@%g" proc (q t1i)
        | 1 -> Printf.sprintf "crash:%d@%d%%" proc pct
        | 2 ->
            Printf.sprintf "outage:%d@%g-%g" proc (q t1i)
              (q t1i +. q t2i +. 1.)
        | 3 -> Printf.sprintf "rejoin:%d@%g" proc (q t1i)
        | 4 -> Printf.sprintf "degrade:%dx%g" proc (q t2i +. 1.25)
        | _ ->
            Printf.sprintf "flaky:%g:%d:%g"
              (0.25 +. q (t2i mod 3))
              retries
              (q t1i +. 0.25)
      in
      O.Fault.spec_to_string (O.Fault.of_string s) = s)

(* --- faulty executor --- *)

let makespan_of = function
  | O.Faulty_executor.Completed { trace; _ } -> trace.O.Executor.makespan
  | O.Faulty_executor.Stranded _ -> Alcotest.fail "unexpectedly stranded"

let crash_strands () =
  let plat = O.Platform.homogeneous ~p:3 ~link_cost:1. in
  let g = build_graph (7, 1, 16) in
  let sched = default_sched plat g in
  let nominal = O.Schedule.makespan sched in
  (* crash every processor at time 0: nothing can run *)
  let faults = List.init 3 (fun q -> O.Fault.crash ~proc:q ~at:0.) in
  (match O.Faulty_executor.run ~faults sched with
  | O.Faulty_executor.Stranded { stranded; _ } ->
      check_int "everything stranded" (O.Graph.n_tasks g) (List.length stranded)
  | O.Faulty_executor.Completed _ -> Alcotest.fail "completed under total loss");
  (* crash past the makespan: harmless *)
  let faults = [ O.Fault.crash ~proc:0 ~at:(nominal *. 2.) ] in
  check_float "late crash is harmless" nominal
    (makespan_of (O.Faulty_executor.run ~faults sched))

let outage_defers () =
  let plat = O.Platform.homogeneous ~p:2 ~link_cost:1. in
  let g = build_graph (11, 0, 12) in
  let sched = default_sched plat g in
  let nominal = O.Schedule.makespan sched in
  let faults =
    [ O.Fault.resolve ~makespan:nominal
        (O.Fault.of_string "outage:0@0-50%") ]
  in
  match O.Faulty_executor.run ~faults sched with
  | O.Faulty_executor.Completed { trace; stats } ->
      check_bool "outage can only delay" true
        (trace.O.Executor.makespan >= nominal);
      check_bool "dispatches were deferred" true
        (stats.O.Faulty_executor.deferred > 0)
  | O.Faulty_executor.Stranded _ -> Alcotest.fail "outage must not strand"

let degrade_stretches () =
  let plat = O.Platform.homogeneous ~p:2 ~link_cost:2. in
  let g = build_graph (3, 1, 14) in
  let sched = default_sched plat g in
  let nominal = makespan_of (O.Faulty_executor.run ~faults:[] sched) in
  let degraded =
    makespan_of
      (O.Faulty_executor.run
         ~faults:[ O.Fault.resolve ~makespan:1. (O.Fault.of_string "degrade:0x4") ]
         sched)
  in
  check_bool "degraded links can only lengthen" true (degraded >= nominal);
  if O.Schedule.comms sched <> [] then
    check_bool "a x4 link visibly stretches execution" true (degraded > nominal)

(* one flaky spec per scenario: a second would otherwise be ignored *)
let second_flaky_rejected () =
  let plat = O.Platform.homogeneous ~p:2 ~link_cost:2. in
  let g = build_graph (5, 1, 14) in
  let sched = default_sched plat g in
  ignore (O.Faulty_executor.run ~faults:[ O.Fault.flaky 0.05 ] sched);
  match
    O.Faulty_executor.run
      ~faults:[ O.Fault.flaky 0.05; O.Fault.flaky 0.5 ]
      sched
  with
  | _ -> Alcotest.fail "accepted two flaky specs"
  | exception Invalid_argument _ -> ()

let flaky_retries () =
  let plat = O.Platform.homogeneous ~p:2 ~link_cost:2. in
  let g = build_graph (5, 1, 14) in
  let sched = default_sched plat g in
  if O.Schedule.comms sched = [] then Alcotest.fail "testbed has no comms";
  (* certain failure, zero retries: every hop is lost *)
  (match
     O.Faulty_executor.run
       ~faults:[ O.Fault.flaky ~max_retries:0 1.0 ]
       sched
   with
  | O.Faulty_executor.Stranded _ -> ()
  | O.Faulty_executor.Completed _ ->
      Alcotest.fail "all hops lost yet execution completed");
  (* a deep retry budget absorbs even highly lossy links; some seed in a
     small deterministic pool must observe at least one retry *)
  let saw_retry = ref false in
  for seed = 1 to 20 do
    let rng = O.Rng.create ~seed in
    match
      O.Faulty_executor.run ~rng
        ~faults:[ O.Fault.flaky ~max_retries:50 ~backoff:0.5 0.9 ]
        sched
    with
    | O.Faulty_executor.Completed { stats; _ } ->
        if stats.O.Faulty_executor.retries > 0 then begin
          saw_retry := true;
          check_bool "backoff time accumulated" true
            (stats.O.Faulty_executor.backoff_time > 0.)
        end
    | O.Faulty_executor.Stranded _ ->
        Alcotest.fail "50-deep retry budget should absorb p=0.9 failures"
  done;
  check_bool "retries happened" true !saw_retry

(* --- crash + rejoin windows --- *)

let outcome_of faults sched =
  match O.Faulty_executor.run ~faults sched with
  | O.Faulty_executor.Completed { trace; _ } ->
      `Completed trace.O.Executor.makespan
  | O.Faulty_executor.Stranded { stranded; events_fired; _ } ->
      `Stranded (List.sort compare stranded, events_fired)

let rejoin_closes_the_window () =
  let plat = O.Platform.homogeneous ~p:3 ~link_cost:1. in
  let g = build_graph (7, 1, 16) in
  let sched = default_sched plat g in
  let nominal = O.Schedule.makespan sched in
  let crash at = O.Fault.Crash { proc = 0; at } in
  let rejoin at = O.Fault.Rejoin { proc = 0; at } in
  (* a down window entirely past the makespan is harmless *)
  check_bool "late window is harmless" true
    (outcome_of [ crash (2. *. nominal); rejoin (3. *. nominal) ] sched
    = `Completed nominal);
  (* killed work must not silently resume: a rejoin after the last start
     changes nothing about what the crash stranded *)
  check_bool "stranded work stays stranded" true
    (outcome_of [ crash 0. ] sched
    = outcome_of [ crash 0.; rejoin (2. *. nominal) ] sched);
  (* closing the window earlier can only let more of the schedule fire *)
  let fired = function
    | `Completed _ -> max_int
    | `Stranded (_, events) -> events
  in
  check_bool "an earlier rejoin only helps" true
    (fired (outcome_of [ crash 0.; rejoin (0.5 *. nominal) ] sched)
    >= fired (outcome_of [ crash 0. ] sched))

(* The window kills exactly the work inside it: crash at the last task's
   start, rejoin at its finish — only that task is lost, everything
   before it (and any work planned after the rejoin) runs. *)
let rejoin_window_is_precise () =
  let plat = O.Platform.homogeneous ~p:2 ~link_cost:1. in
  let g = build_graph (11, 0, 12) in
  let sched = default_sched plat g in
  let victim =
    let best = ref (O.Schedule.placement_exn sched 0) in
    for t = 1 to O.Graph.n_tasks g - 1 do
      let pl = O.Schedule.placement_exn sched t in
      if pl.O.Schedule.start > !best.O.Schedule.start then best := pl
    done;
    !best
  in
  let faults =
    [
      O.Fault.Crash
        { proc = victim.O.Schedule.proc; at = victim.O.Schedule.start };
      O.Fault.Rejoin
        { proc = victim.O.Schedule.proc; at = victim.O.Schedule.finish };
    ]
  in
  match O.Faulty_executor.run ~faults sched with
  | O.Faulty_executor.Stranded { stranded; _ } ->
      check_bool "exactly the victim is lost" true
        (stranded = [ victim.O.Schedule.task ])
  | O.Faulty_executor.Completed _ ->
      Alcotest.fail "the victim's window must strand it"

(* --- online repair --- *)

(* Satellite property: a repaired schedule is a schedule — it passes the
   full independent validator, and it executes to completion under the
   very crash it repairs. *)
let repair_validates =
  qtest "repaired schedules validate and survive the crash"
    QCheck2.Gen.(
      tup4 graph_gen platform_gen (float_range 0.05 0.95) (int_bound 1000))
    (fun (gd, plat, frac, procpick) ->
      let g = build_graph gd in
      let sched = default_sched plat g in
      let nominal = O.Schedule.makespan sched in
      let proc = procpick mod O.Platform.p plat in
      let at = frac *. nominal in
      let r = O.Repair.crash ~proc ~at sched in
      let repaired = r.O.Repair.schedule in
      (match O.Validate.check repaired with
      | Ok () -> ()
      | Error es ->
          QCheck2.Test.fail_reportf "invalid repair: %s" (List.hd es));
      (match
         O.Faulty_executor.run
           ~faults:[ O.Fault.crash ~proc ~at ]
           repaired
       with
      | O.Faulty_executor.Completed _ -> ()
      | O.Faulty_executor.Stranded { stranded; _ } ->
          QCheck2.Test.fail_reportf "repair stranded %d tasks"
            (List.length stranded));
      (* the nominal schedule's decisions are untouched *)
      O.Schedule.makespan sched = nominal)

let repair_is_noop_after_makespan () =
  let plat = O.Platform.paper_platform () in
  let g = build_graph (13, 2, 15) in
  let sched = default_sched plat g in
  let nominal = O.Schedule.makespan sched in
  let r = O.Repair.crash ~proc:0 ~at:(nominal +. 1.) sched in
  check_int "nothing to re-map" 0 (List.length r.O.Repair.remapped);
  check_float "makespan unchanged" nominal r.O.Repair.repaired_makespan

let repair_rejects_bad_input () =
  let plat = O.Platform.homogeneous ~p:2 ~link_cost:1. in
  let g = build_graph (1, 0, 8) in
  let sched = default_sched plat g in
  Alcotest.check_raises "bad proc" (Invalid_argument
    "Repair.crash: processor 9 out of range (platform has 2)")
    (fun () -> ignore (O.Repair.crash ~proc:9 ~at:1. sched));
  Alcotest.check_raises "negative time"
    (Invalid_argument "Repair.crash: negative crash time") (fun () ->
      ignore (O.Repair.crash ~proc:0 ~at:(-1.) sched))

let registry_repair_agrees () =
  let plat = O.Platform.paper_platform () in
  let g = build_graph (21, 1, 16) in
  let sched = default_sched plat g in
  let at = 0.3 *. O.Schedule.makespan sched in
  let a = O.Registry.repair ~proc:1 ~at sched in
  let b = O.Repair.crash ~proc:1 ~at sched in
  check_float "same repaired makespan" b.O.Repair.repaired_makespan
    a.O.Repair.repaired_makespan

let runner_survival () =
  let cfg = O.Config.paper ~scale:0.2 () in
  let row =
    O.Runner.run cfg ~testbed:(O.Suite.find "lu") ~n:20
      ~heuristic:(O.Registry.find "heft") ~crash:(2, 0.25) ()
  in
  match row.O.Runner.survival with
  | None -> Alcotest.fail "crash drill produced no survival stats"
  | Some s ->
      check_int "crashed proc recorded" 2 s.O.Runner.crash_proc;
      check_bool "repair validated" true s.O.Runner.repaired_valid;
      check_bool "repair executed to completion" true s.O.Runner.completed;
      check_bool "some tasks re-mapped" true (s.O.Runner.remapped > 0);
      let rendered = O.Table.to_string (O.Runner.table [ row ]) in
      check_bool "table grows a survives column" true
        (contains rendered "survives")

(* --- the ISSUE's acceptance drill --- *)

(* Every registered heuristic, every paper testbed (n=100, ccr=10, paper
   platform), one crash at 25% of the nominal makespan: the repaired
   schedule validates and executes to completion under the crash. *)
let acceptance () =
  let plat = O.Platform.paper_platform () in
  List.iter
    (fun (tb : O.Suite.t) ->
      let g = tb.O.Suite.build ~n:100 ~ccr:10. in
      List.iter
        (fun (e : O.Registry.entry) ->
          let sched = e.O.Registry.scheduler O.Params.default plat g in
          let at = 0.25 *. O.Schedule.makespan sched in
          let r = O.Repair.crash ~proc:2 ~at sched in
          let repaired = r.O.Repair.schedule in
          let label = Printf.sprintf "%s/%s" tb.O.Suite.name e.O.Registry.name in
          (match O.Validate.check repaired with
          | Ok () -> ()
          | Error es ->
              Alcotest.failf "%s: invalid repair: %s" label (List.hd es));
          match
            O.Faulty_executor.run
              ~faults:[ O.Fault.crash ~proc:2 ~at ]
              repaired
          with
          | O.Faulty_executor.Completed _ -> ()
          | O.Faulty_executor.Stranded { stranded; _ } ->
              Alcotest.failf "%s: %d tasks stranded after repair" label
                (List.length stranded))
        O.Registry.all)
    O.Suite.all

let suite =
  [
    Alcotest.test_case "fault spec grammar parses and rejects" `Quick
      spec_grammar;
    Alcotest.test_case "fault specs round-trip through to_string" `Quick
      spec_roundtrip;
    spec_print_roundtrip;
    Alcotest.test_case "crashes strand dependents; late crashes are harmless"
      `Quick crash_strands;
    Alcotest.test_case "rejoins close crash windows without resuming work"
      `Quick rejoin_closes_the_window;
    Alcotest.test_case "a crash-rejoin window kills exactly the work inside"
      `Quick rejoin_window_is_precise;
    Alcotest.test_case "outages defer dispatches" `Quick outage_defers;
    Alcotest.test_case "degraded links stretch execution" `Quick
      degrade_stretches;
    Alcotest.test_case "flaky hops retry with backoff, then strand" `Quick
      flaky_retries;
    repair_validates;
    Alcotest.test_case "a second flaky spec is rejected" `Quick
      second_flaky_rejected;
    Alcotest.test_case "repair after the makespan is a no-op" `Quick
      repair_is_noop_after_makespan;
    Alcotest.test_case "repair rejects bad input" `Quick
      repair_rejects_bad_input;
    Alcotest.test_case "Registry.repair is Repair.crash" `Quick
      registry_repair_agrees;
    Alcotest.test_case "runner rows carry crash-survival stats" `Quick
      runner_survival;
    Alcotest.test_case "acceptance: crash at 25% on all testbeds x heuristics"
      `Slow acceptance;
  ]
