module Schedule = Sched.Schedule
module Rng = Prelude.Rng

type trace = { makespan : float; task_starts : float array; events_fired : int }

type stats = { retries : int; backoff_time : float; deferred : int }

type outcome =
  | Completed of { trace : trace; stats : stats }
  | Stranded of {
      stranded : int list;
      events_fired : int;
      total_events : int;
      partial_makespan : float;
      stats : stats;
    }

(* Per-event dispatch state. *)
let pending = '\000'
let live = '\001'
let lost = '\002'

(* The fault hooks sit exactly at the dispatch point, so an empty scenario
   adds nothing to the fault-free arithmetic. *)
let run ?rng ?(task_jitter = 0.) ?(comm_jitter = 0.) ~faults s =
  let rng = match rng with Some r -> r | None -> Rng.create ~seed:0 in
  let p = Platform.p (Schedule.platform s) in
  List.iter (Fault.validate ~p) faults;
  (* --- scenario tables --- *)
  let crashes = Array.make p [] in
  let rejoins = Array.make p [] in
  let degrade = Array.make p 1. in
  let outages = Array.make p [] in
  let flaky = ref None in
  List.iter
    (function
      | Fault.Crash { proc; at } -> crashes.(proc) <- at :: crashes.(proc)
      | Fault.Rejoin { proc; at } -> rejoins.(proc) <- at :: rejoins.(proc)
      | Fault.Outage { proc; from_; until } ->
          outages.(proc) <- (from_, until) :: outages.(proc)
      | Fault.Degrade { proc; factor } -> degrade.(proc) <- degrade.(proc) *. factor
      | Fault.Flaky { prob; max_retries; backoff } ->
          if !flaky <> None then
            invalid_arg "Faulty_executor.run: more than one flaky fault";
          flaky := Some (prob, max_retries, backoff))
    faults;
  Array.iteri (fun q l -> outages.(q) <- List.sort compare l) outages;
  (* Down windows per processor: each crash opens [c, r) where r is the
     first rejoin strictly after c (or forever without one).  Crucially a
     rejoin closes the window for *new* work only — anything the static
     plan dispatched inside the window is lost, never silently resumed on
     the rejoined processor; recovering it takes an explicit repair
     decision (Repair / lib/online).  Without rejoins this degenerates to
     the historical single [min crash, +inf) window. *)
  let down = Array.make p [] in
  for q = 0 to p - 1 do
    let rec pair cs rs acc =
      match cs with
      | [] -> List.rev acc
      | c :: cs' -> (
          match List.filter (fun r -> r > c) rs with
          | [] -> List.rev ((c, infinity) :: acc)
          | r :: _ -> pair (List.filter (fun c2 -> c2 >= r) cs') rs ((c, r) :: acc))
    in
    down.(q) <- pair (List.sort compare crashes.(q)) (List.sort compare rejoins.(q)) []
  done;
  (* --- the decision DAG --- *)
  let d = Pert.extract s in
  let n = d.Pert.n_tasks in
  let k = Array.length d.comms in
  let nd = Array.length d.copies in
  let total = Array.length d.durations in
  let deps_remaining = Array.make total 0 in
  Array.iter (List.iter (fun b -> deps_remaining.(b) <- deps_remaining.(b) + 1)) d.deps;
  (* the resources each event occupies, as indices into [d.fifos] *)
  let node_resources = Array.make total [] in
  Array.iteri
    (fun r order ->
      Array.iter (fun node -> node_resources.(node) <- r :: node_resources.(node)) order)
    d.fifos;
  let cursor = Array.make (Array.length d.fifos) 0 in
  let free_at = Array.make (Array.length d.fifos) 0. in
  (* --- simulation --- *)
  let ready_time = Array.make total 0. in
  let state = Bytes.make total pending in
  let any_lost = ref false in
  (* running events ordered by completion time (ties by node) *)
  let running =
    Prelude.Pqueue.create ~compare:(fun (t1, n1) (t2, n2) ->
        match compare (t1 : float) t2 with 0 -> compare n1 n2 | c -> c)
  in
  let events_fired = ref 0 in
  let task_starts = Array.make n (if nd = 0 then 0. else infinity) in
  (* a duplicated task completes at its earliest surviving copy's finish *)
  let task_fin = if nd = 0 then [||] else Array.make n infinity in
  let makespan = ref 0. in
  let retries = ref 0 in
  let backoff_time = ref 0. in
  let deferred = ref 0 in
  let can_fire node =
    Bytes.get state node = pending
    && deps_remaining.(node) = 0
    && List.for_all
         (fun r ->
           let cur = cursor.(r) in
           cur < Array.length d.fifos.(r) && d.fifos.(r).(cur) = node)
         node_resources.(node)
  in
  (* The compute element a task or copy runs on, for crash windows. *)
  let compute_proc node =
    if node < n then Schedule.proc_of_exn s node else d.copies.(node - n - k).proc
  in
  (* Outage deferral to a fixpoint: escaping one window may land inside
     another (possibly on the other endpoint of a hop). *)
  let escape q t =
    List.fold_left (fun t (a, b) -> if t >= a && t < b then b else t) t outages.(q)
  in
  let rec defer node ~hop t =
    let t' =
      if hop then
        let c = d.comms.(node - n) in
        escape c.dst_proc (escape c.src_proc t)
      else escape (compute_proc node) t
    in
    if t' > t then defer node ~hop t' else t
  in
  (* Flaky transmission: bounded retries with exponential backoff.  The
     time the hop took, or [-1.] once it exhausts its budget and the data
     is lost. *)
  let transmit (prob, max_retries, backoff) dur =
    let rec attempt i elapsed paused =
      if Rng.float rng 1. < prob then
        if i >= max_retries then -1.
        else
          let pause = backoff *. (2. ** float_of_int i) in
          attempt (i + 1) (elapsed +. dur +. pause) (paused +. pause)
      else begin
        if i > 0 then begin
          retries := !retries + i;
          backoff_time := !backoff_time +. paused;
          for _ = 1 to i do
            Obs.Counters.retry ()
          done;
          Obs.Counters.backoff paused
        end;
        elapsed +. dur
      end
    in
    attempt 0 0. 0.
  in
  (* Firing a node frees the head position of each of its FIFOs, so only
     its resource-successors and (on completion) its data dependents can
     become enabled: a worklist keeps the simulation near-linear. *)
  let rec try_fire node =
    if can_fire node then begin
      let start0 =
        List.fold_left
          (fun acc r -> if acc >= free_at.(r) then acc else free_at.(r))
          ready_time.(node) node_resources.(node)
      in
      let v = Pert.task_of d node in
      let hop = v < 0 in
      let start = defer node ~hop start0 in
      if start > start0 then incr deferred;
      (* duration under jitter and link degradation *)
      let dur =
        if hop then
          let c = d.comms.(node - n) in
          let dur =
            if comm_jitter > 0. then
              d.durations.(node) *. (1. +. Rng.float rng comm_jitter)
            else d.durations.(node)
          in
          dur *. degrade.(c.src_proc) *. degrade.(c.dst_proc)
        else if task_jitter > 0. then
          d.durations.(node) *. (1. +. Rng.float rng task_jitter)
        else d.durations.(node)
      in
      (* a crashed compute element kills whatever it is running when the
         crash hits and runs nothing dispatched inside a down window —
         even if the processor later rejoins, that work stays lost.  A
         duplicated task merely loses that copy; it completes as long as
         some replica survives. *)
      let killed =
        (not hop)
        && List.exists
             (fun (a, b) ->
               (start >= a && start < b) || (start < a && start +. dur > a))
             down.(compute_proc node)
      in
      let elapsed =
        if killed then -1.
        else
          match !flaky with
          | Some spec when hop && d.durations.(node) > 0. -> transmit spec dur
          | _ -> dur
      in
      if elapsed < 0. then begin
        (* lost work is cancelled: it vacates every FIFO position below
           without occupying time, so unrelated traffic keeps flowing, but
           never completes — dependents stay blocked and strand *)
        Bytes.set state node lost;
        any_lost := true
      end
      else begin
        Bytes.set state node live;
        incr events_fired;
        let finish = start +. elapsed in
        if hop then ()
        else if nd = 0 then begin
          task_starts.(v) <- start;
          if finish > !makespan then makespan := finish
        end
        else begin
          if start < task_starts.(v) then task_starts.(v) <- start;
          if finish < task_fin.(v) then task_fin.(v) <- finish
        end;
        List.iter (fun r -> free_at.(r) <- finish) node_resources.(node);
        Prelude.Pqueue.add running (finish, node)
      end;
      List.iter (fun r -> cursor.(r) <- cursor.(r) + 1) node_resources.(node);
      (* the new heads of this node's FIFOs are now candidates *)
      List.iter
        (fun r ->
          let cur = cursor.(r) in
          if cur < Array.length d.fifos.(r) then try_fire d.fifos.(r).(cur))
        node_resources.(node)
    end
  in
  for node = 0 to total - 1 do
    try_fire node
  done;
  let rec step () =
    match Prelude.Pqueue.pop running with
    | None -> ()
    | Some (finish, node) ->
        List.iter
          (fun b ->
            deps_remaining.(b) <- deps_remaining.(b) - 1;
            if ready_time.(b) < finish then ready_time.(b) <- finish)
          d.deps.(node);
        List.iter try_fire d.deps.(node);
        step ()
  in
  step ();
  let stats =
    { retries = !retries; backoff_time = !backoff_time; deferred = !deferred }
  in
  if nd > 0 then
    Array.iter
      (fun f -> if f < infinity && f > !makespan then makespan := f)
      task_fin;
  (* A task completes when any of its copies does; on single-copy
     schedules that is "the task fired live". *)
  let task_completed v =
    if nd = 0 then Bytes.get state v = live else task_fin.(v) < infinity
  in
  (* Every event fires unless work was lost: an unfired event with nothing
     lost is a deadlock (inconsistent recorded orders).  Lost duplicate
     copies may strand events whose task another copy still completes. *)
  let completed =
    !events_fired = total
    || (nd > 0 && !any_lost && List.for_all task_completed (List.init n Fun.id))
  in
  if completed then
    Completed
      {
        trace =
          { makespan = !makespan; task_starts; events_fired = !events_fired };
        stats;
      }
  else
    Stranded
      {
        stranded = List.filter (fun v -> not (task_completed v)) (List.init n Fun.id);
        events_fired = !events_fired;
        total_events = total;
        partial_makespan = !makespan;
        stats;
      }
