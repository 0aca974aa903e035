type trace = Faulty_executor.trace = {
  makespan : float;
  task_starts : float array;
  events_fired : int;
}

let run s =
  match Faulty_executor.run ~faults:[] s with
  | Faulty_executor.Completed { trace; _ } -> trace
  | Faulty_executor.Stranded { events_fired; total_events; _ } ->
      failwith
        (Printf.sprintf "Executor.run: deadlock after %d/%d events"
           events_fired total_events)
