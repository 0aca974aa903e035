(** Fault-free discrete-event execution of a schedule's decisions:
    {!Faulty_executor.run} with an empty scenario.

    Events (task executions and communication hops of the {!Pert.extract}
    decision DAG) fire as soon as all their data dependencies have
    completed and they are at the head of the FIFO of {e every} resource
    they occupy (compute unit, send port, receive port, shared link — per
    the model), with each of those resources free.  Because the decision
    orders come from a valid schedule, execution always completes, and the
    resulting makespan must equal {!Pert.compacted_makespan}: the property
    tests pin the event-driven loop against the longest-path loop, and
    {!Sched.Validate} checks the schedule independently of the shared
    wiring. *)

type trace = Faulty_executor.trace = {
  makespan : float;
  task_starts : float array;
  events_fired : int;
      (** total events processed (tasks, copies and communication hops) *)
}

(** [run s] — execute the schedule's decisions as-soon-as-possible.
    @raise Failure if execution deadlocks, which would mean the recorded
    orders are inconsistent (a corrupt schedule). *)
val run : Sched.Schedule.t -> trace
