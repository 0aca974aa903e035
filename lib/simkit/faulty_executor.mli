(** Discrete-event execution of a schedule's decisions, optionally under
    injected faults.

    The event-driven FIFO timing loop over the decision DAG of
    {!Pert.extract} (the longest-path loop is {!Pert.retime}; the
    fault-free run is {!Executor.run}).  Keep only the schedule's
    decisions — allocation, per-processor task order, per-port message
    order — and fire events with an event queue as soon as their data
    dependencies complete and every resource they occupy is free and
    reaches them in FIFO order.  Each dispatch first consults the fault
    scenario:

    - a {!Fault.Crash}ed processor executes no task dispatched at or
      beyond the crash instant, and a task still running when the crash
      hits is lost; completed outputs are durable and remain fetchable
      through the dead node's ports (checkpoint-on-completion — see
      [doc/robustness.md]).  A later {!Fault.Rejoin} of the same
      processor closes the down window for {e new} work only: anything
      the plan dispatched inside [[crash, rejoin)] stays lost and never
      silently resumes — recovering it takes an explicit repair
      decision ({!Heuristics.Repair}, [lib/online]);
    - a {!Fault.Outage} window delays any dispatch (task or hop) on the
      blacked-out processor to the window's end; in-flight work rides
      through;
    - {!Fault.Degrade} stretches every hop touching the processor by
      its factor (factors multiply when both endpoints are degraded);
    - {!Fault.Flaky} makes each hop attempt fail independently with the
      given probability; failed attempts are re-executed after
      exponential backoff ([backoff * 2^i] after the [i]-th failure) up
      to [max_retries] times, occupying their ports the whole while.  A
      hop that exhausts its budget is lost.

    Lost work is {e cancelled}: it vacates its position in every
    resource FIFO (so unrelated traffic keeps flowing) but never
    completes, leaving every transitive dependent stranded.  Execution
    then drains as far as it can; the outcome reports either a complete
    trace or the stranded task set.  A corrupt schedule whose recorded
    orders deadlock also ends [Stranded], with no work lost.

    With an empty scenario and no jitter the run completes on any valid
    schedule, with zero {!stats} and the makespan of
    {!Pert.compacted_makespan} (property-tested: two timing loops over one
    extraction). *)

type trace = {
  makespan : float;
  task_starts : float array;
      (** per task, the start of its earliest-starting copy *)
  events_fired : int;
      (** total events processed (tasks, copies and communication hops) *)
}

type stats = {
  retries : int;  (** failed hop attempts that were re-executed *)
  backoff_time : float;
      (** total simulated time spent waiting between retry attempts *)
  deferred : int;  (** dispatches delayed by an outage window *)
}

type outcome =
  | Completed of { trace : trace; stats : stats }
  | Stranded of {
      stranded : int list;
          (** tasks that never executed (killed or transitively blocked),
              ascending *)
      events_fired : int;
      total_events : int;
      partial_makespan : float;
          (** last completion among the events that did run *)
      stats : stats;
    }

(** [run ?rng ?task_jitter ?comm_jitter ~faults s] — execute under the
    scenario.  [rng] drives flaky-hop draws and jitter (default: a fresh
    seed-0 generator); [task_jitter]/[comm_jitter] additionally scale
    each event's duration by an independent uniform factor in
    [[1, 1 + jitter]] (default 0: durations are exactly the recorded
    ones).  Deterministic for a given [rng] seed.
    @raise Invalid_argument if a fault is malformed ({!Fault.validate})
    or the scenario holds more than one {!Fault.Flaky}. *)
val run :
  ?rng:Prelude.Rng.t ->
  ?task_jitter:float ->
  ?comm_jitter:float ->
  faults:Fault.t list ->
  Sched.Schedule.t ->
  outcome
