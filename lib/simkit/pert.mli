(** Dependency (PERT) view of a finished schedule.

    A schedule fixes three kinds of decisions: where tasks run, in which
    order each processor executes its tasks, and in which order each port
    carries its messages.  {!extract} turns exactly those decisions into a
    DAG over events (task executions, duplicate copies and communication
    hops): the one decision-DAG extraction of the library.  Two timing
    loops run on it — the longest-path re-timing below and the
    event-driven FIFO executor ({!Faulty_executor}, {!Executor}) — while
    {!Sched.Validate} re-checks the schedule independently of this
    wiring.

    Re-timing the DAG with new durations answers two questions the library
    needs: the {e compacted} makespan (same decisions, all idle squeezed
    out — never worse than the original), and the {e degraded} makespan
    under execution-time jitter (robustness / failure injection), both
    without re-running any heuristic. *)

(** A schedule's decisions as an event DAG.  Events [0 .. n_tasks-1] are
    the tasks (their primary copies), then hop [i] is event
    [n_tasks + i], then duplicate copy [j] is event
    [n_tasks + Array.length comms + j].  Data edges and resource order
    are kept apart: an event lost under a fault leaves its FIFO slot but
    never feeds its data dependents. *)
type dag = {
  n_tasks : int;
  comms : Sched.Schedule.comm array;  (** hops in commit order *)
  copies : Sched.Schedule.placement array;
      (** duplicate copies, task by task (empty on single-copy schedules) *)
  durations : float array;  (** recorded duration of every event *)
  deps : int list array;
      (** data dependents of every event: source finish → first hop → …
          → last hop → destination start (per provenance chain and local
          feed on copy-set schedules) *)
  fifos : int array array;
      (** one entry per occupied resource — compute unit, send / receive
          port, shared link, per the model's port discipline, including
          hops on both compute units under no-overlap models — listing its
          events in recorded start order *)
}

val extract : Sched.Schedule.t -> dag

(** [task_of d node] — the task event [node] executes (the replicated
    task for a duplicate copy), or [-1] for a communication hop. *)
val task_of : dag -> int -> int

type t

(** [build s] — {!extract}, with every resource FIFO chained into the
    dependency edges. *)
val build : Sched.Schedule.t -> t

val n_events : t -> int

(** [retime t ~task_duration ~hop_duration] — earliest-start times under
    the recorded decision orders with rescaled durations; each callback
    receives the event's {e original} duration and returns the new one.
    Returns the resulting makespan (maximum task finish). *)
val retime :
  t ->
  task_duration:(int -> float -> float) ->
  hop_duration:(Sched.Schedule.comm -> float -> float) ->
  float

(** [compacted_makespan t] — {!retime} with the original durations; always
    [<=] the original makespan (property-tested). *)
val compacted_makespan : t -> float
