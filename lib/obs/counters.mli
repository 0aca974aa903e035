(** Hot-path counters for the scheduling engine, the fault-handling
    machinery, the incremental kernel, the online driver and the
    [scheduld] daemon.

    The counters are table-driven.  One table in [counters.ml] holds a
    row per counter, in print order: its JSON key (the {!snapshot}
    field name, used by the Chrome counter event), its [--stats] label,
    and the {!pp} block it prints in.  Each domain keeps one slot per
    row; [zero], {!reset}, {!merge}, {!diff}, {!pp} and {!fields} are
    loops over the table and name no counter.  Adding a counter means:
    a {!snapshot} field (here and in [counters.ml]), a table row, its
    slot in the two record <-> slot conversions, and a bump function.

    Block 0 covers the per-decision costs that dominate every list
    heuristic in this library, and always prints:

    - [evaluations]: calls to [Engine.evaluate] — one candidate
      (task, processor) pair priced;
    - [pruned_evaluations]: candidate processors skipped without a full
      evaluation because a lower bound on their finish time already met
      the incumbent ([Engine.best_proc_among]'s fast path);
    - [route_cache_hits]: per-(source, destination) route/busy-set
      lookups served from the engine's cache instead of recomputing
      [Platform.route] and the port busy sets;
    - [gap_probes]: single-timeline earliest-gap searches
      ([Timeline.earliest_gap]);
    - [joint_gap_probes]: joint (one-port) earliest-gap searches
      ([Timeline.earliest_gap_joint] and its array fast path);
    - [tentative_hops]: communication hops planned during evaluation
      (most are discarded — only the winning processor's hops commit);
    - [commits]: evaluations actually committed ([Engine.commit]);
    - [copies]: whole-schedule copies ([Schedule.copy] — the cost of
      ILHA's reschedule variant and of the improvers).

    Block 1 traces fault handling ([Simkit.Faulty_executor],
    [Heuristics.Repair]):

    - [retries]: communication hops re-executed after a transient
      failure;
    - [repairs]: tasks re-mapped by the online repair pass;
    - [backoff_s]: total {e simulated} time spent waiting in
      exponential backoff between retry attempts (a float — simulated
      time units, not wall seconds).

    Block 2 traces the incremental kernel ([Schedule.restore],
    [Engine.rewind], the prefix-replay improvers and the undo-based
    branch-and-bound search):

    - [rollbacks]: whole-schedule rewinds ([Schedule.restore],
      [Engine.rewind]);
    - [replayed_tasks]: tasks re-committed by a prefix-replay rebuild
      (the suffix work an incremental move actually pays for);
    - [search_pruned_nodes]: branch-and-bound nodes cut by the incumbent
      bound in [Search.best_schedule].

    Block 3 traces the rolling-horizon online driver ([Online.Driver]):

    - [replans]: suffix re-plans triggered by arrivals, failures,
      rejoins or predicted deadline misses;
    - [shed_jobs]: pending jobs dropped by graceful degradation to
      protect a higher-priority deadline;
    - [frozen_tasks]: executed-prefix tasks whose decisions a re-plan
      kept verbatim (summed over re-plans);
    - [deadline_misses]: jobs that completed after their deadline (or
      were shed while holding one).

    Block 4 traces the scheduler-as-a-service daemon
    ([Server.Scheduld]):

    - [requests]: protocol request lines processed (including malformed
      ones answered with an error reply);
    - [batched_replans]: coalesced re-plans — each one schedules a whole
      batch of queued submissions in a single pass;
    - [queued_jobs]: submissions admitted to the backlog.

    Counting is globally toggleable and off by default.  When disabled,
    every bump is a single load-and-branch; when enabled, a
    domain-local-storage lookup plus an in-place store into the slot
    array — no allocation either way, so instrumented code can sit
    inside the innermost loops.

    {b Domains.}  Each domain accumulates into its own domain-local
    slot array, so parallel sweeps ({!Prelude.Pool}) never contend on
    shared state.  [reset]/[snapshot]/[merge] all act on the {e calling}
    domain's slots; the pool snapshots every worker at its barrier and
    [merge]s the snapshots into the spawning domain, which makes
    [--stats] totals independent of the number of jobs. *)

(** An immutable reading of all counters. *)
type snapshot = {
  evaluations : int;
  pruned_evaluations : int;
  route_cache_hits : int;
  gap_probes : int;
  joint_gap_probes : int;
  tentative_hops : int;
  commits : int;
  copies : int;
  retries : int;
  repairs : int;
  backoff_s : float;
  rollbacks : int;
  replayed_tasks : int;
  search_pruned_nodes : int;
  replans : int;
  shed_jobs : int;
  frozen_tasks : int;
  deadline_misses : int;
  requests : int;
  batched_replans : int;
  queued_jobs : int;
}

val zero : snapshot

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

(** Reset all counters to zero (independent of the enabled flag). *)
val reset : unit -> unit

val snapshot : unit -> snapshot

(** [diff before after] — per-field [after - before]. *)
val diff : snapshot -> snapshot -> snapshot

(** [merge d] adds every field of [d] into the calling domain's
    counters (independent of the enabled flag).  Used by
    {!Prelude.Pool} to fold worker-domain counts into the spawning
    domain at the barrier; counters are monotonic event counts, so the
    merged totals equal a serial run's regardless of sharding. *)
val merge : snapshot -> unit

(** Pretty one-line-per-counter rendering, one block after another in
    table order: block 0 (evaluations, pruned evaluations, route-cache
    hits, gap probes, joint gap probes, tentative hops, commits,
    copies), then the fault block (retries, repairs, backoff time), the
    incremental-kernel block (rollbacks, replayed tasks, search pruned),
    the online block (replans, shed jobs, frozen tasks, deadline misses)
    and the scheduld block (requests, batched replans, queued jobs),
    each of the last four printed only when one of its counters is
    nonzero.  The order is part of the CLI contract (cram tests pin
    it). *)
val pp : Format.formatter -> snapshot -> unit

(** [fields c] — every counter as [(key, value)] in table order, the
    key being its {!snapshot} field name and the value a JSON number
    (integral values as integers). *)
val fields : snapshot -> (string * string) list

(** {2 Bump sites} — no-ops while disabled. *)

val evaluation : unit -> unit
val pruned_evaluation : unit -> unit
val route_cache_hit : unit -> unit
val gap_probe : unit -> unit
val joint_gap_probe : unit -> unit
val tentative_hop : unit -> unit
val commit : unit -> unit
val copy : unit -> unit
val retry : unit -> unit
val repair : unit -> unit

(** [backoff dt] accumulates [dt] simulated time units of retry
    backoff. *)
val backoff : float -> unit

val rollback : unit -> unit
val replayed_task : unit -> unit
val search_pruned_node : unit -> unit
val replan : unit -> unit
val shed_job : unit -> unit
val frozen_task : unit -> unit
val deadline_miss : unit -> unit
val server_request : unit -> unit
val batched_replan : unit -> unit
val queued_job : unit -> unit
