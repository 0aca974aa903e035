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

(* The counter table: one row per counter, in print order.  A row's
   position is its slot in the domain-local array below.  [block] is the
   [pp] block it prints in: 0 always prints; 1 (fault), 2 (incremental
   kernel), 3 (online) and 4 (scheduld) print only when one of their
   counters is nonzero, so runs that never touch them keep their
   historical output.  The print order is part of the CLI contract
   (cram tests pin it). *)
type row = { key : string; label : string; block : int }

let table =
  [|
    { key = "evaluations"; label = "evaluations:"; block = 0 };
    { key = "pruned_evaluations"; label = "pruned evaluations:"; block = 0 };
    { key = "route_cache_hits"; label = "route-cache hits:"; block = 0 };
    { key = "gap_probes"; label = "gap probes:"; block = 0 };
    { key = "joint_gap_probes"; label = "joint gap probes:"; block = 0 };
    { key = "tentative_hops"; label = "tentative hops:"; block = 0 };
    { key = "commits"; label = "commits:"; block = 0 };
    { key = "copies"; label = "copies:"; block = 0 };
    { key = "retries"; label = "retries:"; block = 1 };
    { key = "repairs"; label = "repairs:"; block = 1 };
    { key = "backoff_s"; label = "backoff time:"; block = 1 };
    { key = "rollbacks"; label = "rollbacks:"; block = 2 };
    { key = "replayed_tasks"; label = "replayed tasks:"; block = 2 };
    { key = "search_pruned_nodes"; label = "search pruned:"; block = 2 };
    { key = "replans"; label = "replans:"; block = 3 };
    { key = "shed_jobs"; label = "shed jobs:"; block = 3 };
    { key = "frozen_tasks"; label = "frozen tasks:"; block = 3 };
    { key = "deadline_misses"; label = "deadline misses:"; block = 3 };
    { key = "requests"; label = "requests:"; block = 4 };
    { key = "batched_replans"; label = "batched replans:"; block = 4 };
    { key = "queued_jobs"; label = "queued jobs:"; block = 4 };
  |]

let slots = Array.length table

(* Record <-> slots: besides the bump functions, the only code that
   names individual counters.  Slot [k] is row [k] of [table]. *)
let of_slots a : snapshot =
  let f = Float.Array.get a in
  let i k = int_of_float (f k) in
  {
    evaluations = i 0;
    pruned_evaluations = i 1;
    route_cache_hits = i 2;
    gap_probes = i 3;
    joint_gap_probes = i 4;
    tentative_hops = i 5;
    commits = i 6;
    copies = i 7;
    retries = i 8;
    repairs = i 9;
    backoff_s = f 10;
    rollbacks = i 11;
    replayed_tasks = i 12;
    search_pruned_nodes = i 13;
    replans = i 14;
    shed_jobs = i 15;
    frozen_tasks = i 16;
    deadline_misses = i 17;
    requests = i 18;
    batched_replans = i 19;
    queued_jobs = i 20;
  }

let to_slots (c : snapshot) =
  let i = float_of_int in
  Float.Array.of_list
    [
      i c.evaluations; i c.pruned_evaluations; i c.route_cache_hits;
      i c.gap_probes; i c.joint_gap_probes; i c.tentative_hops; i c.commits;
      i c.copies; i c.retries; i c.repairs; c.backoff_s; i c.rollbacks;
      i c.replayed_tasks; i c.search_pruned_nodes; i c.replans; i c.shed_jobs;
      i c.frozen_tasks; i c.deadline_misses; i c.requests; i c.batched_replans;
      i c.queued_jobs;
    ]

let zero = of_slots (Float.Array.make slots 0.)

(* Domain-local scratch: every domain bumps its own slot array, so workers
   of a {!Prelude.Pool} sweep never contend (or race) on shared counters.
   The pool merges worker snapshots into the spawning domain at its
   barrier, making totals independent of how the work was sharded.  One
   flat float array holds every counter, integral ones included: floats
   count integers exactly up to 2^53. *)
let key = Domain.DLS.new_key (fun () -> Float.Array.make slots 0.)
let state () = Domain.DLS.get key

let on = ref false
let enable () = on := true
let disable () = on := false
let enabled () = !on

let reset () = Float.Array.fill (state ()) 0 slots 0.
let snapshot () = of_slots (state ())

let merge d =
  let s = state () in
  Float.Array.iteri
    (fun k x -> Float.Array.set s k (Float.Array.get s k +. x))
    (to_slots d)

let diff a b = of_slots (Float.Array.map2 ( -. ) (to_slots b) (to_slots a))

(* Integral values print as integers (every counter but [backoff_s], and
   [backoff_s] whenever it is whole); fractional ones as [%g]. *)
let number x =
  if Float.is_integer x then Printf.sprintf "%.0f" x else Printf.sprintf "%g" x

let fields c =
  let v = to_slots c in
  Array.to_list table
  |> List.mapi (fun k r -> (r.key, number (Float.Array.get v k)))

(* Slot indices of each block, in print order. *)
let blocks =
  let rows = List.init slots Fun.id in
  let last = Array.fold_left (fun m r -> max m r.block) 0 table in
  List.init (last + 1) (fun b ->
      List.filter (fun k -> table.(k).block = b) rows)

let pp fmt c =
  let v = to_slots c in
  let line fmt k =
    Format.fprintf fmt "%-17s %s" table.(k).label (number (Float.Array.get v k))
  in
  List.iteri
    (fun b ks ->
      if b = 0 || List.exists (fun k -> Float.Array.get v k <> 0.) ks then begin
        if b > 0 then Format.pp_print_cut fmt ();
        Format.fprintf fmt "@[<v>%a@]" (Format.pp_print_list line) ks
      end)
    blocks

let add k x =
  let s = state () in
  Float.Array.unsafe_set s k (Float.Array.unsafe_get s k +. x)
[@@inline]

let evaluation () = if !on then add 0 1. [@@inline]
let pruned_evaluation () = if !on then add 1 1. [@@inline]
let route_cache_hit () = if !on then add 2 1. [@@inline]
let gap_probe () = if !on then add 3 1. [@@inline]
let joint_gap_probe () = if !on then add 4 1. [@@inline]
let tentative_hop () = if !on then add 5 1. [@@inline]
let commit () = if !on then add 6 1. [@@inline]
let copy () = if !on then add 7 1. [@@inline]
let retry () = if !on then add 8 1. [@@inline]
let repair () = if !on then add 9 1. [@@inline]
let backoff dt = if !on then add 10 dt [@@inline]
let rollback () = if !on then add 11 1. [@@inline]
let replayed_task () = if !on then add 12 1. [@@inline]
let search_pruned_node () = if !on then add 13 1. [@@inline]
let replan () = if !on then add 14 1. [@@inline]
let shed_job () = if !on then add 15 1. [@@inline]
let frozen_task () = if !on then add 16 1. [@@inline]
let deadline_miss () = if !on then add 17 1. [@@inline]
let server_request () = if !on then add 18 1. [@@inline]
let batched_replan () = if !on then add 19 1. [@@inline]
let queued_job () = if !on then add 20 1. [@@inline]
