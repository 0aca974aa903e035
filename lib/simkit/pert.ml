module Graph = Taskgraph.Graph
module Schedule = Sched.Schedule
module Comm_model = Commmodel.Comm_model

type dag = {
  n_tasks : int;
  comms : Schedule.comm array;
  copies : Schedule.placement array;
  durations : float array;
  deps : int list array;
  fifos : int array array;
}

type t = { dag : dag; succs : int list array }

(* Resources an event occupies, as comparable keys. *)
type resource = Compute of int | Send of int | Recv of int | Link of int * int

let feed_eps = 1e-9

let task_of d node =
  let k = Array.length d.comms in
  if node < d.n_tasks then node
  else if node < d.n_tasks + k then -1
  else d.copies.(node - d.n_tasks - k).Schedule.task

let extract sched =
  let g = Schedule.graph sched in
  let model = Schedule.model sched in
  let n = Graph.n_tasks g in
  let comms = Array.of_list (Schedule.comms sched) in
  let k = Array.length comms in
  let nd = Schedule.n_dup_copies sched in
  (* Duplicate copies become event nodes after the hops; the primary copy
     of every task keeps its historical node id. *)
  let copies =
    if nd = 0 then [||]
    else Array.of_list (List.concat (List.init n (Schedule.dup_copies sched)))
  in
  let copy_ix = Hashtbl.create 16 in
  Array.iteri
    (fun j (c : Schedule.placement) -> Hashtbl.add copy_ix (c.task, c.proc) (n + k + j))
    copies;
  (* The node running task [v]'s copy on [q]; the primary maps to [v]. *)
  let copy_node v q =
    if Schedule.proc_of_exn sched v = q then v
    else match Hashtbl.find_opt copy_ix (v, q) with Some node -> node | None -> v
  in
  let total = n + k + nd in
  let deps = Array.make total [] in
  let add_dep a b = if a <> b then deps.(a) <- b :: deps.(a) in
  (* Data dependencies. *)
  if nd = 0 then begin
    let per_edge = Array.make (max (Graph.n_edges g) 1) [] in
    Array.iteri
      (fun i (c : Schedule.comm) ->
        per_edge.(c.edge) <- (n + i) :: per_edge.(c.edge))
      comms;
    List.iter
      (fun (e : Graph.edge) ->
        match List.rev per_edge.(e.id) with
        | [] -> add_dep e.src e.dst
        | hops ->
            let last =
              List.fold_left
                (fun prev hop ->
                  add_dep prev hop;
                  hop)
                e.src hops
            in
            add_dep last e.dst)
      (Graph.edges g)
  end
  else begin
    (* Copy-set wiring: an edge carries one provenance chain per remote
       delivery; each chain runs source copy -> hops -> destination copy,
       and every consumer copy additionally picks up its local /
       zero-data feed. *)
    let per_edge = Array.make (max (Graph.n_edges g) 1) [] in
    Array.iteri
      (fun i (c : Schedule.comm) ->
        per_edge.(c.edge) <-
          (n + i, Schedule.comm_head_at sched i) :: per_edge.(c.edge))
      comms;
    let chains_of e =
      List.fold_left
        (fun acc (node, head) ->
          match acc with
          | cur :: rest when not head -> (node :: cur) :: rest
          | _ -> [ node ] :: acc)
        []
        (List.rev per_edge.(e))
      |> List.rev_map List.rev
    in
    List.iter
      (fun (e : Graph.edge) ->
        List.iter
          (fun chain ->
            let first = comms.(List.hd chain - n) in
            let last_node = List.nth chain (List.length chain - 1) in
            let last = comms.(last_node - n) in
            add_dep (copy_node e.src first.Schedule.src_proc) (List.hd chain);
            let rec seq = function
              | a :: (b :: _ as rest) ->
                  add_dep a b;
                  seq rest
              | [ _ ] | [] -> ()
            in
            seq chain;
            add_dep last_node (copy_node e.dst last.Schedule.dst_proc))
          (chains_of e.id);
        (* local and zero-data feeds per consumer copy *)
        let data = Graph.edge_data g e.id in
        List.iter
          (fun (cv : Schedule.placement) ->
            if data = 0. then begin
              (* representative (earliest-finishing) copy of the source *)
              let rep =
                match Schedule.copies sched e.src with
                | c :: rest ->
                    List.fold_left
                      (fun (b : Schedule.placement) (c : Schedule.placement) ->
                        if
                          c.finish < b.finish
                          || (c.finish = b.finish && c.proc < b.proc)
                        then c
                        else b)
                      c rest
                | [] -> Schedule.placement_exn sched e.src
              in
              add_dep (copy_node e.src rep.proc) (copy_node e.dst cv.proc)
            end
            else
              match Schedule.copy_on sched ~task:e.src ~proc:cv.proc with
              | Some cu when cu.finish <= cv.start +. feed_eps ->
                  add_dep (copy_node e.src cu.proc) (copy_node e.dst cv.proc)
              | _ -> ())
          (Schedule.copies sched e.dst))
      (Graph.edges g)
  end;
  (* Resource streams: every event occupying one resource is ordered by its
     recorded start (ties by node id — only zero-duration events can tie). *)
  let streams : (resource, (float * int) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let occupy resource node start =
    match Hashtbl.find_opt streams resource with
    | Some q -> q := (start, node) :: !q
    | None -> Hashtbl.add streams resource (ref [ (start, node) ])
  in
  for v = 0 to n - 1 do
    let pl = Schedule.placement_exn sched v in
    occupy (Compute pl.proc) v pl.start
  done;
  Array.iteri
    (fun j (c : Schedule.placement) -> occupy (Compute c.proc) (n + k + j) c.start)
    copies;
  (* Only port-regime events occupy whole-span resources.  BSP and
     latency+overhead events carry partial or no occupancy over their
     span, so chaining them on port streams would force compaction
     {e above} the scheduled times; they stay pure dependency events. *)
  (match model.Comm_model.regime with
  | Comm_model.Bsp _ | Comm_model.Latency_overhead _ -> ()
  | Comm_model.Port ->
      Array.iteri
        (fun i (c : Schedule.comm) ->
          let node = n + i in
          (match model.Comm_model.ports with
          | Comm_model.Unlimited -> ()
          | Comm_model.One_port_bidirectional ->
              occupy (Send c.src_proc) node c.start;
              occupy (Recv c.dst_proc) node c.start
          | Comm_model.One_port_unidirectional ->
              (* one physical port per processor: pool both directions *)
              occupy (Send c.src_proc) node c.start;
              occupy (Send c.dst_proc) node c.start);
          if model.Comm_model.link_contention then
            occupy
              (Link (min c.src_proc c.dst_proc, max c.src_proc c.dst_proc))
              node c.start;
          if not model.Comm_model.overlap then begin
            occupy (Compute c.src_proc) node c.start;
            occupy (Compute c.dst_proc) node c.start
          end)
        comms);
  let fifos = Array.make (Hashtbl.length streams) [||] in
  let r = ref 0 in
  Hashtbl.iter
    (fun _ q ->
      fifos.(!r) <- Array.of_list (List.map snd (List.sort compare !q));
      incr r)
    streams;
  let durations =
    Array.init total (fun i ->
        if i < n then
          let pl = Schedule.placement_exn sched i in
          pl.finish -. pl.start
        else if i < n + k then comms.(i - n).finish -. comms.(i - n).start
        else
          let c = copies.(i - n - k) in
          c.finish -. c.start)
  in
  { n_tasks = n; comms; copies; durations; deps; fifos }

(* The PERT DAG: data edges plus each resource stream chained in order. *)
let build sched =
  let dag = extract sched in
  let succs = Array.copy dag.deps in
  Array.iter
    (fun fifo ->
      for i = 1 to Array.length fifo - 1 do
        let a = fifo.(i - 1) and b = fifo.(i) in
        if a <> b then succs.(a) <- b :: succs.(a)
      done)
    dag.fifos;
  { dag; succs }

let n_events t = Array.length t.dag.durations

let retime t ~task_duration ~hop_duration =
  let d = t.dag in
  let m = Array.length d.durations in
  let duration node =
    match task_of d node with
    | -1 -> hop_duration d.comms.(node - d.n_tasks) d.durations.(node)
    | v -> task_duration v d.durations.(node)
  in
  let indeg = Array.make m 0 in
  Array.iter (List.iter (fun b -> indeg.(b) <- indeg.(b) + 1)) t.succs;
  let start = Array.make m 0. in
  let queue = Queue.create () in
  Array.iteri (fun node deg -> if deg = 0 then Queue.add node queue) indeg;
  let processed = ref 0 in
  (* A duplicated task completes at its earliest copy's finish, so the
     makespan is max over tasks of min over copies; with no duplicates
     this degenerates to the historical max over task finishes. *)
  let dups = Array.length d.copies > 0 in
  let task_fin = if dups then Array.make d.n_tasks infinity else [||] in
  let makespan = ref 0. in
  let record node finish =
    match task_of d node with
    | -1 -> ()
    | v ->
        if dups then begin
          if finish < task_fin.(v) then task_fin.(v) <- finish
        end
        else if finish > !makespan then makespan := finish
  in
  while not (Queue.is_empty queue) do
    let node = Queue.pop queue in
    incr processed;
    let finish = start.(node) +. duration node in
    record node finish;
    List.iter
      (fun b ->
        if finish > start.(b) then start.(b) <- finish;
        indeg.(b) <- indeg.(b) - 1;
        if indeg.(b) = 0 then Queue.add b queue)
      t.succs.(node)
  done;
  if !processed <> m then
    invalid_arg "Pert.retime: cyclic event order (corrupt schedule)";
  if dups then
    Array.iter (fun f -> if f > !makespan then makespan := f) task_fin;
  !makespan

let compacted_makespan t =
  retime t ~task_duration:(fun _ d -> d) ~hop_duration:(fun _ d -> d)
