(* scheduld-open: an open loop against the real socket daemon.

   The daemon ([Scheduld.serve], one domain) runs in a child process of
   this executable.  This process is the generator: it sends submits at
   fixed rates over two non-blocking connections whatever the daemon's
   progress, and a ping every 20 ms on the second one.  Each request is
   timed from when it was due, so a stall shows on every request queued
   behind it.

   Mix: ~70% warm-cache spec submits ([lu:60]: a short line, Engine
   work), ~30% inline DAGs of ~500 tasks with placements on (~30 KB up,
   ~500 rows back: wire and parse work).  Phases, interleaved over the
   run: reference segments at [ref_rate], capacity bursts, and the
   steps of a bisection for the highest sustainable rate. *)

module O = Onesched
module P = O.Scheduld_proto

let ref_rate = 10.
let inline_share = 0.3
let ping_period = 0.020
let spec = "lu:60"

(* The latency limit a rate must meet, on the p99 of its submits. *)
let limit_s = 0.250

(* ------------------------------------------------------------------ *)
(* inputs                                                              *)
(* ------------------------------------------------------------------ *)

type input = {
  line : string;  (** the submit request *)
  job : Pipeline.job;  (** the same input, scheduled offline *)
}

(* A fixed pool, so every seed serves the same distinct inputs: the
   seed draws arrival times, the spec/inline mix and the pool picks. *)
let pool_size = 8

let inputs () =
  let input spec label build_span build =
    {
      line = Pipeline.submit_line spec;
      job =
        {
          Pipeline.label;
          build;
          build_span;
          heuristic = O.Scheduld.default_config.O.Scheduld.heuristic;
          params = O.Scheduld.default_config.O.Scheduld.params;
        };
    }
  in
  let j = O.Online_event.job_of_spec spec in
  let tb = O.Suite.find j.O.Online_event.testbed in
  let rng = O.Rng.create ~seed:2002 in
  let inline k =
    let g =
      O.Generators.layered rng ~layers:50 ~width:20 ~edge_prob:0.3
        ~max_weight:20 ~max_data:20
    in
    let text = O.Graph_io.to_string g in
    input (P.Inline text)
      (Printf.sprintf "inline-%d:%d" k (O.Graph.n_tasks g))
      "taskgraph.parse"
      (fun () -> O.Graph_io.of_string text)
  in
  ( input (P.Testbed spec) spec "taskgraph.build" (fun () ->
        tb.O.Suite.build ~n:j.n ~ccr:j.ccr),
    Array.init pool_size inline )

(* ------------------------------------------------------------------ *)
(* the daemon child                                                    *)
(* ------------------------------------------------------------------ *)

let daemon_main path =
  ignore (O.Scheduld.serve (O.Scheduld.Unix_path path) Pipeline.platform)

type daemon = { pid : int; path : string }

let spawn_count = ref 0

let spawn () =
  incr spawn_count;
  let path =
    Printf.sprintf "%s/scheduld-%d-%d.sock" Out.dir (Unix.getpid ()) !spawn_count
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "daemon"; path |]
      null null null
  in
  Unix.close null;
  { pid; path }

let rec connect d ~deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX d.path) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when Unix.gettimeofday () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.001;
      connect d ~deadline

(* Wait for the child to exit; kill it after [grace] seconds. *)
let reap ?(grace = 10.) d =
  let deadline = Unix.gettimeofday () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  try Unix.unlink d.path with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* the generator                                                       *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  out : Buffer.t;  (** bytes queued for the socket *)
  mutable sent : int;  (** prefix of [out] already written *)
  partial : Buffer.t;  (** an incomplete reply line *)
  mutable received : (float * string) list;  (** newest first *)
  mutable n_received : int;
  mutable verdicts : int;  (** placed / error / failed / shed replies *)
  mutable pongs : int;
}

let open_conn fd =
  Unix.set_nonblock fd;
  {
    fd;
    out = Buffer.create 65536;
    sent = 0;
    partial = Buffer.create 65536;
    received = [];
    n_received = 0;
    verdicts = 0;
    pongs = 0;
  }

let scratch = Bytes.create 65536

let write_some c =
  let len = Buffer.length c.out - c.sent in
  if len > 0 then
    match Unix.write_substring c.fd (Buffer.contents c.out) c.sent len with
    | k ->
        c.sent <- c.sent + k;
        if c.sent = Buffer.length c.out then begin
          Buffer.clear c.out;
          c.sent <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

let event_of line =
  (* every reply starts {"ev":"NAME" *)
  let prefix = "{\"ev\":\"" in
  let p = String.length prefix in
  if String.length line > p && String.sub line 0 p = prefix then
    match String.index_from_opt line p '"' with
    | Some q -> String.sub line p (q - p)
    | None -> ""
  else ""

let add_line c now line =
  c.received <- (now, line) :: c.received;
  c.n_received <- c.n_received + 1;
  match event_of line with
  | "placed" | "error" | "failed" | "shed" -> c.verdicts <- c.verdicts + 1
  | "pong" -> c.pongs <- c.pongs + 1
  | _ -> ()

(* Read what is there; each complete line is stamped with the time it
   was read. *)
let read_some c =
  match Unix.read c.fd scratch 0 (Bytes.length scratch) with
  | 0 -> failwith "scheduld closed the connection"
  | k ->
      let now = Unix.gettimeofday () in
      let start = ref 0 in
      for i = 0 to k - 1 do
        if Bytes.get scratch i = '\n' then begin
          Buffer.add_subbytes c.partial scratch !start (i - !start);
          add_line c now (Buffer.contents c.partial);
          Buffer.clear c.partial;
          start := i + 1
        end
      done;
      Buffer.add_subbytes c.partial scratch !start (k - !start)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

(* A request due [at] seconds after its phase starts. *)
type send = { at : float; on : int; line : string }

(* Send [sends] (sorted by [at]) on time, whatever the daemon is doing,
   and read until [expect_verdicts] submits have their verdict and
   [expect_pongs] pings their pong.  Returns the phase start and how
   late each request was handed to its connection. *)
let pump conns sends ~expect_verdicts ~expect_pongs ~timeout =
  let sends = Array.of_list sends in
  let n = Array.length sends in
  let verdicts0 = Array.fold_left (fun a c -> a + c.verdicts) 0 conns in
  let pongs0 = Array.fold_left (fun a c -> a + c.pongs) 0 conns in
  let finished next =
    next = n
    && Array.fold_left (fun a c -> a + c.verdicts) 0 conns - verdicts0
       >= expect_verdicts
    && Array.fold_left (fun a c -> a + c.pongs) 0 conns - pongs0 >= expect_pongs
  in
  let t0 = Unix.gettimeofday () in
  let late = Array.make n 0. in
  let next = ref 0 in
  while not (finished !next) do
    let now = Unix.gettimeofday () in
    if now > t0 +. timeout then failwith "scheduld-open: a phase timed out";
    while !next < n && t0 +. sends.(!next).at <= now do
      let s = sends.(!next) in
      Buffer.add_string conns.(s.on).out s.line;
      Buffer.add_char conns.(s.on).out '\n';
      late.(!next) <- Unix.gettimeofday () -. (t0 +. s.at);
      incr next
    done;
    Array.iter write_some conns;
    let wait =
      if !next < n then Float.max 0. (t0 +. sends.(!next).at -. Unix.gettimeofday ())
      else 0.05
    in
    let rds = Array.to_list (Array.map (fun c -> c.fd) conns) in
    let wrs =
      Array.to_list conns
      |> List.filter (fun c -> Buffer.length c.out > c.sent)
      |> List.map (fun c -> c.fd)
    in
    match Unix.select rds wrs [] (Float.min wait 0.05) with
    | r, _, _ -> Array.iter (fun c -> if List.mem c.fd r then read_some c) conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (t0, late)

(* The lines [c] received since it had [from] of them, oldest first. *)
let lines_since c from =
  let rec take k acc = function
    | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
    | _ -> acc
  in
  take (c.n_received - from) [] c.received

(* One request and its reply, on a connection with no submit in
   flight; job events still arriving from the last phase are skipped. *)
let request conns k req =
  let c = conns.(k) in
  let from = c.n_received in
  Buffer.add_string c.out (P.print_request req ^ "\n");
  let deadline = Unix.gettimeofday () +. 30. in
  let reply () =
    List.find_opt
      (fun (_, l) -> not (List.mem (event_of l) [ "accepted"; "placed"; "done" ]))
      (lines_since c from)
  in
  let rec wait () =
    match reply () with
    | Some (_, line) -> line
    | None ->
        if Unix.gettimeofday () > deadline then failwith "scheduld did not answer";
        write_some c;
        (match Unix.select [ c.fd ] [] [] 0.01 with
        | r, _, _ -> if r <> [] then read_some c
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        wait ()
  in
  wait ()

(* ------------------------------------------------------------------ *)
(* phases                                                              *)
(* ------------------------------------------------------------------ *)

type served_job = { input : int; latency_s : float }

type phase = {
  jobs : served_job list;  (** placed submits *)
  ping_s : float list;
  late_s : float list;
  wall_s : float;  (** phase start to its last verdict *)
  placed_tasks : int;
  problems : string list;
}

(* [count] submit times at [rate] and the input of each: -1 for the
   spec, k for inline DAG k of the pool.  Poisson gaps come from
   [arrivals], a stream fixed for every seed, so every run offers the
   same bursts and their chance clustering does not vary the tails from
   run to run; [mix] (the seed) draws the spec/inline mix and the pool
   picks.  Without [arrivals] the submits are evenly spaced. *)
let plan ?arrivals mix ~rate ~count =
  let t = ref 0. in
  List.init count (fun _ ->
      let gap =
        match arrivals with
        | Some rng -> -.log (1. -. O.Rng.float rng 1.) /. rate
        | None -> 1. /. rate
      in
      t := !t +. gap;
      let k =
        if O.Rng.float mix 1. < inline_share then O.Rng.int mix pool_size else -1
      in
      (!t, k))

(* The fixed Poisson arrival stream. *)
let arrivals () = O.Rng.create ~seed:1

type ctx = {
  conns : conn array;  (** 0: submits, 1: pings *)
  spec_input : input;
  pool : input array;
  expected : (int, string) Hashtbl.t;  (** input -> offline fingerprint *)
}

let input_of ctx k = if k < 0 then ctx.spec_input else ctx.pool.(k)
let ping_line = P.print_request P.Ping

let run_phase ctx submits =
  let last = List.fold_left (fun acc (t, _) -> Float.max acc t) 0. submits in
  let pings =
    List.init (int_of_float (last /. ping_period) + 1) (fun i ->
        float_of_int i *. ping_period)
  in
  let sends =
    List.merge
      (fun a b -> compare a.at b.at)
      (List.map (fun (at, k) -> { at; on = 0; line = (input_of ctx k).line }) submits)
      (List.map (fun at -> { at; on = 1; line = ping_line }) pings)
  in
  let from0 = ctx.conns.(0).n_received and from1 = ctx.conns.(1).n_received in
  let t0, late =
    pump ctx.conns sends ~expect_verdicts:(List.length submits)
      ~expect_pongs:(List.length pings) ~timeout:120.
  in
  (* Replies on the submit connection come in submit order for
     [accepted]/[error]; [placed] carries the job id. *)
  let waiting = Queue.of_seq (List.to_seq submits) in
  let by_id = Hashtbl.create 256 in
  let jobs = ref [] and problems = ref [] and tasks = ref 0 and stop = ref t0 in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (time, line) ->
      match event_of line with
      | "accepted" | "error" -> (
          let at, k = Queue.pop waiting in
          match P.response_of_line line with
          | Ok (P.Accepted { id; _ }) -> Hashtbl.replace by_id id (at, k)
          | Ok (P.Error { code; msg }) ->
              problem "submit %s refused: %s %s" (input_of ctx k).job.label
                (P.error_code_to_string code) msg
          | _ -> problem "unexpected reply %s" line)
      | "placed" -> (
          stop := Float.max !stop time;
          match P.response_of_line line with
          | Ok (P.Placed { id; valid; fingerprint; tasks = n; _ }) -> (
              match Hashtbl.find_opt by_id id with
              | None -> problem "placed unknown job %d" id
              | Some (at, k) ->
                  tasks := !tasks + n;
                  jobs := { input = k; latency_s = time -. (t0 +. at) } :: !jobs;
                  if not valid then problem "job %d: valid=false" id;
                  if fingerprint <> Hashtbl.find ctx.expected k then
                    problem "job %d (%s): fingerprint differs from offline" id
                      (input_of ctx k).job.label)
          | _ -> problem "unparsable placed reply")
      | "failed" | "shed" -> problem "job lost: %s" line
      | _ -> ())
    (lines_since ctx.conns.(0) from0);
  let pongs =
    List.filter (fun (_, l) -> event_of l = "pong") (lines_since ctx.conns.(1) from1)
  in
  let ping_s = List.map2 (fun at (time, _) -> time -. (t0 +. at)) pings pongs in
  {
    jobs = List.rev !jobs;
    ping_s;
    late_s = Array.to_list late;
    wall_s = !stop -. t0;
    placed_tasks = !tasks;
    problems = List.rev !problems;
  }

let latencies p = List.map (fun j -> j.latency_s) p.jobs

(* A rate is sustainable when its p99 meets the limit and the backlog
   does not grow: the last third of its submits wait no longer (at the
   median) than the first third, give or take half the limit. *)
let p99 p = Out.percentile 99. (latencies p)

let sustainable p =
  let lat = Array.of_list (latencies p) in
  let n = Array.length lat in
  let third a b = Out.median (Array.to_list (Array.sub lat a (b - a))) in
  p.problems = [] && n >= 3 && p99 p <= limit_s
  && third (n - (n / 3)) n <= third 0 (n / 3) +. (limit_s /. 2.)

(* ------------------------------------------------------------------ *)
(* the daemon's life                                                   *)
(* ------------------------------------------------------------------ *)

let start () =
  let d = spawn () in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. 30. in
  let conns = [| open_conn (connect d ~deadline); open_conn (connect d ~deadline) |] in
  (match P.response_of_line (request conns 1 P.Ping) with
  | Ok P.Pong -> ()
  | _ -> failwith "scheduld: no pong");
  (d, conns, Unix.gettimeofday () -. t0)

let stop d conns =
  ignore (request conns 0 P.Drain);
  Array.iter (fun c -> Unix.close c.fd) conns;
  reap d

(* Start the daemon [setup_rounds] times and keep the last one: the
   median time from spawn to the first pong is [setup_s]. *)
let setup_rounds = 9

let start_measured () =
  let rec go k times =
    let d, conns, t = start () in
    if k = 1 then (d, conns, Out.median (t :: times))
    else begin
      stop d conns;
      go (k - 1) (t :: times)
    end
  in
  go setup_rounds []

let daemon_stats conns =
  match P.response_of_line (request conns 0 P.Stats) with
  | Ok (P.Stats_reply s) -> s
  | _ -> failwith "scheduld: no stats reply"

let print_stats (s : P.stats_view) =
  Printf.printf
    "daemon stats: %d requests, %d submitted, %d completed, %d batches (%.2f \
     jobs/batch), queue peak %d, %d errors\n"
    s.requests s.submitted s.completed s.batches
    (float_of_int s.completed /. float_of_int (max 1 s.batches))
    s.queue_peak s.errors

let with_daemon f =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Out.ensure_dir ();
  let d, conns, setup_s = start_measured () in
  match f conns d.pid setup_s with
  | v ->
      stop d conns;
      v
  | exception e ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap d;
      raise e

(* The offline result every served input must reproduce. *)
let offline spec_input pool =
  let expected = Hashtbl.create 16 in
  let outcomes =
    List.map
      (fun (k, inp) ->
        let o, _, _ = Pipeline.run inp.job in
        Hashtbl.replace expected k o.Pipeline.fingerprint;
        o)
      ((-1, spec_input) :: Array.to_list (Array.mapi (fun k i -> (k, i)) pool))
  in
  (expected, outcomes)

(* ------------------------------------------------------------------ *)
(* the workload                                                        *)
(* ------------------------------------------------------------------ *)

let spec_latencies p =
  List.filter_map (fun j -> if j.input < 0 then Some j.latency_s else None) p.jobs

(* The reference rate runs as [segments] separate phases, each timed
   at reference speed with the {!Calib} kernel run around it. *)
let segments = 3

(* Submits in a capacity burst: fewer than the daemon's [queue_cap]. *)
let burst_size = 40

let e2e ~seed ~seconds =
  let spec_input, pool = inputs () in
  let expected, offline_outcomes = offline spec_input pool in
  let s = float_of_int seconds in
  let mix = O.Rng.create ~seed and arrivals = arrivals () in
  with_daemon (fun conns pid setup_s ->
      let ctx = { conns; spec_input; pool; expected } in
      let phase rate count poisson =
        let arrivals = if poisson then Some arrivals else None in
        run_phase ctx (plan ?arrivals mix ~rate ~count)
      in
      let warm = phase ref_rate (int_of_float ref_rate) true in
      (* each phase with the host's speed around it (see {!Calib}) *)
      let calibrated f =
        let p, _, v = Calib.timed f in
        (p, v)
      in
      let segment () =
        calibrated (fun () ->
            phase ref_rate (max 20 (int_of_float (ref_rate *. 0.23 *. s))) true)
      in
      (* capacity: a burst of submits all due at once, within the
         daemon's backlog bound *)
      let burst () = calibrated (fun () -> phase 1000. burst_size false) in
      (* one bisection step for the highest sustainable rate, evenly
         spaced submits; [lo] held, [hi] did not (or is untried) *)
      let lo = ref (ref_rate, nan) and hi = ref (80., infinity) in
      let steps = ref [] in
      let step () =
        let rate = (fst !lo +. fst !hi) /. 2. in
        let p = phase rate (max 3 (int_of_float (rate *. 0.1 *. s))) false in
        steps := p :: !steps;
        Printf.printf "rate %.1f/s: p99 %.1f ms, %s\n" rate (p99 p *. 1e3)
          (if sustainable p then "sustained" else "not sustained");
        if sustainable p then lo := (rate, p99 p) else hi := (rate, p99 p)
      in
      (* interleaved, so that each kind of phase samples the whole run *)
      let reference = ref [] and bursts = ref [] in
      for _ = 1 to segments do
        reference := segment () :: !reference;
        bursts := burst () :: !bursts;
        step ()
      done;
      let reference = List.rev !reference and bursts = !bursts in
      let rss = Out.vm_hwm_mb (Some pid) in
      let (lo, p99_lo), (hi, p99_hi) = (!lo, !hi) in
      let p99_lo =
        if Float.is_nan p99_lo then
          Out.percentile 99. (List.concat_map (fun (p, _) -> latencies p) reference)
        else p99_lo
      in
      (* interpolate the limit's crossing between the last rate that
         held and the first that did not *)
      let max_rate =
        if Float.is_finite p99_hi then
          lo
          +. (hi -. lo)
             *. Float.min 1.
                  (Float.max 0. ((limit_s -. p99_lo) /. (p99_hi -. p99_lo)))
        else lo
      in
      print_stats (daemon_stats conns);
      let all =
        (warm :: List.map fst reference) @ List.map fst bursts @ List.rev !steps
      in
      let problems =
        List.concat_map (fun (o : Pipeline.outcome) -> o.problems) offline_outcomes
        @ List.concat_map (fun p -> p.problems) all
      in
      let attempted = List.fold_left (fun a p -> a + List.length p.late_s) 0 all in
      (* every reference sample at reference speed, pooled *)
      let pooled f =
        List.concat_map (fun (p, v) -> List.map (fun x -> x *. v *. 1e3) (f p)) reference
      in
      let spec = pooled spec_latencies and all = pooled latencies in
      let pings = pooled (fun p -> p.ping_s) in
      let tp, tail, n = Out.tail spec in
      Printf.printf "host speed per segment: %s; per burst: %s\n"
        (String.concat " " (List.map (fun (_, v) -> Printf.sprintf "%.2f" v) reference))
        (String.concat " " (List.map (fun (_, v) -> Printf.sprintf "%.2f" v) bursts));
      Printf.printf
        "%.0f/s over %d segments: job_tail_ms is p%d of %d spec jobs, \
         submit_tail_ms p%d of %d submits, ping_p99_ms of %d pings; generator \
         late p99 %.3f ms\n"
        ref_rate segments tp n
        ((fun (p, _, _) -> p) (Out.tail all))
        (List.length all) (List.length pings)
        (Out.percentile 99. (List.concat_map (fun (p, _) -> p.late_s) reference) *. 1e3);
      let m = Out.metric in
      Out.emit ~attempted ~failed:(List.length problems) ~problems
        [
          m "setup_s" "s" setup_s;
          m "job_p50_ms" "ms" (Out.median spec);
          m "job_tail_ms" "ms" tail;
          m "tasks_per_s" "1/s"
            (List.fold_left
               (fun a (p, v) ->
                 Float.max a (float_of_int p.placed_tasks /. (p.wall_s *. v)))
               0. bursts);
          m "quality_geomean" "ratio"
            (Out.geomean
               (List.map (fun (o : Pipeline.outcome) -> o.quality) offline_outcomes));
          m "peak_rss_mb" "MB" rss;
          m "submit_p50_ms" "ms" (Out.median all);
          m "submit_tail_ms" "ms" ((fun (_, t, _) -> t) (Out.tail all));
          m "ping_p99_ms" "ms" (Out.percentile 99. pings);
          m "max_rate_jps" "1/s" max_rate;
        ])

(* Feed [submits] to an in-process core as the daemon would see them:
   submits due within one batch window of the first pending one are
   flushed together. *)
let replay ctx submits =
  let core = O.Scheduld.create Pipeline.platform in
  let client = O.Scheduld.connect core in
  let st = Pipeline.new_served () in
  let inputs = Array.of_list (List.map snd submits) in
  let expect id = Hashtbl.find ctx.expected inputs.(id) in
  let window = O.Scheduld.default_config.O.Scheduld.batch_window in
  let rec go opened = function
    | [] -> Pipeline.flush_all st core ~expect
    | (at, k) :: rest ->
        let opened =
          if at > opened +. window then begin
            Pipeline.flush_all st core ~expect;
            at
          end
          else opened
        in
        Pipeline.feed st core ~client (input_of ctx k).line;
        go opened rest
  in
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  go neg_infinity submits;
  let wall = Unix.gettimeofday () -. t0 in
  O.Scheduld.shutdown core;
  (st, wall)

(* Per-layer profile: a short reference phase against the daemon (for
   the generator's lateness), then the same request stream through the
   core in process, untraced and traced, then the offline jobs traced
   with the engine counters on. *)
let traced ~seed ~seconds =
  let spec_input, pool = inputs () in
  let expected, _ = offline spec_input pool in
  let s = float_of_int seconds in
  let mix = O.Rng.create ~seed and arrivals = arrivals () in
  let warm_plan = plan ~arrivals mix ~rate:ref_rate ~count:(int_of_float ref_rate) in
  let ref_plan =
    plan ~arrivals mix ~rate:ref_rate
      ~count:(max 20 (int_of_float (ref_rate *. 0.3 *. s)))
  in
  let reference =
    with_daemon (fun conns _ _ ->
        let ctx = { conns; spec_input; pool; expected } in
        ignore (run_phase ctx warm_plan);
        let p = run_phase ctx ref_plan in
        print_stats (daemon_stats conns);
        p)
  in
  let ctx = { conns = [||]; spec_input; pool; expected } in
  (* the reference phase starts after the warm-up, as against the daemon *)
  let warm_end = List.fold_left (fun a (t, _) -> Float.max a t) 0. warm_plan in
  let stream = warm_plan @ List.map (fun (t, k) -> (warm_end +. 1. +. t, k)) ref_plan in
  let _, u1 = replay ctx stream in
  let _, u2 = replay ctx stream in
  Printf.printf "untraced replays: %.3f s, %.3f s\n" u1 u2;
  let wall_untraced_s = u2 in
  Tracer.enabled := true;
  let served, wall_traced_s = replay ctx stream in
  O.Obs_counters.enable ();
  let counts = ref [] in
  let outcomes =
    List.mapi
      (fun i (inp : input) ->
        Gc.compact ();
        Tracer.with_job i (fun () ->
            let o, g =
              Layers.counting counts ~model:(Pipeline.model_name inp.job) (fun () ->
                  let o, g, _ = Pipeline.run inp.job in
                  (o.Pipeline.tasks, (o, g)))
            in
            ignore
              (Tracer.span "ranking.upward" (fun () ->
                   O.Ranking.upward g Pipeline.platform));
            o))
      (spec_input :: Array.to_list pool)
  in
  O.Obs_counters.disable ();
  Tracer.enabled := false;
  let problems =
    reference.problems @ served.Pipeline.serve_problems
    @ List.concat_map (fun (o : Pipeline.outcome) -> o.problems) outcomes
  in
  ( List.length reference.late_s + served.Pipeline.requests + List.length outcomes,
    problems,
    {
      Layers.counts = !counts;
      jobs = outcomes;
      served;
      late_s = reference.late_s;
      wall_untraced_s;
      wall_traced_s;
    } )
