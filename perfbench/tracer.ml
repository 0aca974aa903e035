(* In-memory spans recorded around calls into the library's layers.

   Off by default: [span] is then a plain call.  When on, every span
   keeps its name, start, end, parent span and job id; [write] dumps
   them as JSON once the run is over and [self_times] folds them into
   per-name totals of self time (duration minus the part covered by
   child spans).  [Obs.Span] is not used: its ring of begin/end events
   has no parent or job id, and the library's own spans would mix in. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  job : int;
  start : float;
  mutable stop : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let open_spans : span list ref = ref []
let next_id = ref 0
let current_job = ref (-1)

let now = Unix.gettimeofday

let span name f =
  if not !enabled then f ()
  else begin
    let s =
      {
        id = !next_id;
        name;
        parent = (match !open_spans with p :: _ -> p.id | [] -> -1);
        job = !current_job;
        start = now ();
        stop = nan;
      }
    in
    incr next_id;
    open_spans := s :: !open_spans;
    let close () =
      s.stop <- now ();
      open_spans := List.tl !open_spans;
      recorded := s :: !recorded
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let with_job id f =
  let saved = !current_job in
  current_job := id;
  Fun.protect ~finally:(fun () -> current_job := saved) f

let spans () = List.rev !recorded

(* name -> (calls, total seconds, self seconds) *)
let self_times () =
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0. (Hashtbl.find_opt child_time s.parent) in
        Hashtbl.replace child_time s.parent (prev +. (s.stop -. s.start)))
    !recorded;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let dur = s.stop -. s.start in
      let self =
        dur -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id)
      in
      let calls, total, selft =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (calls + 1, total +. dur, selft +. self))
    !recorded;
  by_name

let write path =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"id\":%d,\"parent\":%d,\"job\":%d,\"start\":%.6f,\"end\":%.6f}\n"
        (if i = 0 then "" else ",")
        s.name s.id s.parent s.job s.start s.stop)
    (spans ());
  output_string oc "]\n";
  close_out oc
