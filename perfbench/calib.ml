(* How fast the host runs right now.

   [kernel] is a fixed OCaml workload that shares no code with the
   repository (stdlib maps, arrays and hash tables, allocating as a
   scheduler does).  The benchmark times it between jobs; a job's
   time at reference speed is its wall time scaled by [nominal_s] over
   the kernel times around it. *)

module IM = Map.Make (Int)

let kernel () =
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let m = ref IM.empty in
  for i = 0 to 10_000 do
    m := IM.add (i * 7919 land 65535) (float_of_int i) !m
  done;
  let a = Array.init 15_000 (fun i -> float_of_int (i * 104729 land 65535)) in
  Array.sort compare a;
  let h = Hashtbl.create 16 in
  for i = 0 to 10_000 do
    Hashtbl.replace h (i * 31) [ i ]
  done;
  ignore (Sys.opaque_identity (!m, a, h));
  Unix.gettimeofday () -. t0

(* The kernel's time on the reference host (a 2-vCPU Xeon VM) in its
   fast periods. *)
let nominal_s = 0.009

(* [f ()] timed at reference speed: its wall time and the factor
   [nominal_s / kernel time], with the kernel run before and after. *)
let timed f =
  let k0 = kernel () in
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let t = Unix.gettimeofday () -. t0 in
  let k1 = kernel () in
  (v, t, nominal_s /. ((k0 +. k1) /. 2.))
