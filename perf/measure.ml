(* Host clocks and order statistics shared by every workload.

   Host time is process CPU time (user + sys, from getrusage via
   [Sys.time]), which leaves out time spent waiting for a CPU; wall time
   only bounds how long a run measures. *)

let cpu () = Sys.time ()
let wall () = Unix.gettimeofday ()

(* Words allocated so far: minor + major, minus the promoted words that
   both counters include. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6

(* [timed f] is [(f (), cpu seconds spent in f)]. *)
let timed f =
  let c0 = cpu () in
  let v = f () in
  (v, cpu () -. c0)

(* Linear-interpolation percentile over [samples], [p] in [0, 100];
   0 for an empty sample. *)
let percentile samples p =
  match samples with
  | [] -> 0.0
  | _ ->
      let s = Weakset_sim.Stats.create () in
      List.iter (Weakset_sim.Stats.add s) samples;
      Weakset_sim.Stats.percentile_linear s p

let median samples = percentile samples 50.0

(* Smallest sample; 0 for an empty sample. *)
let minimum = function [] -> 0.0 | s :: rest -> List.fold_left Float.min s rest

let ratio num den = if den = 0.0 then 0.0 else num /. den
