(* Unit and property tests for the weakset_sim library: deterministic PRNG,
   event queue, effect-based fiber engine, ivars, signals, mailboxes and
   statistics accumulators. *)

open Weakset_sim

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Rng                                                                *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 42L and b = Rng.create 43L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.next a) (Rng.next b) then incr same
  done;
  check_bool "different seeds diverge" true (!same < 4)

let test_rng_split_independent () =
  let parent = Rng.create 7L in
  let child = Rng.split parent in
  (* Drawing from the child must not affect the parent's future stream
     relative to a parent that split and then ignored the child. *)
  let parent2 = Rng.create 7L in
  let (_ : Rng.t) = Rng.split parent2 in
  let (_ : int64) = Rng.next child in
  Alcotest.(check int64) "parent unaffected by child draws" (Rng.next parent2) (Rng.next parent)

let test_rng_int_range () =
  let r = Rng.create 5L in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_rejects_nonpositive () =
  let r = Rng.create 5L in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_float_range () =
  let r = Rng.create 9L in
  for _ = 1 to 1000 do
    let v = Rng.float r 3.5 in
    check_bool "in [0,3.5)" true (v >= 0.0 && v < 3.5)
  done

let test_rng_uniform_range () =
  let r = Rng.create 9L in
  for _ = 1 to 1000 do
    let v = Rng.uniform r 2.0 5.0 in
    check_bool "in [2,5)" true (v >= 2.0 && v < 5.0)
  done

let test_rng_chance_extremes () =
  let r = Rng.create 3L in
  check_bool "p=0 never" false (Rng.chance r 0.0);
  check_bool "p=1 always" true (Rng.chance r 1.0)

let test_rng_chance_frequency () =
  let r = Rng.create 11L in
  let hits = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Rng.chance r 0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  check_bool "frequency near 0.3" true (freq > 0.27 && freq < 0.33)

let test_rng_geometric () =
  let r = Rng.create 17L in
  (* p = 1 is degenerate: always 1, with no stream draw needed. *)
  check_int "p=1 is always 1" 1 (Rng.geometric r ~p:1.0);
  Alcotest.check_raises "p=0 rejected"
    (Invalid_argument "Rng.geometric: p must be in (0, 1]") (fun () ->
      ignore (Rng.geometric r ~p:0.0));
  Alcotest.check_raises "p>1 rejected"
    (Invalid_argument "Rng.geometric: p must be in (0, 1]") (fun () ->
      ignore (Rng.geometric r ~p:1.5));
  (* Support is {1, 2, ...} and the sample mean approaches 1/p. *)
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    let v = Rng.geometric r ~p:0.25 in
    check_bool "support >= 1" true (v >= 1);
    sum := !sum + v
  done;
  let mean = float_of_int !sum /. float_of_int n in
  check_bool "mean near 1/p = 4" true (mean > 3.8 && mean < 4.2)

let test_rng_exponential_mean () =
  let r = Rng.create 13L in
  let s = Stats.create () in
  for _ = 1 to 20_000 do
    Stats.add s (Rng.exponential r ~mean:5.0)
  done;
  let m = Stats.mean s in
  check_bool "mean near 5" true (m > 4.6 && m < 5.4);
  check_bool "all positive" true (Stats.min s >= 0.0)

let test_rng_shuffle_permutation () =
  let r = Rng.create 17L in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_pick () =
  let r = Rng.create 19L in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let v = Rng.pick r arr in
    check_bool "member" true (Array.exists (( = ) v) arr)
  done;
  Alcotest.check_raises "empty array" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick r [||]))

let test_rng_pick_list () =
  let r = Rng.create 23L in
  for _ = 1 to 50 do
    let v = Rng.pick_list r [ 1; 2; 3 ] in
    check_bool "member" true (List.mem v [ 1; 2; 3 ])
  done

(* ------------------------------------------------------------------ *)
(* Pqueue                                                             *)
(* ------------------------------------------------------------------ *)

let test_pqueue_basic () =
  let q = Pqueue.create ~leq:( <= ) in
  check_bool "empty" true (Pqueue.is_empty q);
  List.iter (Pqueue.push q) [ 5; 1; 4; 2; 3 ];
  check_int "length" 5 (Pqueue.length q);
  Alcotest.(check (option int)) "peek" (Some 1) (Pqueue.peek q);
  let drained = List.init 5 (fun _ -> Option.get (Pqueue.pop q)) in
  Alcotest.(check (list int)) "sorted drain" [ 1; 2; 3; 4; 5 ] drained;
  Alcotest.(check (option int)) "empty pop" None (Pqueue.pop q)

let test_pqueue_interleaved () =
  let q = Pqueue.create ~leq:( <= ) in
  Pqueue.push q 3;
  Pqueue.push q 1;
  Alcotest.(check (option int)) "pop 1" (Some 1) (Pqueue.pop q);
  Pqueue.push q 0;
  Pqueue.push q 2;
  Alcotest.(check (option int)) "pop 0" (Some 0) (Pqueue.pop q);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Pqueue.pop q);
  Alcotest.(check (option int)) "pop 3" (Some 3) (Pqueue.pop q)

let test_pqueue_clear () =
  let q = Pqueue.create ~leq:( <= ) in
  List.iter (Pqueue.push q) [ 1; 2; 3 ];
  Pqueue.clear q;
  check_bool "cleared" true (Pqueue.is_empty q)

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue drains any int list in sorted order" ~count:200
    QCheck.(list int)
    (fun l ->
      let q = Pqueue.create ~leq:( <= ) in
      List.iter (Pqueue.push q) l;
      let drained = List.init (List.length l) (fun _ -> Option.get (Pqueue.pop q)) in
      drained = List.sort compare l)

(* ------------------------------------------------------------------ *)
(* Engine                                                             *)
(* ------------------------------------------------------------------ *)

let test_engine_clock_advances () =
  let eng = Engine.create () in
  let seen = ref [] in
  Engine.schedule eng ~after:5.0 (fun () -> seen := (5, Engine.now eng) :: !seen);
  Engine.schedule eng ~after:1.0 (fun () -> seen := (1, Engine.now eng) :: !seen);
  Engine.schedule eng ~after:3.0 (fun () -> seen := (3, Engine.now eng) :: !seen);
  let steps = Engine.run eng in
  check_int "three events" 3 steps;
  Alcotest.(check (list (pair int (float 1e-9))))
    "time order" [ (1, 1.0); (3, 3.0); (5, 5.0) ] (List.rev !seen)

let test_engine_tie_break_fifo () =
  let eng = Engine.create () in
  let seen = ref [] in
  for i = 1 to 5 do
    Engine.schedule eng ~after:2.0 (fun () -> seen := i :: !seen)
  done;
  ignore (Engine.run eng);
  Alcotest.(check (list int)) "fifo among ties" [ 1; 2; 3; 4; 5 ] (List.rev !seen)

let test_engine_sleep () =
  let eng = Engine.create () in
  let trace = ref [] in
  Engine.spawn eng ~name:"sleeper" (fun () ->
      trace := ("start", Engine.now eng) :: !trace;
      Engine.sleep eng 10.0;
      trace := ("mid", Engine.now eng) :: !trace;
      Engine.sleep eng 2.5;
      trace := ("end", Engine.now eng) :: !trace);
  Engine.run_and_check eng;
  Alcotest.(check (list (pair string (float 1e-9))))
    "sleep advances clock"
    [ ("start", 0.0); ("mid", 10.0); ("end", 12.5) ]
    (List.rev !trace)

let test_engine_two_fibers_interleave () =
  let eng = Engine.create () in
  let order = ref [] in
  Engine.spawn eng ~name:"a" (fun () ->
      order := "a1" :: !order;
      Engine.sleep eng 2.0;
      order := "a2" :: !order);
  Engine.spawn eng ~name:"b" (fun () ->
      order := "b1" :: !order;
      Engine.sleep eng 1.0;
      order := "b2" :: !order);
  Engine.run_and_check eng;
  Alcotest.(check (list string)) "interleaving" [ "a1"; "b1"; "b2"; "a2" ] (List.rev !order)

let test_engine_yield_fairness () =
  let eng = Engine.create () in
  let order = ref [] in
  Engine.spawn eng (fun () ->
      order := 1 :: !order;
      Engine.yield eng;
      order := 3 :: !order);
  Engine.spawn eng (fun () -> order := 2 :: !order);
  Engine.run_and_check eng;
  Alcotest.(check (list int)) "yield lets peer run" [ 1; 2; 3 ] (List.rev !order)

let test_engine_crash_recorded () =
  let eng = Engine.create () in
  Engine.spawn eng ~name:"doomed" (fun () -> failwith "boom");
  Engine.spawn eng ~name:"survivor" (fun () -> Engine.sleep eng 1.0);
  let (_ : int) = Engine.run eng in
  (match Engine.crashes eng with
  | [ c ] ->
      Alcotest.(check string) "crashed fiber name" "doomed" c.Engine.crash_fiber
  | l -> Alcotest.failf "expected 1 crash, got %d" (List.length l));
  check_int "survivor finished" 0 (Engine.live_fibers eng)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec loop i = i + nn <= nh && (String.sub haystack i nn = needle || loop (i + 1)) in
  nn = 0 || loop 0

let test_engine_run_and_check_raises () =
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> failwith "kaput");
  try
    Engine.run_and_check eng;
    Alcotest.fail "expected failure"
  with Failure msg -> check_bool "mentions kaput" true (contains_substring msg "kaput")

let test_engine_until () =
  let eng = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    Engine.schedule eng ~after:1.0 tick
  in
  Engine.schedule eng ~after:1.0 tick;
  let (_ : int) = Engine.run ~until:10.5 eng in
  check_int "ten ticks" 10 !count;
  check_bool "clock at last processed event" true (Engine.now eng <= 10.5)

let test_engine_max_steps () =
  let eng = Engine.create () in
  let rec tick () = Engine.schedule eng ~after:1.0 tick in
  Engine.schedule eng ~after:1.0 tick;
  let steps = Engine.run ~max_steps:25 eng in
  check_int "bounded" 25 steps

let test_engine_negative_delay_rejected () =
  let eng = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule eng ~after:(-1.0) (fun () -> ()))

let test_engine_nested_spawn () =
  let eng = Engine.create () in
  let seen = ref [] in
  Engine.spawn eng (fun () ->
      seen := "outer" :: !seen;
      Engine.spawn eng (fun () ->
          seen := "inner" :: !seen;
          Engine.sleep eng 1.0;
          seen := "inner-late" :: !seen);
      Engine.sleep eng 0.5;
      seen := "outer-late" :: !seen);
  Engine.run_and_check eng;
  Alcotest.(check (list string))
    "nesting" [ "outer"; "inner"; "outer-late"; "inner-late" ] (List.rev !seen)

let test_engine_determinism () =
  (* Two identical scenarios with random sleeps must produce identical
     traces. *)
  let run_once () =
    let eng = Engine.create ~seed:99L () in
    let rng = Engine.rng eng in
    let log = ref [] in
    for i = 1 to 10 do
      Engine.spawn eng (fun () ->
          Engine.sleep eng (Rng.float rng 10.0);
          log := (i, Engine.now eng) :: !log)
    done;
    Engine.run_and_check eng;
    List.rev !log
  in
  let a = run_once () and b = run_once () in
  Alcotest.(check (list (pair int (float 1e-12)))) "identical runs" a b

(* ------------------------------------------------------------------ *)
(* Ivar                                                               *)
(* ------------------------------------------------------------------ *)

let test_ivar_fill_then_read () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let got = ref None in
  Ivar.fill eng iv 42;
  Engine.spawn eng (fun () -> got := Some (Ivar.read eng iv));
  Engine.run_and_check eng;
  Alcotest.(check (option int)) "read after fill" (Some 42) !got

let test_ivar_read_then_fill () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let got = ref None in
  Engine.spawn eng (fun () -> got := Some (Ivar.read eng iv));
  Engine.spawn eng (fun () ->
      Engine.sleep eng 5.0;
      Ivar.fill eng iv "hello");
  Engine.run_and_check eng;
  Alcotest.(check (option string)) "blocked read" (Some "hello") !got

let test_ivar_multiple_readers () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let woken = ref 0 in
  for _ = 1 to 5 do
    Engine.spawn eng (fun () ->
        let (_ : int) = Ivar.read eng iv in
        incr woken)
  done;
  Engine.spawn eng (fun () ->
      Engine.sleep eng 1.0;
      Ivar.fill eng iv 7);
  Engine.run_and_check eng;
  check_int "all woken" 5 !woken

let test_ivar_double_fill_rejected () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  Ivar.fill eng iv 1;
  check_bool "try_fill fails" false (Ivar.try_fill eng iv 2);
  Alcotest.(check (option int)) "value unchanged" (Some 1) (Ivar.peek iv)

let test_ivar_timeout_expires () =
  let eng = Engine.create () in
  let iv : int Ivar.t = Ivar.create () in
  let got = ref (Some 0) in
  Engine.spawn eng (fun () -> got := Ivar.read_timeout eng iv 3.0);
  Engine.run_and_check eng;
  Alcotest.(check (option int)) "timed out" None !got;
  check_float "clock advanced to timeout" 3.0 (Engine.now eng)

let test_ivar_timeout_beaten_by_fill () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let got = ref None in
  Engine.spawn eng (fun () -> got := Ivar.read_timeout eng iv 10.0);
  Engine.spawn eng (fun () ->
      Engine.sleep eng 2.0;
      Ivar.fill eng iv 77);
  Engine.run_and_check eng;
  Alcotest.(check (option int)) "filled in time" (Some 77) !got

(* ------------------------------------------------------------------ *)
(* Signal                                                             *)
(* ------------------------------------------------------------------ *)

let test_signal_broadcast_wakes_all () =
  let eng = Engine.create () in
  let s = Signal.create () in
  let woken = ref 0 in
  for _ = 1 to 4 do
    Engine.spawn eng (fun () ->
        Signal.wait eng s;
        incr woken)
  done;
  Engine.spawn eng (fun () ->
      Engine.sleep eng 1.0;
      Signal.broadcast eng s);
  Engine.run_and_check eng;
  check_int "all woken" 4 !woken;
  check_int "generation" 1 (Signal.generation s)

let test_signal_wait_timeout () =
  let eng = Engine.create () in
  let s = Signal.create () in
  let result = ref true in
  Engine.spawn eng (fun () -> result := Signal.wait_timeout eng s 5.0);
  Engine.run_and_check eng;
  check_bool "timed out" false !result

let test_signal_wait_timeout_signalled () =
  let eng = Engine.create () in
  let s = Signal.create () in
  let result = ref false in
  Engine.spawn eng (fun () -> result := Signal.wait_timeout eng s 5.0);
  Engine.spawn eng (fun () ->
      Engine.sleep eng 1.0;
      Signal.broadcast eng s);
  Engine.run_and_check eng;
  check_bool "woken by broadcast" true !result

let test_signal_rearm () =
  let eng = Engine.create () in
  let s = Signal.create () in
  let count = ref 0 in
  Engine.spawn eng (fun () ->
      Signal.wait eng s;
      incr count;
      Signal.wait eng s;
      incr count);
  Engine.spawn eng (fun () ->
      Engine.sleep eng 1.0;
      Signal.broadcast eng s;
      Engine.sleep eng 1.0;
      Signal.broadcast eng s);
  Engine.run_and_check eng;
  check_int "woken twice" 2 !count

(* ------------------------------------------------------------------ *)
(* Mailbox                                                            *)
(* ------------------------------------------------------------------ *)

let test_mailbox_fifo () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  Engine.spawn eng (fun () ->
      for _ = 1 to 3 do
        got := Mailbox.recv eng mb :: !got
      done);
  Engine.spawn eng (fun () ->
      Mailbox.send eng mb 1;
      Mailbox.send eng mb 2;
      Mailbox.send eng mb 3);
  Engine.run_and_check eng;
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_recv_blocks () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let at = ref 0.0 in
  Engine.spawn eng (fun () ->
      let (_ : int) = Mailbox.recv eng mb in
      at := Engine.now eng);
  Engine.spawn eng (fun () ->
      Engine.sleep eng 4.0;
      Mailbox.send eng mb 9);
  Engine.run_and_check eng;
  check_float "received when sent" 4.0 !at

let test_mailbox_receivers_fifo () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  for i = 1 to 3 do
    Engine.spawn eng (fun () ->
        let v = Mailbox.recv eng mb in
        got := (i, v) :: !got)
  done;
  Engine.spawn eng (fun () ->
      Engine.sleep eng 1.0;
      List.iter (Mailbox.send eng mb) [ 100; 200; 300 ]);
  Engine.run_and_check eng;
  Alcotest.(check (list (pair int int)))
    "oldest receiver gets first message"
    [ (1, 100); (2, 200); (3, 300) ]
    (List.rev !got)

let test_mailbox_timeout () =
  let eng = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create () in
  let got = ref (Some 0) in
  Engine.spawn eng (fun () -> got := Mailbox.recv_timeout eng mb 2.0);
  Engine.run_and_check eng;
  Alcotest.(check (option int)) "timeout" None !got

let test_mailbox_timeout_then_send_not_lost () =
  (* A message sent after a receiver timed out must stay queued for the next
     receiver rather than being delivered to the dead waiter. *)
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let first = ref (Some 0) and second = ref None in
  Engine.spawn eng (fun () -> first := Mailbox.recv_timeout eng mb 1.0);
  Engine.spawn eng (fun () ->
      Engine.sleep eng 2.0;
      Mailbox.send eng mb 42);
  Engine.spawn eng (fun () ->
      Engine.sleep eng 3.0;
      second := Mailbox.recv_timeout eng mb 1.0);
  Engine.run_and_check eng;
  Alcotest.(check (option int)) "first timed out" None !first;
  Alcotest.(check (option int)) "second got message" (Some 42) !second

let test_mailbox_skips_dead_waiters () =
  (* Receivers 1 and 3 time out before anything is sent; the sends must
     go to the oldest live receivers (2 then 4) and the third message
     must stay queued. *)
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  for i = 1 to 4 do
    Engine.spawn eng (fun () ->
        let v =
          if i mod 2 = 1 then Mailbox.recv_timeout eng mb 1.0 else Some (Mailbox.recv eng mb)
        in
        got := (i, v) :: !got)
  done;
  Engine.spawn eng (fun () ->
      Engine.sleep eng 2.0;
      List.iter (Mailbox.send eng mb) [ 10; 20; 30 ]);
  Engine.run_and_check eng;
  Alcotest.(check (list (pair int (option int))))
    "dead waiters skipped, live ones served oldest first"
    [ (1, None); (3, None); (2, Some 10); (4, Some 20) ]
    (List.rev !got);
  check_int "third message queued" 1 (Mailbox.length mb)

let test_mailbox_try_recv () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  Alcotest.(check (option int)) "empty" None (Mailbox.try_recv mb);
  Mailbox.send eng mb 5;
  Alcotest.(check (option int)) "nonempty" (Some 5) (Mailbox.try_recv mb);
  check_int "drained" 0 (Mailbox.length mb)

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check_int "count" 4 (Stats.count s);
  check_float "mean" 2.5 (Stats.mean s);
  check_float "min" 1.0 (Stats.min s);
  check_float "max" 4.0 (Stats.max s);
  check_float "total" 10.0 (Stats.total s)

let test_stats_stddev () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  let sd = Stats.stddev s in
  check_bool "sample stddev ~ 2.138" true (abs_float (sd -. 2.13809) < 1e-4)

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  check_float "p50" 50.0 (Stats.percentile s 50.0);
  check_float "p95" 95.0 (Stats.percentile s 95.0);
  check_float "p100" 100.0 (Stats.percentile s 100.0);
  check_float "median" 50.0 (Stats.median s)

let test_stats_empty_percentile () =
  let s = Stats.create () in
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile s 50.0))

(* The linear-interpolation variant at its window boundaries: p=0 and
   p=100 are exactly min and max, a single sample answers every p, and
   fractional ranks interpolate between the bracketing samples instead
   of snapping to the max the way nearest-rank does on small n. *)
let test_stats_percentile_linear_boundaries () =
  let one = Stats.create () in
  Stats.add one 7.5;
  check_float "n=1 p0" 7.5 (Stats.percentile_linear one 0.0);
  check_float "n=1 p50" 7.5 (Stats.percentile_linear one 50.0);
  check_float "n=1 p100" 7.5 (Stats.percentile_linear one 100.0);
  let s = Stats.create () in
  List.iter (Stats.add s) [ 30.0; 10.0; 20.0; 40.0 ];
  check_float "p0 = min" 10.0 (Stats.percentile_linear s 0.0);
  check_float "p100 = max" 40.0 (Stats.percentile_linear s 100.0);
  (* rank = 0.95 * 3 = 2.85: between 30 and 40. *)
  check_float "p95 interpolates" 38.5 (Stats.percentile_linear s 95.0);
  check_float "p50 interpolates" 25.0 (Stats.percentile_linear s 50.0);
  (* nearest-rank on the same data snaps p95 to the max sample. *)
  check_float "nearest-rank p95 is max" 40.0 (Stats.percentile s 95.0)

let test_stats_percentile_linear_rejects () =
  let s = Stats.create () in
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile_linear: empty")
    (fun () -> ignore (Stats.percentile_linear s 50.0));
  Stats.add s 1.0;
  Alcotest.check_raises "p < 0" (Invalid_argument "Stats.percentile_linear: p out of range")
    (fun () -> ignore (Stats.percentile_linear s (-0.1)));
  Alcotest.check_raises "p > 100" (Invalid_argument "Stats.percentile_linear: p out of range")
    (fun () -> ignore (Stats.percentile_linear s 100.1))

let test_histogram () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~buckets:5 in
  List.iter (Stats.Histogram.add h) [ -1.0; 0.0; 1.9; 2.0; 9.9; 10.0; 50.0 ];
  let c = Stats.Histogram.counts h in
  check_int "underflow" 1 c.(0);
  check_int "bucket0 [0,2)" 2 c.(1);
  check_int "bucket1 [2,4)" 1 c.(2);
  check_int "bucket4 [8,10)" 1 c.(5);
  check_int "overflow" 2 c.(6)

let prop_stats_percentile_in_samples =
  QCheck.Test.make ~name:"percentile returns an actual sample" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_range (-100.) 100.))
    (fun l ->
      let s = Stats.create () in
      List.iter (Stats.add s) l;
      let p = Stats.percentile s 50.0 in
      List.exists (fun x -> Float.equal x p) l)

let prop_stats_mean_bounded =
  QCheck.Test.make ~name:"mean lies between min and max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_range (-1000.) 1000.))
    (fun l ->
      let s = Stats.create () in
      List.iter (Stats.add s) l;
      Stats.mean s >= Stats.min s -. 1e-9 && Stats.mean s <= Stats.max s +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Run-slice events                                                   *)
(* ------------------------------------------------------------------ *)

(* Records the Run_begin/Run_end stream of a small three-fiber run and
   checks the bracketing invariants the profiler depends on. *)
let record_run_slices () =
  let module Obs = Weakset_obs in
  let eng = Engine.create () in
  let ring = Obs.Ring.create ~capacity:10_000 in
  Obs.Bus.attach (Engine.bus eng) ~name:"ring" (Obs.Ring.sink ring);
  let iv = Ivar.create () in
  Engine.spawn eng ~name:"sleeper" (fun () ->
      Engine.sleep eng 2.0;
      Engine.yield eng;
      Ivar.fill eng iv 7);
  Engine.spawn eng ~name:"waiter" (fun () -> ignore (Ivar.read eng iv));
  Engine.spawn eng ~name:"crasher" (fun () -> failwith "boom");
  let (_ : int) = Engine.run eng in
  Obs.Ring.to_list ring

let test_run_slices_balanced () =
  let module E = Weakset_obs.Event in
  let events = record_run_slices () in
  (* Every Run_begin is matched by exactly one Run_end of the same fid,
     and a fiber is never "running" twice at once. *)
  let running = Hashtbl.create 8 in
  let ends = Hashtbl.create 8 in
  List.iter
    (fun (e : E.t) ->
      match e.kind with
      | E.Run_begin { fid; _ } ->
          if Hashtbl.mem running fid then
            Alcotest.failf "fiber %d began a slice while already running" fid;
          Hashtbl.replace running fid ()
      | E.Run_end { fid; park; _ } ->
          if not (Hashtbl.mem running fid) then
            Alcotest.failf "fiber %d ended a slice it never began" fid;
          Hashtbl.remove running fid;
          Hashtbl.replace ends fid
            (park :: Option.value ~default:[] (Hashtbl.find_opt ends fid))
      | _ -> ())
    events;
  check_int "no slice left open" 0 (Hashtbl.length running);
  check_int "three fibers ran" 3 (Hashtbl.length ends);
  (* Terminal park reasons: one crash, two dones. *)
  let finals = Hashtbl.fold (fun _ parks acc -> List.hd parks :: acc) ends [] in
  check_int "one crash" 1
    (List.length (List.filter (fun p -> p = E.Park_crash) finals));
  check_int "two clean exits" 2
    (List.length (List.filter (fun p -> p = E.Park_done) finals))

let test_run_slices_park_reasons () =
  let module E = Weakset_obs.Event in
  let events = record_run_slices () in
  let parks_of name =
    List.filter_map
      (fun (e : E.t) ->
        match e.kind with
        | E.Run_end { fiber; park; _ } when fiber = name -> Some park
        | _ -> None)
      events
  in
  (match parks_of "sleeper" with
  | [ E.Park_sleep wake; E.Park_yield; E.Park_done ] -> check_float "wake time" 2.0 wake
  | parks -> Alcotest.failf "sleeper parks unexpected (%d)" (List.length parks));
  match parks_of "waiter" with
  | [ E.Park_suspend; E.Park_done ] -> ()
  | parks -> Alcotest.failf "waiter parks unexpected (%d)" (List.length parks)

(* ------------------------------------------------------------------ *)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "weakset_sim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int rejects bound<=0" `Quick test_rng_int_rejects_nonpositive;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
          Alcotest.test_case "chance frequency" `Quick test_rng_chance_frequency;
          Alcotest.test_case "geometric" `Quick test_rng_geometric;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          Alcotest.test_case "pick_list" `Quick test_rng_pick_list;
        ] );
      ( "pqueue",
        Alcotest.test_case "basic" `Quick test_pqueue_basic
        :: Alcotest.test_case "interleaved" `Quick test_pqueue_interleaved
        :: Alcotest.test_case "clear" `Quick test_pqueue_clear
        :: qcheck [ prop_pqueue_sorts ] );
      ( "engine",
        [
          Alcotest.test_case "clock advances" `Quick test_engine_clock_advances;
          Alcotest.test_case "tie-break fifo" `Quick test_engine_tie_break_fifo;
          Alcotest.test_case "sleep" `Quick test_engine_sleep;
          Alcotest.test_case "two fibers interleave" `Quick test_engine_two_fibers_interleave;
          Alcotest.test_case "yield fairness" `Quick test_engine_yield_fairness;
          Alcotest.test_case "crash recorded" `Quick test_engine_crash_recorded;
          Alcotest.test_case "run_and_check raises" `Quick test_engine_run_and_check_raises;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "max steps" `Quick test_engine_max_steps;
          Alcotest.test_case "negative delay rejected" `Quick test_engine_negative_delay_rejected;
          Alcotest.test_case "nested spawn" `Quick test_engine_nested_spawn;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "fill then read" `Quick test_ivar_fill_then_read;
          Alcotest.test_case "read then fill" `Quick test_ivar_read_then_fill;
          Alcotest.test_case "multiple readers" `Quick test_ivar_multiple_readers;
          Alcotest.test_case "double fill rejected" `Quick test_ivar_double_fill_rejected;
          Alcotest.test_case "timeout expires" `Quick test_ivar_timeout_expires;
          Alcotest.test_case "timeout beaten by fill" `Quick test_ivar_timeout_beaten_by_fill;
        ] );
      ( "signal",
        [
          Alcotest.test_case "broadcast wakes all" `Quick test_signal_broadcast_wakes_all;
          Alcotest.test_case "wait timeout" `Quick test_signal_wait_timeout;
          Alcotest.test_case "wait timeout signalled" `Quick test_signal_wait_timeout_signalled;
          Alcotest.test_case "re-arm" `Quick test_signal_rearm;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "recv blocks" `Quick test_mailbox_recv_blocks;
          Alcotest.test_case "receivers fifo" `Quick test_mailbox_receivers_fifo;
          Alcotest.test_case "timeout" `Quick test_mailbox_timeout;
          Alcotest.test_case "timeout then send not lost" `Quick
            test_mailbox_timeout_then_send_not_lost;
          Alcotest.test_case "skips dead waiters" `Quick test_mailbox_skips_dead_waiters;
          Alcotest.test_case "try_recv" `Quick test_mailbox_try_recv;
        ] );
      ( "stats",
        Alcotest.test_case "basic" `Quick test_stats_basic
        :: Alcotest.test_case "stddev" `Quick test_stats_stddev
        :: Alcotest.test_case "percentile" `Quick test_stats_percentile
        :: Alcotest.test_case "empty percentile" `Quick test_stats_empty_percentile
        :: Alcotest.test_case "percentile_linear boundaries" `Quick
             test_stats_percentile_linear_boundaries
        :: Alcotest.test_case "percentile_linear rejects bad input" `Quick
             test_stats_percentile_linear_rejects
        :: Alcotest.test_case "histogram" `Quick test_histogram
        :: qcheck [ prop_stats_percentile_in_samples; prop_stats_mean_bounded ] );
      ( "run-slices",
        [
          Alcotest.test_case "balanced begin/end" `Quick test_run_slices_balanced;
          Alcotest.test_case "park reasons" `Quick test_run_slices_park_reasons;
        ] );
    ]
