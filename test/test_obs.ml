(* Tests for the weakset_obs observability layer: trace-digest
   determinism across seeded runs, ring-buffer sink semantics, metrics
   registry / Netstat snapshots, RPC failure detection for destinations
   that crash mid-call, Stats edge cases, rebuilding a spec computation
   from the recorded event stream, and equivalence of the buffer
   writers with the Printf/Format renderings they replaced. *)

open Weakset_sim
open Weakset_net
open Weakset_store
module Obs = Weakset_obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Digest determinism                                                 *)
(* ------------------------------------------------------------------ *)

(* A small distributed run whose event stream exercises every layer:
   fibers, scheduling, transport, RPC, store ops, client spans, and
   faults — with Rng-driven sleeps so different seeds genuinely diverge. *)
let run_scenario seed =
  let eng = Engine.create ~seed:(Int64.of_int seed) () in
  let digest = Obs.Digest.create () in
  Obs.Bus.attach (Engine.bus eng) ~name:"digest" (Obs.Digest.sink digest);
  let topo = Topology.create () in
  let nodes = Topology.clique topo 5 ~latency:1.0 in
  let rpc = Rpc.create eng topo in
  let servers = Array.map (fun n -> Node_server.create rpc n) nodes in
  Node_server.host_directory servers.(0) ~set_id:1 ~policy:Node_server.Immediate;
  let client = Client.create rpc nodes.(4) in
  let sref = { Protocol.set_id = 1; coordinator = nodes.(0); replicas = [] } in
  let fault = Fault.create eng topo in
  let wrng = Rng.split (Engine.rng eng) in
  Engine.spawn eng ~name:"workload" (fun () ->
      for i = 1 to 10 do
        Engine.sleep eng (Rng.exponential wrng ~mean:2.0);
        let home_ix = 1 + (i mod 3) in
        let oid = Oid.make ~num:i ~home:nodes.(home_ix) in
        Node_server.put_object servers.(home_ix) oid
          (Svalue.make (Printf.sprintf "v%d" i));
        (match Client.dir_add client sref oid with Ok () | Error _ -> ());
        match Client.fetch client oid with Ok _ | Error _ -> ()
      done);
  Fault.schedule_crash fault ~at:8.0 nodes.(2);
  Fault.schedule_recover fault ~at:14.0 nodes.(2);
  let (_ : int) = Engine.run eng in
  (Obs.Digest.value digest, Obs.Digest.count digest)

let test_same_seed_same_digest () =
  let d1, n1 = run_scenario 42 in
  let d2, n2 = run_scenario 42 in
  check_bool "stream is non-trivial" true (n1 > 50);
  check_int "same event count" n1 n2;
  check_string "byte-identical digests" d1 d2

let test_different_seed_different_digest () =
  let d1, _ = run_scenario 1 in
  let d2, _ = run_scenario 2 in
  check_bool "digests differ" true (d1 <> d2)

(* ------------------------------------------------------------------ *)
(* Ring-buffer sink                                                   *)
(* ------------------------------------------------------------------ *)

let ev seq =
  {
    Obs.Event.seq;
    time = float_of_int seq;
    kind = Obs.Event.Custom { label = "t"; detail = string_of_int seq };
  }

let seqs ring = List.map (fun e -> e.Obs.Event.seq) (Obs.Ring.to_list ring)

let test_ring_below_capacity () =
  let r = Obs.Ring.create ~capacity:4 in
  List.iter (fun i -> Obs.Ring.push r (ev i)) [ 0; 1; 2 ];
  check_int "length" 3 (Obs.Ring.length r);
  check_int "nothing dropped" 0 (Obs.Ring.dropped r);
  Alcotest.(check (list int)) "in order" [ 0; 1; 2 ] (seqs r)

let test_ring_drops_oldest_in_order () =
  let r = Obs.Ring.create ~capacity:3 in
  List.iter (fun i -> Obs.Ring.push r (ev i)) [ 0; 1; 2; 3; 4 ];
  check_int "capped" 3 (Obs.Ring.length r);
  check_int "two dropped" 2 (Obs.Ring.dropped r);
  Alcotest.(check (list int)) "newest three, oldest first" [ 2; 3; 4 ] (seqs r)

let test_ring_as_bus_sink () =
  let bus = Obs.Bus.create () in
  let r = Obs.Ring.create ~capacity:2 in
  Obs.Bus.attach bus ~name:"ring" (Obs.Ring.sink r);
  for i = 0 to 4 do
    Obs.Bus.emit bus ~time:(float_of_int i)
      (Obs.Event.Custom { label = "t"; detail = string_of_int i })
  done;
  Alcotest.(check (list int)) "last two events" [ 3; 4 ] (seqs r);
  check_int "drop count" 3 (Obs.Ring.dropped r)

let test_ring_overwrite_at_capacity () =
  (* Exactly at capacity nothing is dropped; each further push then
     overwrites the oldest slot, and ordering survives multiple full
     wrap-arounds of the underlying circular buffer. *)
  let r = Obs.Ring.create ~capacity:3 in
  List.iter (fun i -> Obs.Ring.push r (ev i)) [ 0; 1; 2 ];
  check_int "full, nothing dropped" 0 (Obs.Ring.dropped r);
  Alcotest.(check (list int)) "at capacity, in order" [ 0; 1; 2 ] (seqs r);
  Obs.Ring.push r (ev 3);
  check_int "one dropped on overflow" 1 (Obs.Ring.dropped r);
  Alcotest.(check (list int)) "oldest overwritten first" [ 1; 2; 3 ] (seqs r);
  List.iter (fun i -> Obs.Ring.push r (ev i)) [ 4; 5; 6; 7; 8 ];
  check_int "length stays capped" 3 (Obs.Ring.length r);
  check_int "drop count accumulates" 6 (Obs.Ring.dropped r);
  Alcotest.(check (list int)) "ordered after two wrap-arounds" [ 6; 7; 8 ] (seqs r)

let test_ring_rejects_nonpositive_capacity () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Obs.Ring.create ~capacity:0))

(* ------------------------------------------------------------------ *)
(* Metrics registry and Netstat snapshots                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_counters_and_peek () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m ~labels:[ ("x", "1") ] "hits" in
  Obs.Metrics.inc c;
  Obs.Metrics.inc ~by:4 c;
  check_int "counter value" 5 (Obs.Metrics.value c);
  (* Same (name, labels) interns the same cell, label order irrelevant. *)
  let c' = Obs.Metrics.counter m ~labels:[ ("x", "1") ] "hits" in
  Obs.Metrics.inc c';
  check_int "shared cell" 6 (Obs.Metrics.value c);
  check_int "peek sees it" 6 (Obs.Metrics.peek_counter m ~labels:[ ("x", "1") ] "hits");
  check_int "absent counter reads 0" 0 (Obs.Metrics.peek_counter m "misses")

let test_metrics_histogram_percentiles () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "lat" in
  List.iter (Obs.Metrics.observe h) [ 1.0; 2.0; 3.0; 4.0 ];
  check_int "count" 4 (Obs.Metrics.h_count h);
  Alcotest.(check (float 1e-9)) "linear p50" 2.5 (Obs.Metrics.h_percentile h 50.0);
  Alcotest.(check (float 1e-9)) "p0 is min" 1.0 (Obs.Metrics.h_percentile h 0.0);
  Alcotest.(check (float 1e-9)) "p100 is max" 4.0 (Obs.Metrics.h_percentile h 100.0)

let test_netstat_snapshot_from_registry () =
  let eng = Engine.create () in
  let topo = Topology.create () in
  let a = Topology.add_node topo in
  let b = Topology.add_node topo in
  Topology.add_link topo a b ~latency:1.0;
  let tr = Transport.create eng topo in
  Transport.send tr ~src:a ~dst:b "hello";
  let (_ : int) = Engine.run eng in
  Topology.set_node_up topo b false;
  Transport.send tr ~src:a ~dst:b "to the dead";
  let (_ : int) = Engine.run eng in
  let st = Transport.stats tr in
  check_int "sent" 2 st.Netstat.sent;
  check_int "delivered" 1 st.Netstat.delivered;
  check_int "dropped down" 1 st.Netstat.dropped_down;
  (* The snapshot is just a view of the engine's registry. *)
  check_int "registry agrees" 1
    (Obs.Metrics.peek_counter (Engine.metrics eng)
       ~labels:(Netstat.labels ~instance:(Transport.instance tr))
       "net.delivered")

(* ------------------------------------------------------------------ *)
(* RPC failure detection for mid-call crashes                         *)
(* ------------------------------------------------------------------ *)

let test_rpc_detects_crash_mid_call () =
  let eng = Engine.create () in
  let topo = Topology.create () in
  let a = Topology.add_node topo in
  let b = Topology.add_node topo in
  Topology.add_link topo a b ~latency:1.0;
  let rpc = Rpc.create eng topo in
  Rpc.serve rpc b ~service_time:(fun _ -> 5.0) (fun x -> x + 1);
  let result = ref None in
  Engine.spawn eng ~name:"caller" (fun () ->
      let r = Rpc.call rpc ~src:a ~dst:b ~timeout:30.0 41 in
      result := Some (r, Engine.now eng));
  (* The server crashes while it is "computing" the response. *)
  Engine.schedule eng ~after:2.0 (fun () -> Topology.set_node_up topo b false);
  let (_ : int) = Engine.run eng in
  match !result with
  | Some (Error Rpc.Unreachable, t) ->
      (* detect_delay (0.5) after the crash, not the full 30.0 timeout *)
      Alcotest.(check (float 1e-9)) "detected at crash + detect_delay" 2.5 t;
      check_int "counted unreachable" 1 (Rpc.stats rpc).Netstat.rpc_unreachable
  | Some (Ok _, _) -> Alcotest.fail "call should not succeed"
  | Some (Error Rpc.Timeout, t) ->
      Alcotest.fail (Printf.sprintf "burned the timeout (finished at %.1f)" t)
  | None -> Alcotest.fail "caller never finished"

let test_rpc_link_cut_still_times_out () =
  (* A cut link with both endpoints up is indistinguishable from message
     loss: the failure detector must NOT fire, and the call times out. *)
  let eng = Engine.create () in
  let topo = Topology.create () in
  let a = Topology.add_node topo in
  let b = Topology.add_node topo in
  Topology.add_link topo a b ~latency:1.0;
  let rpc = Rpc.create eng topo in
  Rpc.serve rpc b ~service_time:(fun _ -> 5.0) (fun x -> x + 1);
  let result = ref None in
  Engine.spawn eng ~name:"caller" (fun () ->
      let r = Rpc.call rpc ~src:a ~dst:b ~timeout:10.0 41 in
      result := Some (r, Engine.now eng));
  Engine.schedule eng ~after:2.0 (fun () -> Topology.set_link_up topo a b false);
  let (_ : int) = Engine.run eng in
  match !result with
  | Some (Error Rpc.Timeout, t) ->
      Alcotest.(check (float 1e-9)) "full timeout" 10.0 t
  | Some _ -> Alcotest.fail "expected timeout"
  | None -> Alcotest.fail "caller never finished"

(* ------------------------------------------------------------------ *)
(* Stats edge cases                                                   *)
(* ------------------------------------------------------------------ *)

let test_stats_empty_min_max_raise () =
  let s = Stats.create () in
  Alcotest.check_raises "min" (Invalid_argument "Stats.min: empty") (fun () ->
      ignore (Stats.min s));
  Alcotest.check_raises "max" (Invalid_argument "Stats.max: empty") (fun () ->
      ignore (Stats.max s))

let test_stats_percentile_linear () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check (float 1e-9)) "interpolated p50" 2.5 (Stats.percentile_linear s 50.0);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile_linear s 0.0);
  Alcotest.(check (float 1e-9)) "p100" 4.0 (Stats.percentile_linear s 100.0);
  let big = Stats.create () in
  for i = 1 to 100 do
    Stats.add big (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "p95 of 1..100" 95.05 (Stats.percentile_linear big 95.0);
  (* nearest-rank behaviour is unchanged *)
  Alcotest.(check (float 1e-9)) "nearest-rank p95 still 95" 95.0 (Stats.percentile big 95.0);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile_linear: empty")
    (fun () -> ignore (Stats.percentile_linear (Stats.create ()) 50.0))

let test_stats_percentile_edges () =
  (* Degenerate sample counts: with one sample every percentile is that
     sample; with two, nearest-rank snaps to an endpoint while linear
     interpolates between them.  p=0 / p=100 are exact endpoints. *)
  let one = Stats.create () in
  Stats.add one 7.0;
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9)) (Printf.sprintf "1 sample, p%g" p) 7.0 (Stats.percentile one p);
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "1 sample, linear p%g" p)
        7.0
        (Stats.percentile_linear one p))
    [ 0.0; 50.0; 100.0 ];
  let two = Stats.create () in
  Stats.add two 10.0;
  Stats.add two 20.0;
  Alcotest.(check (float 1e-9)) "2 samples, p0" 10.0 (Stats.percentile two 0.0);
  Alcotest.(check (float 1e-9)) "2 samples, p100" 20.0 (Stats.percentile two 100.0);
  Alcotest.(check (float 1e-9)) "2 samples, linear p0" 10.0 (Stats.percentile_linear two 0.0);
  Alcotest.(check (float 1e-9)) "2 samples, linear p100" 20.0 (Stats.percentile_linear two 100.0);
  Alcotest.(check (float 1e-9)) "2 samples, linear p25 interpolates" 12.5
    (Stats.percentile_linear two 25.0);
  Alcotest.(check (float 1e-9)) "2 samples, linear p50 is midpoint" 15.0
    (Stats.percentile_linear two 50.0)

(* ------------------------------------------------------------------ *)
(* Metrics registry: interned-but-never-observed histograms           *)
(* ------------------------------------------------------------------ *)

let contains hay sub =
  let nh = String.length hay and ns = String.length sub in
  let rec at i = i + ns <= nh && (String.sub hay i ns = sub || at (i + 1)) in
  at 0

let test_metrics_empty_histogram_export () =
  (* Regression: a histogram cell interned (e.g. by a world that never
     exercised that code path) must export cleanly — count 0, no
     percentiles — rather than blowing up the whole registry dump. *)
  let m = Obs.Metrics.create () in
  let (_ : Obs.Metrics.histogram) = Obs.Metrics.histogram m "never.observed" in
  let (_ : Obs.Metrics.counter) = Obs.Metrics.counter m "hits" in
  let json = Obs.Metrics.to_json m in
  check_bool "to_json mentions the empty histogram" true
    (contains json {|"never.observed"|});
  check_bool "empty histogram exports count 0" true (contains json {|"count":0|});
  let rendered = Format.asprintf "%a" Obs.Metrics.pp m in
  check_bool "pp renders without raising" true (String.length rendered > 0)

(* ------------------------------------------------------------------ *)
(* JSONL round trip: to_json |> of_json is the identity               *)
(* ------------------------------------------------------------------ *)

(* One hand-picked event per kind constructor, with every optional field
   exercised both ways, so coverage does not depend on random draws. *)
let roundtrip_examples =
  let open Obs.Event in
  let e1 = { elem_id = 3; elem_label = "f\"oo\\bar\n" } in
  let e2 = { elem_id = 0; elem_label = "" } in
  [
    Fiber_spawn { fid = 1; fiber = "worker-1" };
    Run_begin { fid = 1; fiber = "worker-1" };
    Run_end { fid = 1; fiber = "worker-1"; park = Park_yield };
    Run_end { fid = 1; fiber = "worker-1"; park = Park_sleep (1.0 /. 3.0) };
    Run_end { fid = 1; fiber = "worker-1"; park = Park_suspend };
    Run_end { fid = 1; fiber = "worker-1"; park = Park_done };
    Run_end { fid = 1; fiber = "worker-1"; park = Park_crash };
    Fiber_crash { fiber = "w"; exn_text = "Failure(\"boom\")" };
    Sched { at = 1.0 /. 3.0 };
    Fault_node_crash { node = 2 };
    Fault_node_recover { node = 2 };
    Fault_link_cut { a = 0; b = 5 };
    Fault_link_heal { a = 0; b = 5 };
    Fault_partition;
    Fault_heal_all;
    Net_send { src = 1; dst = 2; lc = 7 };
    Net_deliver { src = 1; dst = 2; sent_at = 0.1; send_lc = 7; lc = 9 };
    Net_drop { src = 1; dst = 2; reason = Unreachable };
    Net_drop { src = 1; dst = 2; reason = Endpoint_down };
    Net_drop { src = 1; dst = 2; reason = In_flight };
    Net_drop { src = 1; dst = 2; reason = Lost };
    Rpc_call { src = 1; dst = 2; id = 4; lc = 11; parent = Some 6 };
    Rpc_call { src = 1; dst = 2; id = 4; lc = 11; parent = None };
    Rpc_done { src = 1; dst = 2; id = 4; outcome = Rpc_ok; lc = 12 };
    Rpc_done { src = 1; dst = 2; id = 4; outcome = Rpc_timeout; lc = 12 };
    Rpc_done { src = 1; dst = 2; id = 4; outcome = Rpc_unreachable; lc = 12 };
    Span_start { span = 8; parent = Some 6; name = "client.fetch"; node = Some 3 };
    Span_start { span = 8; parent = None; name = "ls"; node = None };
    Span_end { span = 8; name = "client.fetch"; node = Some 3; dur = 2.05 };
    Store_op { node = 3; op = "fetch"; parent = Some 8 };
    Store_op { node = 3; op = "fetch"; parent = None };
    Cache_hit { node = 5; ckind = Cache_dir; id = 3; version = 7; age = 1.25 };
    Cache_hit { node = 5; ckind = Cache_obj; id = 9; version = 0; age = 0.0 };
    Cache_miss { node = 1; ckind = Cache_dir; id = 3 };
    Cache_miss { node = 1; ckind = Cache_obj; id = 2 };
    Cache_inval { node = 4; set_id = 1; version = 9 };
    Lease_expire { node = 2; ckind = Cache_dir; id = 1 };
    Lease_expire { node = 2; ckind = Cache_obj; id = 6 };
    Spec_observe { set_id = 1; phase = Phase_first; s = [ e1 ]; accessible = [ e1; e2 ] };
    Spec_observe { set_id = 1; phase = Phase_invocation_start; s = []; accessible = [] };
    Spec_observe { set_id = 1; phase = Phase_invocation_retry; s = [ e2 ]; accessible = [] };
    Spec_observe { set_id = 1; phase = Phase_returns; s = []; accessible = [ e1 ] };
    Spec_observe { set_id = 1; phase = Phase_fails; s = []; accessible = [] };
    Spec_observe { set_id = 1; phase = Phase_suspends e1; s = [ e1 ]; accessible = [ e1 ] };
    Spec_observe { set_id = 1; phase = Phase_mutation (Spec_add e2); s = [ e2 ]; accessible = [ e2 ] };
    Spec_observe { set_id = 1; phase = Phase_mutation (Spec_remove e2); s = []; accessible = [ e2 ] };
    Alert
      {
        source = "slo";
        op = "client.fetch";
        severity = Sev_warn;
        burn = 2.5;
        window = 100.0;
        detail = "err=0.25 target=0.9";
      };
    Alert
      {
        source = "slo";
        op = "client.dir-read";
        severity = Sev_crit;
        burn = 40.0;
        window = 50.0;
        detail = "";
      };
    Spec_violation { set_id = 2; where = "constraint:2.3"; message = "s not within acc" };
    Custom { label = "x"; detail = "free \"text\" with\nnewlines\tand \\slashes" };
  ]

let test_json_roundtrip_examples () =
  List.iteri
    (fun i kind ->
      let e = { Obs.Event.seq = i; time = float_of_int i *. 0.7; kind } in
      match Obs.Event.of_json_string (Obs.Event.to_json e) with
      | Ok e' ->
          check_bool
            (Printf.sprintf "example %d (%s) round-trips" i (Obs.Event.label kind))
            true (e = e')
      | Error m -> Alcotest.failf "example %d failed to parse: %s" i m)
    roundtrip_examples

(* Property form: random events (arbitrary byte strings, optional fields
   both ways, exact float payloads) survive the round trip.  [fin] draws
   the float fields. *)
let gen_event_with fin =
  let open QCheck.Gen in
  (* Arbitrary bytes, with the characters JSON must escape over-weighted. *)
  let chr =
    frequency
      [
        (3, map Char.chr (int_range 0 255));
        (1, oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\000'; '\031'; '\127' ]);
      ]
  in
  let str = string_size ~gen:chr (int_bound 12) in
  let elem = map2 (fun elem_id elem_label -> { Obs.Event.elem_id; elem_label }) small_nat str in
  let phase =
    let open Obs.Event in
    oneof
      [
        oneofl [ Phase_first; Phase_invocation_start; Phase_invocation_retry; Phase_returns; Phase_fails ];
        map (fun e -> Phase_suspends e) elem;
        map (fun e -> Phase_mutation (Spec_add e)) elem;
        map (fun e -> Phase_mutation (Spec_remove e)) elem;
      ]
  in
  let kind =
    let open Obs.Event in
    oneof
      [
        map2 (fun fid fiber -> Fiber_spawn { fid; fiber }) small_nat str;
        map2 (fun fid fiber -> Run_begin { fid; fiber }) small_nat str;
        ( small_nat >>= fun fid ->
          str >>= fun fiber ->
          map
            (fun park -> Run_end { fid; fiber; park })
            (oneof
               [
                 oneofl [ Park_yield; Park_suspend; Park_done; Park_crash ];
                 map (fun w -> Park_sleep w) fin;
               ]) );
        map2 (fun fiber exn_text -> Fiber_crash { fiber; exn_text }) str str;
        map (fun at -> Sched { at }) fin;
        map (fun node -> Fault_node_crash { node }) small_nat;
        map (fun node -> Fault_node_recover { node }) small_nat;
        map2 (fun a b -> Fault_link_cut { a; b }) small_nat small_nat;
        map2 (fun a b -> Fault_link_heal { a; b }) small_nat small_nat;
        oneofl [ Fault_partition; Fault_heal_all ];
        map3 (fun src dst lc -> Net_send { src; dst; lc }) small_nat small_nat small_nat;
        ( small_nat >>= fun src ->
          small_nat >>= fun dst ->
          fin >>= fun sent_at ->
          small_nat >>= fun send_lc ->
          map (fun lc -> Net_deliver { src; dst; sent_at; send_lc; lc }) small_nat );
        map3
          (fun src dst reason -> Net_drop { src; dst; reason })
          small_nat small_nat
          (oneofl [ Unreachable; Endpoint_down; In_flight; Lost ]);
        ( small_nat >>= fun src ->
          small_nat >>= fun dst ->
          small_nat >>= fun id ->
          small_nat >>= fun lc ->
          map (fun parent -> Rpc_call { src; dst; id; lc; parent }) (opt small_nat) );
        ( small_nat >>= fun src ->
          small_nat >>= fun dst ->
          small_nat >>= fun id ->
          small_nat >>= fun lc ->
          map
            (fun outcome -> Rpc_done { src; dst; id; outcome; lc })
            (oneofl [ Rpc_ok; Rpc_timeout; Rpc_unreachable ]) );
        ( small_nat >>= fun span ->
          opt small_nat >>= fun parent ->
          str >>= fun name ->
          map (fun node -> Span_start { span; parent; name; node }) (opt small_nat) );
        ( small_nat >>= fun span ->
          str >>= fun name ->
          opt small_nat >>= fun node ->
          map (fun dur -> Span_end { span; name; node; dur }) fin );
        map3 (fun node op parent -> Store_op { node; op; parent }) small_nat str (opt small_nat);
        ( small_nat >>= fun node ->
          oneofl [ Cache_dir; Cache_obj ] >>= fun ckind ->
          small_nat >>= fun id ->
          small_nat >>= fun version ->
          map (fun age -> Cache_hit { node; ckind; id; version; age }) fin );
        map3
          (fun node ckind id -> Cache_miss { node; ckind; id })
          small_nat
          (oneofl [ Cache_dir; Cache_obj ])
          small_nat;
        map3 (fun node set_id version -> Cache_inval { node; set_id; version }) small_nat small_nat small_nat;
        map3
          (fun node ckind id -> Lease_expire { node; ckind; id })
          small_nat
          (oneofl [ Cache_dir; Cache_obj ])
          small_nat;
        ( small_nat >>= fun set_id ->
          phase >>= fun phase ->
          list_size (int_bound 4) elem >>= fun s ->
          map
            (fun accessible -> Spec_observe { set_id; phase; s; accessible })
            (list_size (int_bound 4) elem) );
        ( str >>= fun source ->
          str >>= fun op ->
          oneofl [ Sev_warn; Sev_crit ] >>= fun severity ->
          fin >>= fun burn ->
          fin >>= fun window ->
          map (fun detail -> Alert { source; op; severity; burn; window; detail }) str );
        ( small_nat >>= fun set_id ->
          str >>= fun where ->
          map (fun message -> Spec_violation { set_id; where; message }) str );
        map2 (fun label detail -> Custom { label; detail }) str str;
      ]
  in
  small_nat >>= fun seq ->
  fin >>= fun time ->
  map (fun kind -> { Obs.Event.seq; time; kind }) kind

let gen_event =
  QCheck.Gen.(gen_event_with (map (fun f -> if Float.is_finite f then f else 0.5) float))

let json_roundtrip_property =
  QCheck.Test.make ~count:500 ~name:"to_json |> of_json = id"
    (QCheck.make ~print:Obs.Event.to_json gen_event)
    (fun e ->
      match Obs.Event.of_json_string (Obs.Event.to_json e) with
      | Ok e' -> e = e'
      | Error m -> QCheck.Test.fail_reportf "parse error: %s" m)

(* ------------------------------------------------------------------ *)
(* Buffer writers = the Printf/Format renderings they replaced         *)
(* ------------------------------------------------------------------ *)

(* Reference copies of the Printf renderers the writers replaced.  The
   canonical rendering is the digest's input and the JSON rendering is
   in every black-box dump, so the writers must reproduce these byte
   for byte. *)
module Printf_reference = struct
  open Obs.Event

  let hexf f = Printf.sprintf "%h" f
  let node_str n = "n" ^ string_of_int n
  let opt_int_str = function None -> "-" | Some i -> string_of_int i
  let elem_string e = Printf.sprintf "%d:%s" e.elem_id e.elem_label
  let elems_string es = String.concat "," (List.map elem_string es)

  let phase_string = function
    | Phase_first -> "first"
    | Phase_invocation_start -> "invocation-start"
    | Phase_invocation_retry -> "invocation-retry"
    | Phase_returns -> "returns"
    | Phase_fails -> "fails"
    | Phase_suspends _ -> "suspends"
    | Phase_mutation (Spec_add _) -> "add"
    | Phase_mutation (Spec_remove _) -> "remove"

  let park_base = function
    | Park_yield -> "yield"
    | Park_sleep _ -> "sleep"
    | Park_suspend -> "suspend"
    | Park_done -> "done"
    | Park_crash -> "crash"

  let drop_reason_string = function
    | Unreachable -> "unreachable"
    | Endpoint_down -> "endpoint-down"
    | In_flight -> "in-flight"
    | Lost -> "lost"

  let rpc_outcome_string = function
    | Rpc_ok -> "ok"
    | Rpc_timeout -> "timeout"
    | Rpc_unreachable -> "unreachable"

  let park_string = function
    | Park_sleep wake -> "sleep until=" ^ hexf wake
    | p -> park_base p

  let detail = function
    | Fiber_spawn { fid; fiber } -> Printf.sprintf "spawn #%d %s" fid fiber
    | Run_begin { fid; fiber } -> Printf.sprintf "begin #%d %s" fid fiber
    | Run_end { fid; fiber; park } ->
        Printf.sprintf "end #%d %s %s" fid fiber (park_string park)
    | Fiber_crash { fiber; exn_text } -> fiber ^ ": " ^ exn_text
    | Sched { at } -> "at=" ^ hexf at
    | Fault_node_crash { node } -> "crash " ^ node_str node
    | Fault_node_recover { node } -> "recover " ^ node_str node
    | Fault_link_cut { a; b } -> "cut " ^ node_str a ^ "-" ^ node_str b
    | Fault_link_heal { a; b } -> "heal " ^ node_str a ^ "-" ^ node_str b
    | Fault_partition -> "partition"
    | Fault_heal_all -> "heal-all"
    | Net_send { src; dst; lc } ->
        Printf.sprintf "send %s->%s lc=%d" (node_str src) (node_str dst) lc
    | Net_deliver { src; dst; sent_at; send_lc; lc } ->
        Printf.sprintf "deliver %s->%s sent=%s slc=%d lc=%d" (node_str src)
          (node_str dst) (hexf sent_at) send_lc lc
    | Net_drop { src; dst; reason } ->
        Printf.sprintf "drop %s->%s %s" (node_str src) (node_str dst)
          (drop_reason_string reason)
    | Rpc_call { src; dst; id; lc; parent } ->
        Printf.sprintf "call#%d %s->%s lc=%d parent=%s" id (node_str src)
          (node_str dst) lc (opt_int_str parent)
    | Rpc_done { src; dst; id; outcome; lc } ->
        Printf.sprintf "done#%d %s->%s %s lc=%d" id (node_str src) (node_str dst)
          (rpc_outcome_string outcome) lc
    | Span_start { span; parent; name; node } ->
        Printf.sprintf "start#%d %s%s parent=%s" span name
          (match node with None -> "" | Some n -> " @" ^ node_str n)
          (opt_int_str parent)
    | Span_end { span; name; node; dur } ->
        Printf.sprintf "end#%d %s%s dur=%s" span name
          (match node with None -> "" | Some n -> " @" ^ node_str n)
          (hexf dur)
    | Store_op { node; op; parent } ->
        Printf.sprintf "%s @%s parent=%s" op (node_str node) (opt_int_str parent)
    | Cache_hit { node; ckind; id; version; age } ->
        Printf.sprintf "hit %s#%d @%s v=%d age=%s" (cache_kind_string ckind) id
          (node_str node) version (hexf age)
    | Cache_miss { node; ckind; id } ->
        Printf.sprintf "miss %s#%d @%s" (cache_kind_string ckind) id (node_str node)
    | Cache_inval { node; set_id; version } ->
        Printf.sprintf "inval dir#%d @%s v=%d" set_id (node_str node) version
    | Lease_expire { node; ckind; id } ->
        Printf.sprintf "expire %s#%d @%s" (cache_kind_string ckind) id (node_str node)
    | Spec_observe { set_id; phase; s; accessible } ->
        let extra =
          match phase with
          | Phase_suspends e -> " e=" ^ elem_string e
          | Phase_mutation (Spec_add e) | Phase_mutation (Spec_remove e) ->
              " e=" ^ elem_string e
          | _ -> ""
        in
        Printf.sprintf "set#%d %s%s s=[%s] acc=[%s]" set_id (phase_string phase)
          extra (elems_string s) (elems_string accessible)
    | Alert { source; op; severity; burn; window; detail } ->
        Printf.sprintf "[%s] %s/%s burn=%s window=%s %s" (severity_string severity)
          source op (hexf burn) (hexf window) detail
    | Spec_violation { set_id; where; message } ->
        Printf.sprintf "set#%d %s: %s" set_id where message
    | Custom { detail; _ } -> detail

  let to_canonical t =
    Printf.sprintf "%d|%s|%s|%s" t.seq (hexf t.time) (label t.kind)
      (detail t.kind)

  let json_escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let jfloat f = Printf.sprintf "%.17g" f
  let jstr s = "\"" ^ json_escape s ^ "\""
  let jelem e = Printf.sprintf {|{"id":%d,"label":%s}|} e.elem_id (jstr e.elem_label)
  let jelems es = "[" ^ String.concat "," (List.map jelem es) ^ "]"

  let kind_fields = function
    | Fiber_spawn { fid; fiber } ->
        Printf.sprintf {|"kind":"fiber_spawn","fid":%d,"fiber":%s|} fid (jstr fiber)
    | Run_begin { fid; fiber } ->
        Printf.sprintf {|"kind":"run_begin","fid":%d,"fiber":%s|} fid (jstr fiber)
    | Run_end { fid; fiber; park } ->
        Printf.sprintf {|"kind":"run_end","fid":%d,"fiber":%s,"park":%s%s|} fid (jstr fiber)
          (jstr (park_base park))
          (match park with
          | Park_sleep wake -> Printf.sprintf {|,"wake":%s|} (jfloat wake)
          | _ -> "")
    | Fiber_crash { fiber; exn_text } ->
        Printf.sprintf {|"kind":"fiber_crash","fiber":%s,"exn":%s|} (jstr fiber)
          (jstr exn_text)
    | Sched { at } -> Printf.sprintf {|"kind":"sched","at":%s|} (jfloat at)
    | Fault_node_crash { node } -> Printf.sprintf {|"kind":"fault_node_crash","node":%d|} node
    | Fault_node_recover { node } ->
        Printf.sprintf {|"kind":"fault_node_recover","node":%d|} node
    | Fault_link_cut { a; b } -> Printf.sprintf {|"kind":"fault_link_cut","a":%d,"b":%d|} a b
    | Fault_link_heal { a; b } -> Printf.sprintf {|"kind":"fault_link_heal","a":%d,"b":%d|} a b
    | Fault_partition -> {|"kind":"fault_partition"|}
    | Fault_heal_all -> {|"kind":"fault_heal_all"|}
    | Net_send { src; dst; lc } ->
        Printf.sprintf {|"kind":"net_send","src":%d,"dst":%d,"lc":%d|} src dst lc
    | Net_deliver { src; dst; sent_at; send_lc; lc } ->
        Printf.sprintf
          {|"kind":"net_deliver","src":%d,"dst":%d,"sent_at":%s,"send_lc":%d,"lc":%d|} src
          dst (jfloat sent_at) send_lc lc
    | Net_drop { src; dst; reason } ->
        Printf.sprintf {|"kind":"net_drop","src":%d,"dst":%d,"reason":%s|} src dst
          (jstr (drop_reason_string reason))
    | Rpc_call { src; dst; id; lc; parent } ->
        Printf.sprintf {|"kind":"rpc_call","src":%d,"dst":%d,"id":%d,"lc":%d%s|} src dst id
          lc
          (match parent with None -> "" | Some p -> Printf.sprintf {|,"parent":%d|} p)
    | Rpc_done { src; dst; id; outcome; lc } ->
        Printf.sprintf {|"kind":"rpc_done","src":%d,"dst":%d,"id":%d,"outcome":%s,"lc":%d|}
          src dst id
          (jstr (rpc_outcome_string outcome))
          lc
    | Span_start { span; parent; name; node } ->
        Printf.sprintf {|"kind":"span_start","span":%d,"name":%s%s%s|} span (jstr name)
          (match parent with None -> "" | Some p -> Printf.sprintf {|,"parent":%d|} p)
          (match node with None -> "" | Some n -> Printf.sprintf {|,"node":%d|} n)
    | Span_end { span; name; node; dur } ->
        Printf.sprintf {|"kind":"span_end","span":%d,"name":%s%s,"dur":%s|} span (jstr name)
          (match node with None -> "" | Some n -> Printf.sprintf {|,"node":%d|} n)
          (jfloat dur)
    | Store_op { node; op; parent } ->
        Printf.sprintf {|"kind":"store_op","node":%d,"op":%s%s|} node (jstr op)
          (match parent with None -> "" | Some p -> Printf.sprintf {|,"parent":%d|} p)
    | Cache_hit { node; ckind; id; version; age } ->
        Printf.sprintf
          {|"kind":"cache_hit","node":%d,"ckind":%s,"id":%d,"version":%d,"age":%s|} node
          (jstr (cache_kind_string ckind))
          id version (jfloat age)
    | Cache_miss { node; ckind; id } ->
        Printf.sprintf {|"kind":"cache_miss","node":%d,"ckind":%s,"id":%d|} node
          (jstr (cache_kind_string ckind))
          id
    | Cache_inval { node; set_id; version } ->
        Printf.sprintf {|"kind":"cache_inval","node":%d,"set_id":%d,"version":%d|} node
          set_id version
    | Lease_expire { node; ckind; id } ->
        Printf.sprintf {|"kind":"lease_expire","node":%d,"ckind":%s,"id":%d|} node
          (jstr (cache_kind_string ckind))
          id
    | Spec_observe { set_id; phase; s; accessible } ->
        let elem_field =
          match phase with
          | Phase_suspends e | Phase_mutation (Spec_add e) | Phase_mutation (Spec_remove e)
            ->
              Printf.sprintf {|,"elem":%s|} (jelem e)
          | _ -> ""
        in
        Printf.sprintf {|"kind":"spec_observe","set_id":%d,"phase":%s%s,"s":%s,"acc":%s|}
          set_id
          (jstr (phase_string phase))
          elem_field (jelems s) (jelems accessible)
    | Alert { source; op; severity; burn; window; detail } ->
        Printf.sprintf
          {|"kind":"alert","source":%s,"op":%s,"severity":%s,"burn":%s,"window":%s,"detail":%s|}
          (jstr source) (jstr op)
          (jstr (severity_string severity))
          (jfloat burn) (jfloat window) (jstr detail)
    | Spec_violation { set_id; where; message } ->
        Printf.sprintf {|"kind":"spec_violation","set_id":%d,"where":%s,"message":%s|} set_id
          (jstr where) (jstr message)
    | Custom { label; detail } ->
        Printf.sprintf {|"kind":"custom","clabel":%s,"detail":%s|} (jstr label) (jstr detail)

  let to_json t =
    Printf.sprintf {|{"seq":%d,"time":%s,"label":%s,%s}|} t.seq (jfloat t.time)
      (jstr (label t.kind))
      (kind_fields t.kind)

  let oid_to_string o =
    Format.asprintf "o%d@%a" (Oid.num o) Nodeid.pp (Oid.home o)
end

(* Any double: random bit patterns (mostly normals, but also subnormals,
   infinities and NaNs with arbitrary payloads and signs) plus the edge
   values drawn on purpose. *)
let gen_any_float =
  QCheck.Gen.(
    frequency
      [
        (4, map Int64.float_of_bits ui64);
        ( 1,
          oneofl
            [
              0.0;
              -0.0;
              Float.min_float;
              Float.min_float /. 3.0;
              4.9e-324;
              -4.9e-324;
              Float.max_float;
              -.Float.max_float;
              Float.infinity;
              Float.neg_infinity;
              Float.nan;
              Float.neg Float.nan;
              1.0;
              0.1;
              1e21;
            ] );
        (1, float);
      ])

let hexf_property =
  QCheck.Test.make ~count:5000 ~name:"hex float writer = Printf %h"
    (QCheck.make ~print:(fun f -> Printf.sprintf "%h" f) gen_any_float)
    (fun f ->
      (* A kind with no payload leaves the time as the only float. *)
      let e = { Obs.Event.seq = 0; time = f; kind = Obs.Event.Fault_partition } in
      Obs.Event.to_canonical e = "0|" ^ Printf.sprintf "%h" f ^ "|fault|partition")

let writers_match_reference e =
  let canon = Obs.Event.to_canonical e and json = Obs.Event.to_json e in
  let buf = Buffer.create 16 in
  Buffer.add_string buf "prefix";
  Obs.Event.write_json buf e;
  if canon <> Printf_reference.to_canonical e then
    QCheck.Test.fail_reportf "canonical: got %S, want %S" canon (Printf_reference.to_canonical e)
  else if json <> Printf_reference.to_json e then
    QCheck.Test.fail_reportf "json: got %S, want %S" json (Printf_reference.to_json e)
  else Buffer.contents buf = "prefix" ^ json

let writers_property =
  QCheck.Test.make ~count:2000 ~name:"canonical and JSON writers = Printf renderers"
    (QCheck.make ~print:Printf_reference.to_json (gen_event_with gen_any_float))
    writers_match_reference

let test_writers_every_constructor () =
  List.iteri
    (fun i kind ->
      let e = { Obs.Event.seq = i * 1001; time = float_of_int i *. 0.7; kind } in
      check_bool
        (Printf.sprintf "example %d (%s)" i (Obs.Event.label kind))
        true (writers_match_reference e))
    (roundtrip_examples
    @ [
        Obs.Event.Custom { label = "ctl"; detail = "\001\031\127 \"q\" \\ \r\n\t" };
        Obs.Event.Rpc_call { src = -1; dst = max_int; id = min_int; lc = 0; parent = Some (-7) };
      ])

let oid_label_property =
  QCheck.Test.make ~count:500 ~name:"Oid.to_string = Format rendering"
    QCheck.(pair int small_nat)
    (fun (num, home) ->
      let o = Oid.make ~num ~home:(Nodeid.of_int home) in
      Oid.to_string o = Printf_reference.oid_to_string o)

(* ------------------------------------------------------------------ *)
(* Canonical stream carries the causal metadata                        *)
(* ------------------------------------------------------------------ *)

let test_canonical_covers_causal_metadata () =
  (* The digest determinism tests above assert equality of canonical
     streams; this pins that those streams actually include the Lamport
     stamps and span parents, so a regression in either breaks digests. *)
  let eng = Engine.create ~seed:9L () in
  let ring = Obs.Ring.create ~capacity:100_000 in
  Obs.Bus.attach (Engine.bus eng) ~name:"ring" (Obs.Ring.sink ring);
  let topo = Topology.create () in
  let nodes = Topology.clique topo 3 ~latency:1.0 in
  let rpc = Rpc.create eng topo in
  let server = Node_server.create rpc nodes.(0) in
  Node_server.host_directory server ~set_id:1 ~policy:Node_server.Immediate;
  let client = Client.create rpc nodes.(2) in
  let oid = Oid.make ~num:1 ~home:nodes.(0) in
  Node_server.put_object server oid (Svalue.make "v");
  Engine.spawn eng ~name:"w" (fun () ->
      match Client.fetch client oid with Ok _ | Error _ -> ());
  let (_ : int) = Engine.run eng in
  let canon = List.map Obs.Event.to_canonical (Obs.Ring.to_list ring) in
  let has sub = List.exists (fun s -> contains s sub) canon in
  check_bool "net events carry lc=" true (has "lc=");
  check_bool "deliveries carry slc=" true (has "slc=");
  check_bool "spans carry parent=" true (has "parent=")

(* ------------------------------------------------------------------ *)
(* Monitor adapter: conformance checking off the recorded stream      *)
(* ------------------------------------------------------------------ *)

let test_monitor_adapter_matches_inline_monitor () =
  let open Bench_lib in
  let w = Scenarios.clique_world ~seed:7 ~size:6 () in
  let ring = Obs.Ring.create ~capacity:200_000 in
  Obs.Bus.attach (Engine.bus w.Scenarios.eng) ~name:"ring" (Obs.Ring.sink ring);
  Scenarios.set_mutator w ~add_rate:0.2 ~remove_rate:0.1 ~until:1_000.0;
  let r =
    Scenarios.run_iteration ~instrument:true ~think:2.0 ~deadline:5_000.0 w
      Weakset_core.Semantics.optimistic
  in
  match r.Scenarios.inst with
  | None -> Alcotest.fail "expected instrumentation"
  | Some inst ->
      check_int "ring kept the whole stream" 0 (Obs.Ring.dropped ring);
      let adapter =
        Weakset_spec.Monitor_adapter.replay ~set_id:1 (Obs.Ring.to_list ring)
      in
      let direct = Weakset_core.Instrument.computation inst in
      let replayed = Weakset_spec.Monitor_adapter.computation adapter in
      check_int "same number of states"
        (Weakset_spec.Computation.length direct)
        (Weakset_spec.Computation.length replayed);
      check_int "same number of invocations"
        (List.length (Weakset_spec.Computation.invocations direct))
        (List.length (Weakset_spec.Computation.invocations replayed));
      let spec = Weakset_spec.Figures.fig4 in
      check_string "same conformance verdict"
        (Harness.verdict_cell (Weakset_spec.Figures.check spec direct))
        (Harness.verdict_cell (Weakset_spec.Figures.check spec replayed))

(* ------------------------------------------------------------------ *)
(* JSONL sink                                                         *)
(* ------------------------------------------------------------------ *)

let test_jsonl_writer () =
  let path = Filename.temp_file "obs" ".jsonl" in
  let w = Obs.Jsonl.open_file path in
  Obs.Jsonl.note w "hello";
  Obs.Jsonl.write w (ev 0);
  Obs.Jsonl.close w;
  let ic = open_in path in
  let l1 = input_line ic in
  let l2 = input_line ic in
  close_in ic;
  Sys.remove path;
  check_string "note line" {|{"note":"hello"}|} l1;
  check_bool "event line is json-ish" true
    (String.length l2 > 2 && l2.[0] = '{' && String.sub l2 1 6 = {|"seq":|})

let () =
  Alcotest.run "weakset_obs"
    [
      ( "digest",
        [
          Alcotest.test_case "same seed, identical digest" `Quick test_same_seed_same_digest;
          Alcotest.test_case "different seed, different digest" `Quick
            test_different_seed_different_digest;
        ] );
      ( "ring",
        [
          Alcotest.test_case "below capacity" `Quick test_ring_below_capacity;
          Alcotest.test_case "drops oldest in order" `Quick test_ring_drops_oldest_in_order;
          Alcotest.test_case "as a bus sink" `Quick test_ring_as_bus_sink;
          Alcotest.test_case "overwrite at capacity keeps order" `Quick
            test_ring_overwrite_at_capacity;
          Alcotest.test_case "rejects bad capacity" `Quick test_ring_rejects_nonpositive_capacity;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and peek" `Quick test_metrics_counters_and_peek;
          Alcotest.test_case "histogram percentiles" `Quick test_metrics_histogram_percentiles;
          Alcotest.test_case "netstat snapshot" `Quick test_netstat_snapshot_from_registry;
          Alcotest.test_case "empty histogram exports cleanly" `Quick
            test_metrics_empty_histogram_export;
        ] );
      ( "json-roundtrip",
        [
          Alcotest.test_case "every kind constructor" `Quick test_json_roundtrip_examples;
          QCheck_alcotest.to_alcotest json_roundtrip_property;
          Alcotest.test_case "canonical covers causal metadata" `Quick
            test_canonical_covers_causal_metadata;
        ] );
      ( "writers",
        [
          QCheck_alcotest.to_alcotest hexf_property;
          QCheck_alcotest.to_alcotest writers_property;
          Alcotest.test_case "every kind constructor" `Quick test_writers_every_constructor;
          QCheck_alcotest.to_alcotest oid_label_property;
        ] );
      ( "rpc-failure-detection",
        [
          Alcotest.test_case "crash mid-call detected" `Quick test_rpc_detects_crash_mid_call;
          Alcotest.test_case "link cut still times out" `Quick test_rpc_link_cut_still_times_out;
        ] );
      ( "stats",
        [
          Alcotest.test_case "empty min/max raise" `Quick test_stats_empty_min_max_raise;
          Alcotest.test_case "linear percentiles" `Quick test_stats_percentile_linear;
          Alcotest.test_case "percentile edge cases" `Quick test_stats_percentile_edges;
        ] );
      ( "monitor-adapter",
        [
          Alcotest.test_case "replay matches inline monitor" `Quick
            test_monitor_adapter_matches_inline_monitor;
        ] );
      ( "jsonl",
        [ Alcotest.test_case "writer" `Quick test_jsonl_writer ] );
    ]
