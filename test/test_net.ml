(* Tests for weakset_net: topology reachability and routing under faults,
   transport delivery/drop semantics, RPC success/timeout/unreachable paths,
   and fault-injection processes. *)

open Weakset_sim
open Weakset_net

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Topology                                                           *)
(* ------------------------------------------------------------------ *)

let line3 () =
  let topo = Topology.create () in
  let ids = Topology.line topo 3 ~latency:1.0 in
  (topo, ids.(0), ids.(1), ids.(2))

let test_topology_nodes_and_links () =
  let topo, a, b, c = line3 () in
  check_int "three nodes" 3 (Topology.node_count topo);
  check_bool "a-b link" true (Topology.link_up topo a b);
  check_bool "b-a link (undirected)" true (Topology.link_up topo b a);
  check_bool "no a-c link" false (Topology.link_up topo a c)

let test_topology_self_link_rejected () =
  let topo = Topology.create () in
  let a = Topology.add_node topo in
  Alcotest.check_raises "self link" (Invalid_argument "Topology.add_link: self-link")
    (fun () -> Topology.add_link topo a a ~latency:1.0)

let test_topology_reachable_chain () =
  let topo, a, _, c = line3 () in
  check_bool "end to end" true (Topology.reachable topo a c);
  check_bool "self" true (Topology.reachable topo a a)

let test_topology_reachable_breaks_on_link_cut () =
  let topo, a, b, c = line3 () in
  Topology.set_link_up topo b c false;
  check_bool "a-b still" true (Topology.reachable topo a b);
  check_bool "a-c broken" false (Topology.reachable topo a c);
  Topology.set_link_up topo b c true;
  check_bool "healed" true (Topology.reachable topo a c)

let test_topology_reachable_breaks_on_node_down () =
  let topo, a, b, c = line3 () in
  Topology.set_node_up topo b false;
  check_bool "middle down blocks path" false (Topology.reachable topo a c);
  check_bool "down node unreachable from itself" false (Topology.reachable topo b b)

let test_topology_path_latency () =
  let topo = Topology.create () in
  let a = Topology.add_node topo in
  let b = Topology.add_node topo in
  let c = Topology.add_node topo in
  Topology.add_link topo a b ~latency:1.0;
  Topology.add_link topo b c ~latency:2.0;
  Topology.add_link topo a c ~latency:10.0;
  (match Topology.path_latency topo a c with
  | Some l -> check_float "cheapest path a-b-c" 3.0 l
  | None -> Alcotest.fail "unreachable");
  Topology.set_link_up topo a b false;
  (match Topology.path_latency topo a c with
  | Some l -> check_float "direct path when shortcut cut" 10.0 l
  | None -> Alcotest.fail "unreachable");
  check_float "self latency" 0.0 (Option.get (Topology.path_latency topo a a))

let test_topology_partition_groups () =
  let topo = Topology.create () in
  let ids = Topology.clique topo 4 ~latency:1.0 in
  Topology.partition topo [ [ ids.(0); ids.(1) ]; [ ids.(2); ids.(3) ] ];
  check_bool "inside group 1" true (Topology.reachable topo ids.(0) ids.(1));
  check_bool "inside group 2" true (Topology.reachable topo ids.(2) ids.(3));
  check_bool "across groups" false (Topology.reachable topo ids.(0) ids.(2));
  Topology.heal_all topo;
  check_bool "healed" true (Topology.reachable topo ids.(0) ids.(3))

let test_topology_partition_implicit_group () =
  let topo = Topology.create () in
  let ids = Topology.clique topo 4 ~latency:1.0 in
  (* Only one explicit group: everyone else forms the leftover group. *)
  Topology.partition topo [ [ ids.(0) ] ];
  check_bool "isolated" false (Topology.reachable topo ids.(0) ids.(1));
  check_bool "leftover group intact" true (Topology.reachable topo ids.(1) ids.(3))

let test_topology_partition_restores_internal_links () =
  let topo = Topology.create () in
  let ids = Topology.clique topo 3 ~latency:1.0 in
  Topology.set_link_up topo ids.(0) ids.(1) false;
  Topology.partition topo [ [ ids.(0); ids.(1) ]; [ ids.(2) ] ];
  check_bool "internal link restored by partition" true (Topology.link_up topo ids.(0) ids.(1))

let test_topology_on_change () =
  let topo = Topology.create () in
  let count = ref 0 in
  Topology.on_change topo (fun () -> incr count);
  let a = Topology.add_node topo in
  let b = Topology.add_node topo in
  Topology.add_link topo a b ~latency:1.0;
  Topology.set_link_up topo a b false;
  Topology.set_node_up topo a false;
  Topology.heal_all topo;
  check_int "five notifications" 4 !count |> ignore;
  (* add_link + set_link_up + set_node_up + heal_all = 4 *)
  ()

let test_topology_builders () =
  let topo = Topology.create () in
  let hub, leaves = Topology.star topo 5 ~latency:2.0 in
  check_int "star size" 6 (Topology.node_count topo);
  Array.iter (fun leaf -> check_bool "hub-leaf" true (Topology.reachable topo hub leaf)) leaves;
  check_bool "leaf-leaf via hub" true (Topology.reachable topo leaves.(0) leaves.(4))

let test_topology_wan_connected () =
  let rng = Rng.create 2024L in
  let topo = Topology.create () in
  let ids = Topology.wan topo ~rng ~nodes:20 ~extra_links:10 in
  check_int "twenty nodes" 20 (Array.length ids);
  Array.iter
    (fun n -> check_bool "spanning tree connects all" true (Topology.reachable topo ids.(0) n))
    ids;
  (* Latencies scale with coordinate distance. *)
  let d = Topology.distance topo ids.(0) ids.(1) in
  check_bool "distance positive" true (d > 0.0)

(* ------------------------------------------------------------------ *)
(* Transport                                                          *)
(* ------------------------------------------------------------------ *)

let test_transport_delivery_latency () =
  let eng = Engine.create () in
  let topo = Topology.create () in
  let a = Topology.add_node topo in
  let b = Topology.add_node topo in
  Topology.add_link topo a b ~latency:3.0;
  let tr = Transport.create eng topo in
  let arrived = ref None in
  Engine.spawn eng (fun () ->
      let env = Mailbox.recv eng (Transport.mailbox tr b) in
      arrived := Some (env.Transport.payload, Engine.now eng));
  Engine.spawn eng (fun () -> Transport.send tr ~src:a ~dst:b "hello");
  Engine.run_and_check eng;
  (match !arrived with
  | Some (msg, at) ->
      Alcotest.(check string) "payload" "hello" msg;
      check_float "arrives after link latency" 3.0 at
  | None -> Alcotest.fail "not delivered");
  check_int "delivered count" 1 (Transport.stats tr).Netstat.delivered

let test_transport_multi_hop_latency () =
  let eng = Engine.create () in
  let topo, a, _, c = line3 () in
  let tr = Transport.create eng topo in
  let at = ref 0.0 in
  Engine.spawn eng (fun () ->
      let (_ : string Transport.envelope) = Mailbox.recv eng (Transport.mailbox tr c) in
      at := Engine.now eng);
  Transport.send tr ~src:a ~dst:c "m";
  Engine.run_and_check eng;
  check_float "two hops of 1.0" 2.0 !at

let test_transport_drop_unreachable () =
  let eng = Engine.create () in
  let topo, a, b, c = line3 () in
  Topology.set_link_up topo b c false;
  let tr = Transport.create eng topo in
  Transport.send tr ~src:a ~dst:c "lost";
  Engine.run_and_check eng;
  let st = Transport.stats tr in
  check_int "dropped" 1 st.Netstat.dropped_unreachable;
  check_int "not delivered" 0 st.Netstat.delivered

let test_transport_drop_down_node () =
  let eng = Engine.create () in
  let topo, a, _, c = line3 () in
  Topology.set_node_up topo c false;
  let tr = Transport.create eng topo in
  Transport.send tr ~src:a ~dst:c "lost";
  Engine.run_and_check eng;
  check_int "dropped down" 1 (Transport.stats tr).Netstat.dropped_down

let test_transport_drop_in_flight () =
  (* The partition happens after send but before delivery. *)
  let eng = Engine.create () in
  let topo, a, b, c = line3 () in
  let tr = Transport.create eng topo in
  Transport.send tr ~src:a ~dst:c "doomed";
  Engine.schedule eng ~after:1.0 (fun () -> Topology.set_link_up topo b c false);
  Engine.run_and_check eng;
  let st = Transport.stats tr in
  check_int "dropped in flight" 1 st.Netstat.dropped_in_flight;
  check_int "not delivered" 0 st.Netstat.delivered

let test_transport_lossy_link_drops_all () =
  let eng = Engine.create () in
  let topo = Topology.create () in
  let a = Topology.add_node topo in
  let b = Topology.add_node topo in
  Topology.add_link ~loss:1.0 topo a b ~latency:1.0;
  let tr = Transport.create eng topo in
  for _ = 1 to 10 do
    Transport.send tr ~src:a ~dst:b "x"
  done;
  Engine.run_and_check eng;
  let st = Transport.stats tr in
  check_int "all lost" 10 st.Netstat.dropped_lost;
  check_int "none delivered" 0 st.Netstat.delivered

let test_transport_lossy_link_statistics () =
  let eng = Engine.create ~seed:5L () in
  let topo = Topology.create () in
  let a = Topology.add_node topo in
  let b = Topology.add_node topo in
  Topology.add_link ~loss:0.3 topo a b ~latency:1.0;
  let tr = Transport.create eng topo in
  let n = 2000 in
  for _ = 1 to n do
    Transport.send tr ~src:a ~dst:b "x"
  done;
  Engine.run_and_check eng;
  let st = Transport.stats tr in
  check_int "accounted" n (st.Netstat.delivered + st.Netstat.dropped_lost);
  let rate = float_of_int st.Netstat.dropped_lost /. float_of_int n in
  check_bool (Printf.sprintf "loss rate ~0.3 (got %.3f)" rate) true (rate > 0.25 && rate < 0.35)

let test_path_survival_multi_hop () =
  let topo = Topology.create () in
  let a = Topology.add_node topo in
  let b = Topology.add_node topo in
  let c = Topology.add_node topo in
  Topology.add_link ~loss:0.1 topo a b ~latency:1.0;
  Topology.add_link ~loss:0.2 topo b c ~latency:1.0;
  (match Topology.path_info topo a c with
  | Some (lat, surv) ->
      check_float "latency 2" 2.0 lat;
      check_bool "survival = 0.9*0.8" true (abs_float (surv -. 0.72) < 1e-9)
  | None -> Alcotest.fail "unreachable");
  check_float "single-hop survival" 0.9 (snd (Option.get (Topology.path_info topo a b)));
  check_float "link_loss accessor" 0.1 (Topology.link_loss topo a b)

let test_rpc_over_lossy_link_times_out_sometimes () =
  let eng = Engine.create ~seed:7L () in
  let topo = Topology.create () in
  let a = Topology.add_node topo in
  let b = Topology.add_node topo in
  Topology.add_link ~loss:0.5 topo a b ~latency:1.0;
  let rpc = Rpc.create eng topo in
  Rpc.serve rpc b (fun r -> r);
  let ok = ref 0 and timeouts = ref 0 in
  Engine.spawn eng (fun () ->
      for _ = 1 to 40 do
        match Rpc.call rpc ~src:a ~dst:b ~timeout:5.0 "q" with
        | Ok _ -> incr ok
        | Error Rpc.Timeout -> incr timeouts
        | Error Rpc.Unreachable -> ()
      done);
  Engine.run_and_check eng;
  check_int "all accounted" 40 (!ok + !timeouts);
  check_bool "some succeed" true (!ok > 0);
  check_bool "some time out" true (!timeouts > 0)

(* ------------------------------------------------------------------ *)
(* Rpc                                                                *)
(* ------------------------------------------------------------------ *)

let echo_setup ?(latency = 1.0) () =
  let eng = Engine.create () in
  let topo = Topology.create () in
  let client = Topology.add_node topo in
  let server = Topology.add_node topo in
  Topology.add_link topo client server ~latency;
  let rpc = Rpc.create eng topo in
  Rpc.serve rpc server (fun req -> "echo:" ^ req);
  (eng, topo, rpc, client, server)

let test_rpc_roundtrip () =
  let eng, _, rpc, client, server = echo_setup () in
  let result = ref (Error Rpc.Timeout) in
  let finished_at = ref 0.0 in
  Engine.spawn eng (fun () ->
      result := Rpc.call rpc ~src:client ~dst:server ~timeout:10.0 "hi";
      finished_at := Engine.now eng);
  Engine.run_and_check eng;
  (match !result with
  | Ok r -> Alcotest.(check string) "response" "echo:hi" r
  | Error e -> Alcotest.failf "rpc failed: %s" (Rpc.error_to_string e));
  check_float "round trip = 2 x latency" 2.0 !finished_at

let test_rpc_answered_waits_leave_the_heap () =
  (* Every answered wait cancels its timer: the demux's long receive
     timeout and the caller's reply timeout.  So the engine's pending
     events stay bounded by the fibers in flight, however many calls go
     by, instead of growing by one per frame. *)
  let eng, _, rpc, client, server = echo_setup () in
  let calls = 10_000 in
  let ok = ref 0 and peak = ref 0 in
  Engine.spawn eng (fun () ->
      for _ = 1 to calls do
        (match Rpc.call rpc ~src:client ~dst:server ~timeout:10.0 "hi" with
        | Ok _ -> incr ok
        | Error _ -> ());
        peak := max !peak (Engine.pending eng)
      done);
  Engine.run_and_check eng;
  check_int "all answered" calls !ok;
  Alcotest.(check bool) (Printf.sprintf "pending stays small (peak %d)" !peak) true (!peak <= 4)

let test_rpc_service_time () =
  let eng = Engine.create () in
  let topo = Topology.create () in
  let client = Topology.add_node topo in
  let server = Topology.add_node topo in
  Topology.add_link topo client server ~latency:1.0;
  let rpc = Rpc.create eng topo in
  Rpc.serve rpc server ~service_time:(fun _ -> 5.0) (fun req -> req);
  let finished_at = ref 0.0 in
  Engine.spawn eng (fun () ->
      let (_ : (string, Rpc.error) result) =
        Rpc.call rpc ~src:client ~dst:server ~timeout:20.0 "x"
      in
      finished_at := Engine.now eng);
  Engine.run_and_check eng;
  check_float "2 hops + 5 service" 7.0 !finished_at

let test_rpc_unreachable_detected () =
  let eng, topo, rpc, client, server = echo_setup () in
  Topology.set_link_up topo client server false;
  let result = ref (Ok "") in
  let finished_at = ref 0.0 in
  Engine.spawn eng (fun () ->
      result := Rpc.call rpc ~src:client ~dst:server ~timeout:10.0 "hi";
      finished_at := Engine.now eng);
  Engine.run_and_check eng;
  (match !result with
  | Error Rpc.Unreachable -> ()
  | Ok _ | Error Rpc.Timeout -> Alcotest.fail "expected Unreachable");
  check_bool "fast detection, not full timeout" true (!finished_at < 1.0);
  check_int "counted" 1 (Rpc.stats rpc).Netstat.rpc_unreachable

let test_rpc_timeout_on_in_flight_loss () =
  (* Reachable at call time, but the link dies before the response returns:
     the caller must observe a Timeout. *)
  let eng, topo, rpc, client, server = echo_setup ~latency:2.0 () in
  let result = ref (Ok "") in
  let finished_at = ref 0.0 in
  Engine.spawn eng (fun () ->
      result := Rpc.call rpc ~src:client ~dst:server ~timeout:10.0 "hi";
      finished_at := Engine.now eng);
  Engine.schedule eng ~after:1.0 (fun () -> Topology.set_link_up topo client server false);
  Engine.run_and_check eng;
  (match !result with
  | Error Rpc.Timeout -> ()
  | Ok _ | Error Rpc.Unreachable -> Alcotest.fail "expected Timeout");
  check_float "waited out the timeout" 10.0 !finished_at

let test_rpc_late_response_ignored () =
  (* Server is slower than the caller's timeout; the late response must not
     crash or fill anything. A second call must still work. *)
  let eng = Engine.create () in
  let topo = Topology.create () in
  let client = Topology.add_node topo in
  let server = Topology.add_node topo in
  Topology.add_link topo client server ~latency:1.0;
  let rpc = Rpc.create eng topo in
  let slow = ref true in
  Rpc.serve rpc server ~service_time:(fun _ -> if !slow then 50.0 else 0.0) (fun r -> r);
  let first = ref (Ok "") and second = ref (Error Rpc.Timeout) in
  Engine.spawn eng (fun () ->
      first := Rpc.call rpc ~src:client ~dst:server ~timeout:5.0 "one";
      slow := false;
      second := Rpc.call rpc ~src:client ~dst:server ~timeout:5.0 "two");
  Engine.run_and_check eng;
  (match !first with
  | Error Rpc.Timeout -> ()
  | _ -> Alcotest.fail "first should time out");
  (match !second with
  | Ok "two" -> ()
  | _ -> Alcotest.fail "second should succeed")

let test_rpc_concurrent_calls () =
  let eng = Engine.create () in
  let topo = Topology.create () in
  let hub, leaves = Topology.star topo 4 ~latency:1.0 in
  let rpc = Rpc.create eng topo in
  Array.iteri (fun i leaf -> Rpc.serve rpc leaf (fun req -> Printf.sprintf "%d:%s" i req)) leaves;
  let results = Array.make 4 "" in
  Engine.spawn eng (fun () -> ());
  Array.iteri
    (fun i leaf ->
      Engine.spawn eng (fun () ->
          match Rpc.call rpc ~src:hub ~dst:leaf ~timeout:10.0 "q" with
          | Ok r -> results.(i) <- r
          | Error _ -> ()))
    leaves;
  Engine.run_and_check eng;
  Alcotest.(check (array string)) "all answered" [| "0:q"; "1:q"; "2:q"; "3:q" |] results

let test_rpc_handler_can_block () =
  (* Handlers run in fibers, so a nested RPC from inside a handler works. *)
  let eng = Engine.create () in
  let topo = Topology.create () in
  let ids = Topology.clique topo 3 ~latency:1.0 in
  let front = ids.(0) and mid = ids.(1) and back = ids.(2) in
  let rpc : (string, string) Rpc.t = Rpc.create eng topo in
  Rpc.serve rpc back (fun req -> "back(" ^ req ^ ")");
  Rpc.serve rpc mid (fun req ->
      match Rpc.call rpc ~src:mid ~dst:back ~timeout:10.0 req with
      | Ok r -> "mid(" ^ r ^ ")"
      | Error _ -> "mid(fail)");
  let result = ref "" in
  Engine.spawn eng (fun () ->
      match Rpc.call rpc ~src:front ~dst:mid ~timeout:20.0 "x" with
      | Ok r -> result := r
      | Error _ -> result := "fail");
  Engine.run_and_check eng;
  Alcotest.(check string) "nested rpc" "mid(back(x))" !result

(* ------------------------------------------------------------------ *)
(* Fault                                                              *)
(* ------------------------------------------------------------------ *)

let test_fault_signal_on_change () =
  let eng = Engine.create () in
  let topo, a, b, _ = line3 () in
  let fault = Fault.create eng topo in
  let woken = ref false in
  Engine.spawn eng (fun () ->
      Signal.wait eng (Fault.signal fault);
      woken := true);
  Engine.spawn eng (fun () ->
      Engine.sleep eng 1.0;
      Fault.cut_link fault a b);
  Engine.run_and_check eng;
  check_bool "waiter woken by fault" true !woken

let test_fault_schedule_partition_and_heal () =
  let eng = Engine.create () in
  let topo = Topology.create () in
  let ids = Topology.clique topo 4 ~latency:1.0 in
  let fault = Fault.create eng topo in
  Fault.schedule_partition fault ~at:5.0 ~heal_at:10.0 [ [ ids.(0); ids.(1) ]; [ ids.(2); ids.(3) ] ];
  let during = ref true and after = ref false in
  Engine.schedule eng ~after:7.0 (fun () -> during := Topology.reachable topo ids.(0) ids.(2));
  Engine.schedule eng ~after:12.0 (fun () -> after := Topology.reachable topo ids.(0) ids.(2));
  Engine.run_and_check eng;
  check_bool "partitioned during" false !during;
  check_bool "healed after" true !after

let test_fault_schedule_partition_rejects_bad_window () =
  let eng = Engine.create () in
  let topo = Topology.create () in
  let ids = Topology.clique topo 4 ~latency:1.0 in
  let fault = Fault.create eng topo in
  let groups = [ [ ids.(0); ids.(1) ]; [ ids.(2); ids.(3) ] ] in
  Alcotest.check_raises "heal before start"
    (Invalid_argument "Fault.schedule_partition: heal_at (3) must be after at (5)")
    (fun () -> Fault.schedule_partition fault ~at:5.0 ~heal_at:3.0 groups);
  Alcotest.check_raises "zero-length window"
    (Invalid_argument "Fault.schedule_partition: heal_at (5) must be after at (5)")
    (fun () -> Fault.schedule_partition fault ~at:5.0 ~heal_at:5.0 groups);
  (* Nothing was scheduled by the rejected calls. *)
  Engine.run_and_check eng;
  check_bool "still connected" true (Topology.reachable topo ids.(0) ids.(2))

let test_fault_stop_node_window () =
  let eng = Engine.create () in
  let topo = Topology.create () in
  let ids = Topology.clique topo 3 ~latency:1.0 in
  let fault = Fault.create eng topo in
  Fault.stop_node fault ~at:5.0 ~recover_at:10.0 ids.(1);
  let before = ref false and during = ref true and after = ref false in
  Engine.schedule eng ~after:2.0 (fun () -> before := Topology.node_up topo ids.(1));
  Engine.schedule eng ~after:7.0 (fun () -> during := Topology.node_up topo ids.(1));
  Engine.schedule eng ~after:12.0 (fun () -> after := Topology.node_up topo ids.(1));
  Engine.run_and_check eng;
  check_bool "up before the window" true !before;
  check_bool "down inside the window" false !during;
  check_bool "recovered after the window" true !after

let test_fault_stop_node_rejects_bad_window () =
  let eng = Engine.create () in
  let topo = Topology.create () in
  let ids = Topology.clique topo 3 ~latency:1.0 in
  let fault = Fault.create eng topo in
  Alcotest.check_raises "recover before stop"
    (Invalid_argument "Fault.stop_node: recover_at (3) must be after at (5)")
    (fun () -> Fault.stop_node fault ~at:5.0 ~recover_at:3.0 ids.(0));
  Alcotest.check_raises "zero-length window"
    (Invalid_argument "Fault.stop_node: recover_at (5) must be after at (5)")
    (fun () -> Fault.stop_node fault ~at:5.0 ~recover_at:5.0 ids.(0));
  Engine.run_and_check eng;
  check_bool "nothing scheduled by rejected calls" true (Topology.node_up topo ids.(0))

let test_fault_heal_node () =
  let eng = Engine.create () in
  let topo = Topology.create () in
  let ids = Topology.clique topo 3 ~latency:1.0 in
  let fault = Fault.create eng topo in
  (* A crash with no recovery of its own, ended early by heal_node. *)
  Fault.schedule_crash fault ~at:2.0 ids.(2);
  Fault.heal_node fault ~at:6.0 ids.(2);
  let during = ref true and after = ref false in
  Engine.schedule eng ~after:4.0 (fun () -> during := Topology.node_up topo ids.(2));
  Engine.schedule eng ~after:8.0 (fun () -> after := Topology.node_up topo ids.(2));
  Engine.run_and_check eng;
  check_bool "down before heal" false !during;
  check_bool "up after heal" true !after

let test_fault_isolate_node_window () =
  let eng = Engine.create () in
  let topo = Topology.create () in
  let ids = Topology.clique topo 4 ~latency:1.0 in
  let fault = Fault.create eng topo in
  Fault.isolate_node fault ~at:5.0 ~heal_at:10.0 ids.(0);
  let cut = ref true and rest_ok = ref false and healed = ref false in
  Engine.schedule eng ~after:7.0 (fun () ->
      cut := Topology.reachable topo ids.(0) ids.(1);
      (* The isolated node is alone; everyone else still talks. *)
      rest_ok := Topology.reachable topo ids.(1) ids.(3));
  Engine.schedule eng ~after:12.0 (fun () -> healed := Topology.reachable topo ids.(0) ids.(1));
  Engine.run_and_check eng;
  check_bool "isolated node cut off" false !cut;
  check_bool "rest of the clique intact" true !rest_ok;
  check_bool "healed after the window" true !healed

let test_fault_isolate_node_rejects_bad_window () =
  let eng = Engine.create () in
  let topo = Topology.create () in
  let ids = Topology.clique topo 4 ~latency:1.0 in
  let fault = Fault.create eng topo in
  Alcotest.check_raises "heal before isolate"
    (Invalid_argument "Fault.isolate_node: heal_at (3) must be after at (5)")
    (fun () -> Fault.isolate_node fault ~at:5.0 ~heal_at:3.0 ids.(0));
  Engine.run_and_check eng;
  check_bool "still connected" true (Topology.reachable topo ids.(0) ids.(1))

(* Overlapping windows must not heal each other: isolate ids.(1) over
   [5,20] and ids.(2) over [10,30].  When the first window ends at 20 the
   second is still open, so ids.(2) has to stay cut off until 30 — the
   old heal-everything repair would have reconnected it at 20. *)
let test_fault_overlapping_isolations () =
  let eng = Engine.create () in
  let topo = Topology.create () in
  let ids = Topology.clique topo 4 ~latency:1.0 in
  let fault = Fault.create eng topo in
  Fault.isolate_node fault ~at:5.0 ~heal_at:20.0 ids.(1);
  Fault.isolate_node fault ~at:10.0 ~heal_at:30.0 ids.(2);
  let first_healed = ref false and second_still_cut = ref true and all_healed = ref false in
  Engine.schedule eng ~after:25.0 (fun () ->
      first_healed := Topology.reachable topo ids.(0) ids.(1);
      second_still_cut := not (Topology.reachable topo ids.(0) ids.(2)));
  Engine.schedule eng ~after:35.0 (fun () ->
      all_healed :=
        Topology.reachable topo ids.(0) ids.(1) && Topology.reachable topo ids.(0) ids.(2));
  Engine.run_and_check eng;
  check_bool "first isolation healed at its own heal_at" true !first_healed;
  check_bool "second isolation survives the first heal" true !second_still_cut;
  check_bool "everything healed after the later window" true !all_healed

(* The overlap also holds for a link both windows cut: isolating ids.(1)
   and then ids.(2) both cut link 1-2; it may only come back once the
   last hold is released. *)
let test_fault_shared_link_heals_on_last_release () =
  let eng = Engine.create () in
  let topo = Topology.create () in
  let ids = Topology.clique topo 3 ~latency:1.0 in
  let fault = Fault.create eng topo in
  Fault.isolate_node fault ~at:5.0 ~heal_at:20.0 ids.(1);
  Fault.isolate_node fault ~at:10.0 ~heal_at:30.0 ids.(2);
  let between = ref true and after = ref false in
  Engine.schedule eng ~after:25.0 (fun () -> between := Topology.link_up topo ids.(1) ids.(2));
  Engine.schedule eng ~after:35.0 (fun () -> after := Topology.link_up topo ids.(1) ids.(2));
  Engine.run_and_check eng;
  check_bool "shared link still held by the later window" false !between;
  check_bool "shared link up after the last release" true !after

(* A partition repair is about links; it must not resurrect a node some
   other fault crashed (heal_all used to revive everything). *)
let test_fault_partition_heal_leaves_crashed_node_down () =
  let eng = Engine.create () in
  let topo = Topology.create () in
  let ids = Topology.clique topo 4 ~latency:1.0 in
  let fault = Fault.create eng topo in
  Fault.stop_node fault ~at:2.0 ~recover_at:40.0 ids.(3);
  Fault.schedule_partition fault ~at:5.0 ~heal_at:10.0 [ [ ids.(0) ]; [ ids.(1); ids.(2) ] ];
  let crashed_through_heal = ref true and links_healed = ref false in
  Engine.schedule eng ~after:12.0 (fun () ->
      crashed_through_heal := not (Topology.node_up topo ids.(3));
      links_healed := Topology.reachable topo ids.(0) ids.(1));
  Engine.run_and_check eng;
  check_bool "partition links healed" true !links_healed;
  check_bool "crashed node stays down through the partition heal" true !crashed_through_heal

let test_fault_random_partition_process () =
  let eng = Engine.create ~seed:7L () in
  let topo = Topology.create () in
  let ids = Topology.clique topo 4 ~latency:1.0 in
  let fault = Fault.create eng topo in
  let rng = Rng.split (Engine.rng eng) in
  Fault.random_partition_process fault ~rng ~mttf:5.0 ~mttr:5.0 ~until:100.0;
  let all_reachable () =
    List.for_all
      (fun a -> List.for_all (fun b -> Topology.reachable topo a b) (Array.to_list ids))
      (Array.to_list ids)
  in
  let splits = ref 0 in
  for i = 1 to 99 do
    Engine.schedule eng ~after:(float_of_int i) (fun () ->
        if not (all_reachable ()) then incr splits)
  done;
  let (_ : int) = Engine.run ~until:200.0 eng in
  check_bool "partitioned sometimes" true (!splits > 0);
  check_bool "healed at the end" true (all_reachable ())

let test_fault_crash_restart_process () =
  let eng = Engine.create () in
  let topo = Topology.create () in
  let ids = Topology.clique topo 2 ~latency:1.0 in
  let fault = Fault.create eng topo in
  let rng = Rng.split (Engine.rng eng) in
  Fault.crash_restart_process fault ~rng ~mttf:5.0 ~mttr:2.0 ~until:200.0 ids.(1);
  (* Sample the node's state over time: it must be down at least once and
     must end up. *)
  let downs = ref 0 in
  for i = 1 to 199 do
    Engine.schedule eng ~after:(float_of_int i) (fun () ->
        if not (Topology.node_up topo ids.(1)) then incr downs)
  done;
  let (_ : int) = Engine.run ~until:300.0 eng in
  check_bool "node went down sometimes" true (!downs > 0);
  check_bool "node mostly recovers" true (!downs < 150);
  check_bool "up at the end" true (Topology.node_up topo ids.(1))

let test_fault_flaky_link_process () =
  let eng = Engine.create () in
  let topo = Topology.create () in
  let ids = Topology.clique topo 2 ~latency:1.0 in
  let fault = Fault.create eng topo in
  let rng = Rng.split (Engine.rng eng) in
  Fault.flaky_link_process fault ~rng ~mttf:5.0 ~mttr:5.0 ~until:100.0 ids.(0) ids.(1);
  let downs = ref 0 in
  for i = 1 to 99 do
    Engine.schedule eng ~after:(float_of_int i) (fun () ->
        if not (Topology.link_up topo ids.(0) ids.(1)) then incr downs)
  done;
  let (_ : int) = Engine.run ~until:200.0 eng in
  check_bool "link flapped" true (!downs > 0);
  check_bool "link up at end" true (Topology.link_up topo ids.(0) ids.(1))

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

let prop_reachability_symmetric =
  QCheck.Test.make ~name:"reachability is symmetric" ~count:60
    QCheck.(pair small_nat (small_nat))
    (fun (seed, cuts) ->
      let rng = Rng.create (Int64.of_int (seed + 1)) in
      let topo = Topology.create () in
      let ids = Topology.wan topo ~rng ~nodes:12 ~extra_links:6 in
      (* Cut some random links / crash some random nodes. *)
      for _ = 0 to cuts mod 8 do
        let i = Rng.int rng 12 and j = Rng.int rng 12 in
        if i <> j && Topology.link_up topo ids.(i) ids.(j) then
          Topology.set_link_up topo ids.(i) ids.(j) false;
        if Rng.chance rng 0.2 then Topology.set_node_up topo ids.(Rng.int rng 12) false
      done;
      List.for_all
        (fun a ->
          List.for_all
            (fun b -> Topology.reachable topo a b = Topology.reachable topo b a)
            (Topology.nodes topo))
        (Topology.nodes topo))

let prop_path_latency_implies_reachable =
  QCheck.Test.make ~name:"path_latency is Some iff reachable" ~count:60 QCheck.small_nat
    (fun seed ->
      let rng = Rng.create (Int64.of_int (seed + 77)) in
      let topo = Topology.create () in
      let ids = Topology.wan topo ~rng ~nodes:10 ~extra_links:4 in
      for _ = 0 to 5 do
        if Rng.chance rng 0.4 then Topology.set_node_up topo ids.(Rng.int rng 10) false
      done;
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              let r = Topology.reachable topo a b in
              let l = Topology.path_latency topo a b in
              r = Option.is_some l)
            (Topology.nodes topo))
        (Topology.nodes topo))

(* ------------------------------------------------------------------ *)
(* Route cache equivalence                                            *)
(* ------------------------------------------------------------------ *)

(* A mirror of the graph kept by the test, and the uncached routing that
   Topology used before it cached per-source route tables: a BFS for
   reachability, and a selection Dijkstra that rescans every link per
   settled node and stops at the destination.  The cached answers must
   equal these exactly, latency and survival bits included. *)
module Reference = struct
  type link = { lat : float; loss : float; mutable lup : bool }
  type t = { mutable up : bool array; links : (int * int, link) Hashtbl.t }

  let key a b = if a < b then (a, b) else (b, a)
  let count m = Array.length m.up

  let neighbours m i =
    Hashtbl.fold
      (fun (a, b) l acc ->
        if not l.lup then acc
        else if a = i && m.up.(b) then (b, l.lat, l.loss) :: acc
        else if b = i && m.up.(a) then (a, l.lat, l.loss) :: acc
        else acc)
      m.links []

  let reachable m a b =
    if not (m.up.(a) && m.up.(b)) then false
    else if a = b then true
    else begin
      let visited = Array.make (count m) false in
      let q = Queue.create () in
      visited.(a) <- true;
      Queue.push a q;
      let found = ref false in
      while (not !found) && not (Queue.is_empty q) do
        List.iter
          (fun (j, _, _) ->
            if j = b then found := true
            else if not visited.(j) then begin
              visited.(j) <- true;
              Queue.push j q
            end)
          (neighbours m (Queue.pop q))
      done;
      !found
    end

  let path_info m a b =
    if not (m.up.(a) && m.up.(b)) then None
    else if a = b then Some (0.0, 1.0)
    else begin
      let n = count m in
      let dist = Array.make n infinity and survival = Array.make n 1.0 in
      let settled = Array.make n false in
      dist.(a) <- 0.0;
      let result = ref None in
      (try
         while true do
           let best = ref (-1) in
           for i = 0 to n - 1 do
             if (not settled.(i)) && dist.(i) < infinity
                && (!best = -1 || dist.(i) < dist.(!best))
             then best := i
           done;
           if !best = -1 then raise Exit;
           if !best = b then begin
             result := Some (dist.(b), survival.(b));
             raise Exit
           end;
           settled.(!best) <- true;
           List.iter
             (fun (j, lat, loss) ->
               if dist.(!best) +. lat < dist.(j) then begin
                 dist.(j) <- dist.(!best) +. lat;
                 survival.(j) <- survival.(!best) *. (1.0 -. loss)
               end)
             (neighbours m !best)
         done
       with Exit -> ());
      !result
    end
end

(* Mutate the topology and its mirror in lockstep. *)
let mirror_add_link topo (m : Reference.t) a b ~lat ~loss =
  Topology.add_link ~loss topo (Nodeid.of_int a) (Nodeid.of_int b) ~latency:lat;
  match Hashtbl.find_opt m.links (Reference.key a b) with
  | Some l -> Hashtbl.replace m.links (Reference.key a b) { l with lat; loss }
  | None -> Hashtbl.replace m.links (Reference.key a b) { Reference.lat; loss; lup = true }

let mirror_of_builder topo ~lat =
  let n = Topology.node_count topo in
  let m = { Reference.up = Array.make n true; links = Hashtbl.create 64 } in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if Topology.has_link topo (Nodeid.of_int a) (Nodeid.of_int b) then
        Hashtbl.replace m.links (a, b) { Reference.lat; loss = 0.0; lup = true }
    done
  done;
  m

(* Latencies and losses come from small sets so equal-cost paths with
   different survival are common: that is where settle order shows. *)
let pick rs arr = arr.(Random.State.int rs (Array.length arr))
let latencies = [| 0.5; 1.0; 1.5; 2.0; 3.0 |]
let losses = [| 0.0; 0.0; 0.1; 0.25; 0.5 |]

let random_topology rs =
  let topo = Topology.create () in
  let n = 2 + Random.State.int rs 9 in
  let lat = pick rs latencies in
  match Random.State.int rs 4 with
  | 0 ->
      ignore (Topology.clique topo n ~latency:lat);
      (topo, mirror_of_builder topo ~lat)
  | 1 ->
      ignore (Topology.star topo n ~latency:lat);
      (topo, mirror_of_builder topo ~lat)
  | 2 ->
      ignore (Topology.line topo n ~latency:lat);
      (topo, mirror_of_builder topo ~lat)
  | _ ->
      let rng = Rng.create (Random.State.int64 rs Int64.max_int) in
      ignore (Topology.wan topo ~rng ~nodes:n ~extra_links:(Random.State.int rs n));
      (* wan latencies follow coordinates; re-add every link with a
         drawn latency and loss so the mirror knows them. *)
      let m = mirror_of_builder topo ~lat in
      Hashtbl.iter
        (fun (a, b) _ -> mirror_add_link topo m a b ~lat:(pick rs latencies) ~loss:(pick rs losses))
        (Hashtbl.copy m.links);
      (topo, m)

let agrees topo m a b =
  let na = Nodeid.of_int a and nb = Nodeid.of_int b in
  Topology.path_info topo na nb = Reference.path_info m a b
  && Topology.reachable topo na nb = Reference.reachable m a b

let all_pairs_agree topo m =
  let n = Reference.count m in
  List.for_all (fun a -> List.for_all (agrees topo m a) (List.init n Fun.id)) (List.init n Fun.id)

let random_mutation rs topo (m : Reference.t) =
  let n = Reference.count m in
  let node () = Random.State.int rs n in
  match Random.State.int rs 7 with
  | 0 ->
      let i = node () and up = Random.State.int rs 3 > 0 in
      Topology.set_node_up topo (Nodeid.of_int i) up;
      m.up.(i) <- up
  | 1 -> (
      let a = node () and b = node () in
      match Hashtbl.find_opt m.links (Reference.key a b) with
      | Some l ->
          let up = Random.State.bool rs in
          Topology.set_link_up topo (Nodeid.of_int a) (Nodeid.of_int b) up;
          l.lup <- up
      | None -> ())
  | 2 ->
      (* Group 3 is the implicit leftover group. *)
      let group = Array.init n (fun _ -> Random.State.int rs 4) in
      let groups =
        List.init 3 (fun g ->
            List.filter_map
              (fun i -> if group.(i) = g then Some (Nodeid.of_int i) else None)
              (List.init n Fun.id))
      in
      Topology.partition topo groups;
      let g i = if group.(i) = 3 then -1 else group.(i) in
      Hashtbl.iter (fun (a, b) l -> l.Reference.lup <- g a = g b) m.links
  | 3 ->
      Topology.heal_all topo;
      Array.fill m.up 0 n true;
      Hashtbl.iter (fun _ l -> l.Reference.lup <- true) m.links
  | 4 | 5 ->
      (* Often an existing link: re-adding replaces latency and loss. *)
      let a = node () and b = node () in
      if a <> b then mirror_add_link topo m a b ~lat:(pick rs latencies) ~loss:(pick rs losses)
  | _ ->
      ignore (Topology.add_node topo);
      m.up <- Array.append m.up [| true |]

let prop_route_cache_matches_reference =
  QCheck.Test.make ~name:"cached routes equal the uncached Dijkstra and BFS" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let topo, m = random_topology rs in
      let ok = ref (all_pairs_agree topo m) in
      for _ = 1 to 30 do
        random_mutation rs topo m;
        (* Mostly single queries, so some sources hold cached tables and
           others none when the next mutation lands. *)
        let n = Reference.count m in
        if Random.State.int rs 4 = 0 then ok := !ok && all_pairs_agree topo m
        else ok := !ok && agrees topo m (Random.State.int rs n) (Random.State.int rs n)
      done;
      !ok && all_pairs_agree topo m)

(* A route table cached before add_node is one entry short; the new node
   must be answered from a fresh table, not the stale one. *)
let test_route_cache_add_node_after_query () =
  let topo = Topology.create () in
  let ids = Topology.line topo 3 ~latency:1.0 in
  check_bool "warm cache" true (Topology.reachable topo ids.(0) ids.(2));
  let fresh = Topology.add_node topo in
  check_bool "isolated new node unreachable" false (Topology.reachable topo ids.(0) fresh);
  check_bool "no path to new node" true (Topology.path_info topo ids.(0) fresh = None);
  check_bool "new node reaches itself" true (Topology.path_info topo fresh fresh = Some (0.0, 1.0));
  Topology.add_link ~loss:0.5 topo ids.(2) fresh ~latency:2.0;
  check_bool "linked new node" true (Topology.path_info topo ids.(0) fresh = Some (4.0, 0.5))

(* Rpc's failure detector and Fault's signal query routes from inside
   on_change callbacks: they must see the graph after the mutation. *)
let test_route_cache_fresh_inside_watchers () =
  let topo, a, b, c = line3 () in
  let seen = ref [] in
  Topology.on_change topo (fun () -> seen := Topology.reachable topo a c :: !seen);
  check_bool "warm cache" true (Topology.reachable topo a c);
  Topology.set_link_up topo b c false;
  Topology.set_link_up topo b c true;
  Alcotest.(check (list bool)) "callbacks see the mutated graph" [ true; false ] !seen

let test_topology_latency_validated () =
  let topo = Topology.create () in
  let a = Topology.add_node topo and b = Topology.add_node topo in
  let bad = Invalid_argument "Topology.add_link: latency must be finite and non-negative" in
  List.iter
    (fun latency ->
      Alcotest.check_raises "bad latency" bad (fun () -> Topology.add_link topo a b ~latency))
    [ -1.0; infinity; nan ];
  check_bool "no link added" false (Topology.has_link topo a b)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "weakset_net"
    [
      ( "topology",
        Alcotest.test_case "nodes and links" `Quick test_topology_nodes_and_links
        :: Alcotest.test_case "self link rejected" `Quick test_topology_self_link_rejected
        :: Alcotest.test_case "reachable chain" `Quick test_topology_reachable_chain
        :: Alcotest.test_case "link cut" `Quick test_topology_reachable_breaks_on_link_cut
        :: Alcotest.test_case "node down" `Quick test_topology_reachable_breaks_on_node_down
        :: Alcotest.test_case "path latency" `Quick test_topology_path_latency
        :: Alcotest.test_case "partition groups" `Quick test_topology_partition_groups
        :: Alcotest.test_case "partition implicit group" `Quick
             test_topology_partition_implicit_group
        :: Alcotest.test_case "partition restores internal links" `Quick
             test_topology_partition_restores_internal_links
        :: Alcotest.test_case "on_change" `Quick test_topology_on_change
        :: Alcotest.test_case "builders" `Quick test_topology_builders
        :: Alcotest.test_case "wan connected" `Quick test_topology_wan_connected
        :: Alcotest.test_case "route cache: add_node after query" `Quick
             test_route_cache_add_node_after_query
        :: Alcotest.test_case "route cache: fresh inside on_change" `Quick
             test_route_cache_fresh_inside_watchers
        :: Alcotest.test_case "latency validated" `Quick test_topology_latency_validated
        :: qcheck
             [
               prop_reachability_symmetric;
               prop_path_latency_implies_reachable;
               prop_route_cache_matches_reference;
             ] );
      ( "transport",
        [
          Alcotest.test_case "delivery latency" `Quick test_transport_delivery_latency;
          Alcotest.test_case "multi-hop latency" `Quick test_transport_multi_hop_latency;
          Alcotest.test_case "drop unreachable" `Quick test_transport_drop_unreachable;
          Alcotest.test_case "drop down node" `Quick test_transport_drop_down_node;
          Alcotest.test_case "drop in flight" `Quick test_transport_drop_in_flight;
          Alcotest.test_case "lossy link drops all" `Quick test_transport_lossy_link_drops_all;
          Alcotest.test_case "lossy link statistics" `Quick test_transport_lossy_link_statistics;
          Alcotest.test_case "path survival multi-hop" `Quick test_path_survival_multi_hop;
          Alcotest.test_case "rpc over lossy link" `Quick
            test_rpc_over_lossy_link_times_out_sometimes;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "roundtrip" `Quick test_rpc_roundtrip;
          Alcotest.test_case "service time" `Quick test_rpc_service_time;
          Alcotest.test_case "unreachable detected" `Quick test_rpc_unreachable_detected;
          Alcotest.test_case "timeout on in-flight loss" `Quick test_rpc_timeout_on_in_flight_loss;
          Alcotest.test_case "late response ignored" `Quick test_rpc_late_response_ignored;
          Alcotest.test_case "concurrent calls" `Quick test_rpc_concurrent_calls;
          Alcotest.test_case "handler can block" `Quick test_rpc_handler_can_block;
          Alcotest.test_case "answered waits leave the heap" `Quick
            test_rpc_answered_waits_leave_the_heap;
        ] );
      ( "fault",
        [
          Alcotest.test_case "signal on change" `Quick test_fault_signal_on_change;
          Alcotest.test_case "scheduled partition" `Quick test_fault_schedule_partition_and_heal;
          Alcotest.test_case "scheduled partition rejects bad window" `Quick
            test_fault_schedule_partition_rejects_bad_window;
          Alcotest.test_case "stop_node window" `Quick test_fault_stop_node_window;
          Alcotest.test_case "stop_node rejects bad window" `Quick
            test_fault_stop_node_rejects_bad_window;
          Alcotest.test_case "heal_node" `Quick test_fault_heal_node;
          Alcotest.test_case "isolate_node window" `Quick test_fault_isolate_node_window;
          Alcotest.test_case "isolate_node rejects bad window" `Quick
            test_fault_isolate_node_rejects_bad_window;
          Alcotest.test_case "overlapping isolations" `Quick test_fault_overlapping_isolations;
          Alcotest.test_case "shared link heals on last release" `Quick
            test_fault_shared_link_heals_on_last_release;
          Alcotest.test_case "partition heal leaves crashed node down" `Quick
            test_fault_partition_heal_leaves_crashed_node_down;
          Alcotest.test_case "random partition process" `Quick
            test_fault_random_partition_process;
          Alcotest.test_case "crash/restart process" `Quick test_fault_crash_restart_process;
          Alcotest.test_case "flaky link process" `Quick test_fault_flaky_link_process;
        ] );
    ]
