(* Tests for the bench harness plumbing (bench_lib): world builders,
   measured iteration runs, mutator/fault processes and the staleness
   metrics that experiments E4/E7/A1 report.  The experiment tables are
   only as trustworthy as this machinery. *)

open Weakset_sim
open Weakset_store
open Weakset_core
open Bench_lib

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_clique_world_shape () =
  let w = Scenarios.clique_world ~seed:1 ~size:10 () in
  check_int "eight nodes" 8 (Array.length w.Scenarios.nodes);
  let truth =
    Node_server.directory_truth w.Scenarios.servers.(0) ~set_id:Scenarios.set_id
  in
  check_int "ten members" 10 (Directory.size truth);
  (* Objects really are stored at their homes. *)
  Oid.Set.iter
    (fun oid ->
      let home_ix = Weakset_net.Nodeid.to_int (Oid.home oid) in
      check_bool "object stored at home" true
        (Node_server.has_object w.Scenarios.servers.(home_ix) oid))
    (Directory.members truth)

let test_run_iteration_outcomes () =
  (* Done on a quiet world. *)
  let w = Scenarios.clique_world ~seed:2 ~size:6 () in
  let r = Scenarios.run_iteration w Semantics.optimistic in
  check_bool "done" true (r.Scenarios.outcome = `Done);
  check_int "all yields" 6 r.Scenarios.yields;
  check_bool "first before total" true
    (Option.get r.Scenarios.first_at <= Option.get r.Scenarios.total);
  (* Failed under a permanent partition (pessimistic). *)
  let w = Scenarios.clique_world ~seed:3 ~size:6 () in
  Engine.schedule w.Scenarios.eng ~after:5.0 (fun () ->
      Weakset_net.Topology.partition w.Scenarios.topo
        [
          [ w.Scenarios.nodes.(0); w.Scenarios.nodes.(7) ];
          [
            w.Scenarios.nodes.(1);
            w.Scenarios.nodes.(2);
            w.Scenarios.nodes.(3);
            w.Scenarios.nodes.(4);
            w.Scenarios.nodes.(5);
            w.Scenarios.nodes.(6);
          ];
        ]);
  let r = Scenarios.run_iteration w Semantics.immutable in
  check_bool "failed" true (match r.Scenarios.outcome with `Failed _ -> true | _ -> false);
  (* Deadline (blocked) under the same partition, optimistic. *)
  let w = Scenarios.clique_world ~seed:3 ~size:6 () in
  Engine.schedule w.Scenarios.eng ~after:5.0 (fun () ->
      Weakset_net.Topology.partition w.Scenarios.topo
        [
          [ w.Scenarios.nodes.(0); w.Scenarios.nodes.(7) ];
          [
            w.Scenarios.nodes.(1);
            w.Scenarios.nodes.(2);
            w.Scenarios.nodes.(3);
            w.Scenarios.nodes.(4);
            w.Scenarios.nodes.(5);
            w.Scenarios.nodes.(6);
          ];
        ]);
  let r = Scenarios.run_iteration ~deadline:500.0 w Semantics.optimistic in
  check_bool "blocked at deadline" true (r.Scenarios.outcome = `Deadline)

let test_set_mutator_changes_membership () =
  let w = Scenarios.clique_world ~seed:4 ~size:5 () in
  Scenarios.set_mutator w ~add_rate:0.5 ~remove_rate:0.0 ~until:100.0;
  let (_ : int) = Engine.run ~until:200.0 w.Scenarios.eng in
  let truth =
    Node_server.directory_truth w.Scenarios.servers.(0) ~set_id:Scenarios.set_id
  in
  check_bool "membership grew" true (Directory.size truth > 5);
  check_int "no crashes" 0 (List.length (Engine.crashes w.Scenarios.eng))

let test_set_mutator_start_delay () =
  let w = Scenarios.clique_world ~seed:5 ~size:5 () in
  Scenarios.set_mutator ~start:50.0 w ~add_rate:1.0 ~remove_rate:0.0 ~until:100.0;
  let truth =
    Node_server.directory_truth w.Scenarios.servers.(0) ~set_id:Scenarios.set_id
  in
  let (_ : int) = Engine.run ~until:40.0 w.Scenarios.eng in
  check_int "nothing before start" 5 (Directory.size truth);
  let (_ : int) = Engine.run ~until:200.0 w.Scenarios.eng in
  check_bool "mutations after start" true (Directory.size truth > 5)

let test_home_fault_processes_recover () =
  let w = Scenarios.clique_world ~seed:6 ~size:4 () in
  Scenarios.home_fault_processes w ~mttf:20.0 ~mttr:5.0 ~until:300.0;
  let (_ : int) = Engine.run ~until:1_000.0 w.Scenarios.eng in
  (* All homes are back up after the processes stop. *)
  Array.iteri
    (fun i n ->
      if i >= 1 && i <= Array.length w.Scenarios.nodes - 2 then
        check_bool "home up at end" true (Weakset_net.Topology.node_up w.Scenarios.topo n))
    w.Scenarios.nodes

let test_staleness_metrics () =
  let w = Scenarios.clique_world ~seed:7 ~size:6 () in
  Scenarios.set_mutator w ~add_rate:0.2 ~remove_rate:0.1 ~until:1_000.0;
  let r =
    Scenarios.run_iteration ~instrument:true ~think:2.0 ~deadline:5_000.0 w
      Semantics.optimistic
  in
  match r.Scenarios.inst with
  | None -> Alcotest.fail "expected instrumentation"
  | Some inst ->
      let st = Scenarios.staleness_of (Instrument.computation inst) in
      check_bool "saw some adds" true (st.Scenarios.adds_during > 0);
      check_bool "adds seen <= adds during" true
        (st.Scenarios.adds_yielded <= st.Scenarios.adds_during);
      check_bool "stale yields <= yields" true (st.Scenarios.stale_yields <= r.Scenarios.yields)

let test_staleness_empty_computation () =
  let st = Scenarios.staleness_of (Weakset_spec.Computation.create ()) in
  check_int "no adds" 0 st.Scenarios.adds_during;
  check_int "no stale" 0 st.Scenarios.stale_yields

(* The seeded baseline suite is deterministic, so a fresh run must
   reproduce the committed BENCH_baseline.json metric for metric: the
   fingerprint of the worlds [clique_world] builds for it. *)
let test_baseline_reproduces_committed () =
  match Baseline.read "../BENCH_baseline.json" with
  | Error msg -> Alcotest.fail msg
  | Ok committed ->
      Alcotest.(check (list (pair string (float 0.0))))
        "metric for metric" committed (Baseline.collect ())

let () =
  Alcotest.run "bench_scenarios"
    [
      ( "scenarios",
        [
          Alcotest.test_case "clique world shape" `Quick test_clique_world_shape;
          Alcotest.test_case "run_iteration outcomes" `Quick test_run_iteration_outcomes;
          Alcotest.test_case "mutator changes membership" `Quick
            test_set_mutator_changes_membership;
          Alcotest.test_case "mutator start delay" `Quick test_set_mutator_start_delay;
          Alcotest.test_case "fault processes recover" `Quick test_home_fault_processes_recover;
          Alcotest.test_case "staleness metrics" `Quick test_staleness_metrics;
          Alcotest.test_case "staleness on empty computation" `Quick
            test_staleness_empty_computation;
          Alcotest.test_case "baseline reproduces BENCH_baseline.json" `Quick
            test_baseline_reproduces_committed;
        ] );
    ]
