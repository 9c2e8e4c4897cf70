(* End-to-end tests for weakset_core: the four iterator semantics running
   over a real simulated cluster (RPC, partitions, locks, ghosts, replicas),
   each instrumented and checked against the paper's executable figure
   specifications. *)

open Weakset_sim
open Weakset_net
open Weakset_store
open Weakset_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* World fixture                                                      *)
(* ------------------------------------------------------------------ *)

type world = Sim_world.t = {
  eng : Engine.t;
  topo : Topology.t;
  rpc : Node_server.rpc;
  nodes : Nodeid.t array;
  servers : Node_server.t array;
  fault : Fault.t;
  client : Client.t;
  sref : Protocol.set_ref;
  rng : Rng.t;
  mutable next_num : int;
}

let set_id = Sim_world.set_id

(* Six-node clique: node 0 coordinates the directory, nodes 1-4 home
   objects, node 5 runs the client.  [replica_nodes] additionally host
   directory replicas with the given anti-entropy interval. *)
let make_world ?policy ?(replica_nodes = []) ?(replica_interval = 5.0) () =
  Sim_world.create ?policy ~replica_ixs:replica_nodes ~replica_interval ~replica_until:10_000.0
    (Engine.create ()) ~nodes:6 ~latency:1.0 ()

let oid_counter = ref 0

(* Store an object on [home_ix] and enter it in the directory (directly,
   before any instrumentation). *)
let add_member w ~home_ix content =
  incr oid_counter;
  let oid = Oid.make ~num:!oid_counter ~home:w.nodes.(home_ix) in
  Node_server.put_object w.servers.(home_ix) oid (Svalue.make content);
  ignore (Directory.apply (Node_server.directory_truth w.servers.(0) ~set_id) (Directory.Add oid));
  oid

(* n members spread round-robin over nodes 1-4. *)
let populate w n =
  Array.init n (fun i -> add_member w ~home_ix:(1 + (i mod 4)) (Printf.sprintf "content-%d" i))

let wset ?(semantics = Semantics.optimistic) w =
  Weak_set.make ~heal_signal:(Fault.signal w.fault) ~coordinator_server:w.servers.(0) w.client
    w.sref semantics

let in_fiber w body =
  let result = ref None in
  Engine.spawn w.eng ~name:"test-body" (fun () -> result := Some (body ()));
  let (_ : int) = Engine.run ~until:50_000.0 w.eng in
  (match Engine.crashes w.eng with
  | [] -> ()
  | c :: _ ->
      Alcotest.failf "fiber %s crashed: %s" c.Engine.crash_fiber
        (Printexc.to_string c.Engine.crash_exn));
  match !result with Some r -> r | None -> Alcotest.fail "test body did not finish"

let oids_of yields = List.map fst yields

let expect_spec_conforms inst spec =
  match Instrument.check inst spec with
  | Weakset_spec.Figures.Conforms -> ()
  | v ->
      Alcotest.failf "expected conformance to %s:@.%s@.%a" spec.Weakset_spec.Visibility.name
        (Format.asprintf "%a" Weakset_spec.Figures.pp_verdict v)
        Weakset_spec.Computation.pp (Instrument.computation inst)

let expect_spec_violates inst spec =
  match Instrument.check inst spec with
  | Weakset_spec.Figures.Conforms ->
      Alcotest.failf "expected violation of %s" spec.Weakset_spec.Visibility.name
  | Weakset_spec.Figures.Violates _ -> ()

let get_inst = function
  | Some i -> i
  | None -> Alcotest.fail "expected instrumentation"

(* ------------------------------------------------------------------ *)
(* Basic iteration, all semantics, quiet network                      *)
(* ------------------------------------------------------------------ *)

let test_all_semantics_full_drain () =
  List.iter
    (fun (name, semantics) ->
      let w = make_world () in
      let members = populate w 8 in
      let s = wset ~semantics w in
      let yields, ending =
        in_fiber w (fun () ->
            let iter, _ = Weak_set.elements s in
            Iterator.drain iter)
      in
      (match ending with
      | `Done -> ()
      | `Failed e -> Alcotest.failf "%s failed: %s" name (Client.error_to_string e)
      | `Limit -> Alcotest.failf "%s hit limit" name);
      check_int (name ^ " yields all") 8 (List.length yields);
      let yielded = Oid.Set.of_list (oids_of yields) in
      Array.iter
        (fun o -> check_bool (name ^ " yielded member") true (Oid.Set.mem o yielded))
        members)
    Semantics.all

let test_quiet_run_conforms_to_all_figures () =
  (* Immutable iteration of an undisturbed set is the strongest behaviour:
     it must satisfy every figure spec, including Figure 1. *)
  let w = make_world () in
  let (_ : Oid.t array) = populate w 5 in
  let s = wset ~semantics:Semantics.immutable w in
  let inst =
    in_fiber w (fun () ->
        let iter, inst = Weak_set.elements ~instrument:true s in
        let (_ : (Oid.t * Svalue.t) list * _) = Iterator.drain iter in
        get_inst inst)
  in
  List.iter (expect_spec_conforms inst) Weakset_spec.Figures.all_specs

let test_empty_set_returns_immediately () =
  let w = make_world () in
  let s = wset ~semantics:Semantics.optimistic w in
  let yields, ending =
    in_fiber w (fun () ->
        let iter, _ = Weak_set.elements s in
        Iterator.drain iter)
  in
  check_int "no yields" 0 (List.length yields);
  check_bool "done" true (ending = `Done)

let test_closest_first_order () =
  (* Objects on a chain: nearer homes must be yielded first. *)
  let eng = Engine.create () in
  let topo = Topology.create () in
  let chain = Topology.line topo 4 ~latency:1.0 in
  (* client at chain.(0); homes at 1,2,3 with growing distance *)
  let rpc : Node_server.rpc = Rpc.create eng topo in
  let servers = Array.map (fun n -> Node_server.create rpc n) chain in
  Node_server.host_directory servers.(1) ~set_id ~policy:Node_server.Immediate;
  let client = Client.create rpc chain.(0) in
  let sref = { Protocol.set_id; coordinator = chain.(1); replicas = [] } in
  let dir = Node_server.directory_truth servers.(1) ~set_id in
  let mk num home_ix =
    let oid = Oid.make ~num:(1000 + num) ~home:chain.(home_ix) in
    Node_server.put_object servers.(home_ix) oid (Svalue.make "x");
    ignore (Directory.apply dir (Directory.Add oid));
    oid
  in
  let far = mk 1 3 in
  let mid = mk 2 2 in
  let near = mk 3 1 in
  let s = Weak_set.make client sref Semantics.optimistic in
  let result = ref [] in
  Engine.spawn eng (fun () ->
      let iter, _ = Weak_set.elements s in
      let yields, _ = Iterator.drain iter in
      result := oids_of yields);
  Engine.run_and_check eng;
  Alcotest.(check (list string))
    "closest first"
    (List.map Oid.to_string [ near; mid; far ])
    (List.map Oid.to_string !result)

(* ------------------------------------------------------------------ *)
(* Immutable (Figures 1/3)                                            *)
(* ------------------------------------------------------------------ *)

let test_immutable_fails_pessimistically_on_partition () =
  let w = make_world () in
  let (_ : Oid.t array) = populate w 6 in
  let s = wset ~semantics:Semantics.immutable w in
  let (yields, ending), inst =
    in_fiber w (fun () ->
        let iter, inst = Weak_set.elements ~instrument:true s in
        (* Take two elements, then cut the client off from all homes but
           keep the coordinator reachable. *)
        let y1 = Iterator.next iter in
        let y2 = Iterator.next iter in
        check_bool "two yields" true
          (match (y1, y2) with Iterator.Yield _, Iterator.Yield _ -> true | _ -> false);
        Fault.partition w.fault
          [ [ w.nodes.(0); w.nodes.(5) ]; [ w.nodes.(1); w.nodes.(2); w.nodes.(3); w.nodes.(4) ] ];
        (Iterator.drain iter, get_inst inst))
  in
  (match ending with
  | `Failed Client.Unreachable -> ()
  | `Failed e -> Alcotest.failf "wrong failure: %s" (Client.error_to_string e)
  | `Done | `Limit -> Alcotest.fail "expected pessimistic failure");
  check_int "no further yields after partition" 0 (List.length yields);
  expect_spec_conforms inst Weakset_spec.Figures.fig3;
  (* Figure 1 ignores failures, so a failing run cannot satisfy it. *)
  expect_spec_violates inst Weakset_spec.Figures.fig1

let test_immutable_blocks_writers () =
  let w = make_world () in
  let (_ : Oid.t array) = populate w 4 in
  let s = wset ~semantics:Semantics.immutable w in
  let extra = add_member w ~home_ix:1 "late" in
  (* Detach it again: we want to add it through the API later. *)
  ignore
    (Directory.apply (Node_server.directory_truth w.servers.(0) ~set_id) (Directory.Remove extra));
  let writer_done_at = ref 0.0 in
  let iter_closed_at = ref 0.0 in
  Engine.spawn w.eng ~name:"reader" (fun () ->
      let iter, _ = Weak_set.elements s in
      let (_ : Iterator.outcome) = Iterator.next iter in
      Engine.sleep w.eng 50.0;
      let (_ : (Oid.t * Svalue.t) list * _) = Iterator.drain iter in
      Iterator.close iter;
      iter_closed_at := Engine.now w.eng);
  Engine.spawn w.eng ~name:"writer" (fun () ->
      Engine.sleep w.eng 5.0;
      (* The reader holds the read lock: this add must block until the
         iteration finishes. *)
      match Weak_set.add s extra with
      | Ok () -> writer_done_at := Engine.now w.eng
      | Error e -> Alcotest.failf "add failed: %s" (Client.error_to_string e));
  let (_ : int) = Engine.run ~until:10_000.0 w.eng in
  check_bool "writer waited for the whole iteration" true (!writer_done_at >= !iter_closed_at);
  check_bool "writer eventually succeeded" true (!writer_done_at > 0.0)

let test_immutable_close_early_releases_lock () =
  let w = make_world () in
  let (_ : Oid.t array) = populate w 4 in
  let s = wset ~semantics:Semantics.immutable w in
  in_fiber w (fun () ->
      let iter, _ = Weak_set.elements s in
      let (_ : Iterator.outcome) = Iterator.next iter in
      let lock = Node_server.lock_of w.servers.(0) ~set_id in
      check_int "read lock held" 1 (List.length (Lockmgr.holders lock));
      Iterator.close iter;
      (* close sends the release; give it a round trip *)
      Engine.sleep w.eng 5.0;
      check_int "lock released by close" 0 (List.length (Lockmgr.holders lock)))

(* ------------------------------------------------------------------ *)
(* Snapshot (Figure 4)                                                *)
(* ------------------------------------------------------------------ *)

let test_snapshot_loses_mutations () =
  let w = make_world () in
  let members = populate w 4 in
  let s = wset ~semantics:Semantics.snapshot w in
  let late = ref None in
  let (yields, ending), inst =
    in_fiber w (fun () ->
        let iter, inst = Weak_set.elements ~instrument:true s in
        (* First invocation pins the snapshot. *)
        let y1 = Iterator.next iter in
        check_bool "yield" true (match y1 with Iterator.Yield _ -> true | _ -> false);
        (* Concurrent mutator: adds a member and removes an original one. *)
        let lateoid = add_member w ~home_ix:2 "added-late" in
        late := Some lateoid;
        ignore
          (Directory.apply
             (Node_server.directory_truth w.servers.(0) ~set_id)
             (Directory.Remove members.(3)));
        (Iterator.drain iter, get_inst inst))
  in
  check_bool "done" true (ending = `Done);
  let all = Oid.Set.of_list (oids_of yields) in
  check_int "three more yields" 3 (List.length yields);
  check_bool "late addition invisible" false (Oid.Set.mem (Option.get !late) all);
  (* The removed member was still yielded: the snapshot is immune. *)
  check_bool "removed member still yielded" true
    (Oid.Set.mem members.(3) all || List.length yields = 3);
  expect_spec_conforms inst Weakset_spec.Figures.fig4;
  (* It genuinely loses the mutation, so the grow-only spec rejects it. *)
  expect_spec_violates inst Weakset_spec.Figures.fig5;
  (* And the mutation itself violates the immutable constraint. *)
  expect_spec_violates inst Weakset_spec.Figures.fig3

(* ------------------------------------------------------------------ *)
(* Grow-only (Figure 5)                                               *)
(* ------------------------------------------------------------------ *)

let test_grow_only_sees_additions () =
  let w = make_world ~policy:Node_server.Defer_removes_while_iterating () in
  let (_ : Oid.t array) = populate w 3 in
  let s = wset ~semantics:Semantics.grow_only w in
  let (first, (yields, ending)), inst =
    in_fiber w (fun () ->
        let iter, inst = Weak_set.elements ~instrument:true s in
        let first = Iterator.next iter in
        (* Concurrent addition through the API (another weak set handle). *)
        let late = add_member w ~home_ix:3 "late-add" in
        ignore late;
        ((first, Iterator.drain iter), get_inst inst))
  in
  check_bool "done" true (ending = `Done);
  check_bool "first yield" true (match first with Iterator.Yield _ -> true | _ -> false);
  check_int "original 3 + late addition" 4 (1 + List.length yields);
  expect_spec_conforms inst Weakset_spec.Figures.fig5;
  (* Saw the addition: snapshot spec rejects. *)
  expect_spec_violates inst Weakset_spec.Figures.fig4

let test_grow_only_ghosts_defer_removal () =
  let w = make_world ~policy:Node_server.Defer_removes_while_iterating () in
  let members = populate w 3 in
  let s = wset ~semantics:Semantics.grow_only w in
  let mutator = Weak_set.make w.client w.sref Semantics.optimistic in
  let (yields, ending), inst =
    in_fiber w (fun () ->
        let iter, inst = Weak_set.elements ~instrument:true s in
        let (_ : Iterator.outcome) = Iterator.next iter in
        (* A remove through the API while the iterator is registered: the
           ghost policy defers it, so the set does not shrink. *)
        (match Weak_set.remove mutator members.(2) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "remove: %s" (Client.error_to_string e));
        let result = Iterator.drain iter in
        (result, get_inst inst))
  in
  check_bool "done" true (ending = `Done);
  check_int "all three yielded despite the remove" 3 (1 + List.length yields);
  check_bool "the removed member itself was yielded" true
    (List.exists (fun (o, _) -> Oid.equal o members.(2)) yields);
  expect_spec_conforms inst Weakset_spec.Figures.fig5;
  (* After the iterator closed, the ghost is collected. *)
  let truth = Node_server.directory_truth w.servers.(0) ~set_id in
  in_fiber w (fun () -> Engine.sleep w.eng 5.0);
  check_bool "ghost collected after close" false (Directory.mem truth members.(2))

let test_grow_only_fails_on_partition () =
  let w = make_world ~policy:Node_server.Defer_removes_while_iterating () in
  let (_ : Oid.t array) = populate w 4 in
  let s = wset ~semantics:Semantics.grow_only w in
  let ending, inst =
    in_fiber w (fun () ->
        let iter, inst = Weak_set.elements ~instrument:true s in
        let (_ : Iterator.outcome) = Iterator.next iter in
        Fault.partition w.fault
          [ [ w.nodes.(0); w.nodes.(5) ]; [ w.nodes.(1); w.nodes.(2); w.nodes.(3); w.nodes.(4) ] ];
        let _, ending = Iterator.drain iter in
        (ending, get_inst inst))
  in
  check_bool "failed" true (match ending with `Failed _ -> true | _ -> false);
  expect_spec_conforms inst Weakset_spec.Figures.fig5

(* ------------------------------------------------------------------ *)
(* Optimistic (Figure 6)                                              *)
(* ------------------------------------------------------------------ *)

let test_optimistic_sees_grow_and_shrink () =
  let w = make_world () in
  let members = populate w 4 in
  let s = wset ~semantics:Semantics.optimistic w in
  let mutator = Weak_set.make w.client w.sref Semantics.optimistic in
  let (first_oid, (yields, ending)), inst =
    in_fiber w (fun () ->
        let iter, inst = Weak_set.elements ~instrument:true s in
        let first_oid =
          match Iterator.next iter with
          | Iterator.Yield (o, _) -> o
          | _ -> Alcotest.fail "expected first yield"
        in
        (* Mutate between invocations: add one, remove an un-yielded one. *)
        let late = add_member w ~home_ix:1 "late" in
        ignore late;
        (* Remove whichever original member is still un-yielded (by oid
           order and latency, member 3 homed at node 4 is last). *)
        (match Weak_set.remove mutator members.(3) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "remove: %s" (Client.error_to_string e));
        ((first_oid, Iterator.drain iter), get_inst inst))
  in
  check_bool "done, never fails" true (ending = `Done);
  let all = Oid.Set.add first_oid (Oid.Set.of_list (oids_of yields)) in
  check_bool "late addition seen" true (Oid.Set.cardinal all >= 4);
  check_bool "removed member skipped" false (Oid.Set.mem members.(3) all);
  expect_spec_conforms inst Weakset_spec.Figures.fig6;
  expect_spec_conforms inst Weakset_spec.Figures.fig6_window;
  expect_spec_violates inst Weakset_spec.Figures.fig3

let test_optimistic_blocks_then_resumes_after_heal () =
  let w = make_world () in
  let (_ : Oid.t array) = populate w 4 in
  let s = wset ~semantics:Semantics.optimistic w in
  (* Partition all object homes away at t=0; heal at t=100. *)
  Fault.partition w.fault
    [ [ w.nodes.(0); w.nodes.(5) ]; [ w.nodes.(1); w.nodes.(2); w.nodes.(3); w.nodes.(4) ] ];
  Engine.schedule w.eng ~after:100.0 (fun () -> Fault.heal_all w.fault);
  let (yields, ending), finished_at, inst =
    in_fiber w (fun () ->
        let iter, inst = Weak_set.elements ~instrument:true s in
        let result = Iterator.drain iter in
        (result, Engine.now w.eng, get_inst inst))
  in
  check_bool "completed after heal" true (ending = `Done);
  check_int "all yielded" 4 (List.length yields);
  check_bool "blocked across the partition" true (finished_at >= 100.0);
  expect_spec_conforms inst Weakset_spec.Figures.fig6

let test_optimistic_never_terminates_under_permanent_partition () =
  let w = make_world () in
  let (_ : Oid.t array) = populate w 4 in
  let s = wset ~semantics:Semantics.optimistic w in
  let progress = ref 0 in
  Engine.spawn w.eng (fun () ->
      let iter, _ = Weak_set.elements s in
      let rec loop () =
        match Iterator.next iter with
        | Iterator.Yield _ ->
            incr progress;
            loop ()
        | Iterator.Done | Iterator.Failed _ -> Alcotest.fail "must block, not terminate"
      in
      (* Cut everything off after the first two yields. *)
      ignore
        (match Iterator.next iter with
        | Iterator.Yield _ ->
            progress := 1;
            ()
        | _ -> Alcotest.fail "expected yield");
      Fault.partition w.fault
        [ [ w.nodes.(0); w.nodes.(5) ]; [ w.nodes.(1); w.nodes.(2); w.nodes.(3); w.nodes.(4) ] ];
      loop ());
  let (_ : int) = Engine.run ~until:5_000.0 w.eng in
  check_int "one yield then blocked" 1 !progress;
  (* The iterating fiber is parked on the heal signal (RPC demux fibers are
     also live, so >=1). *)
  check_bool "fiber still live (blocked, not dead)" true (Engine.live_fibers w.eng >= 1)

let test_optimistic_stale_replica_yields_removed_element () =
  (* The replica is closer to the client than the coordinator; after a
     removal the replica is stale for a while.  The stale-reading
     optimistic iterator yields the removed element: literal Figure 6 is
     violated, the §3.4-prose window spec is satisfied. *)
  let eng = Engine.create () in
  let topo = Topology.create () in
  let client_node = Topology.add_node topo in
  let replica_node = Topology.add_node topo in
  let coord_node = Topology.add_node topo in
  let home = Topology.add_node topo in
  Topology.add_link topo client_node replica_node ~latency:1.0;
  Topology.add_link topo client_node coord_node ~latency:5.0;
  Topology.add_link topo replica_node coord_node ~latency:3.0;
  Topology.add_link topo client_node home ~latency:1.0;
  Topology.add_link topo coord_node home ~latency:5.0;
  let rpc : Node_server.rpc = Rpc.create eng topo in
  let coord_server = Node_server.create rpc coord_node in
  let replica_server = Node_server.create rpc replica_node in
  let home_server = Node_server.create rpc home in
  Node_server.host_directory coord_server ~set_id ~policy:Node_server.Immediate;
  Node_server.host_replica replica_server ~set_id ~of_:coord_node ~interval:500.0 ~until:10_000.0;
  let client = Client.create rpc client_node in
  let sref = { Protocol.set_id; coordinator = coord_node; replicas = [ replica_node ] } in
  let dir = Node_server.directory_truth coord_server ~set_id in
  let a = Oid.make ~num:9001 ~home in
  let b = Oid.make ~num:9002 ~home in
  Node_server.put_object home_server a (Svalue.make "a");
  Node_server.put_object home_server b (Svalue.make "b");
  ignore (Directory.apply dir (Directory.Add a));
  ignore (Directory.apply dir (Directory.Add b));
  let s =
    Weak_set.make ~coordinator_server:coord_server client sref Semantics.optimistic_stale
  in
  let result = ref None in
  Engine.spawn eng (fun () ->
      (* Let the replica take its first sync... *)
      ignore (Node_server.replica_pull_now replica_server ~set_id);
      Engine.sleep eng 15.0;
      let iter, inst = Weak_set.elements ~instrument:true s in
      let y1 = Iterator.next iter in
      (* Remove the un-yielded member at the coordinator; the replica will
         not learn for 500 time units. *)
      let removed = match y1 with Iterator.Yield (o, _) -> if Oid.equal o a then b else a | _ -> Alcotest.fail "yield" in
      ignore (Directory.apply dir (Directory.Remove removed));
      let yields, ending = Iterator.drain iter in
      result := Some (removed, yields, ending, get_inst inst));
  let (_ : int) = Engine.run ~until:2_000.0 eng in
  (match Engine.crashes eng with
  | [] -> ()
  | c :: _ -> Alcotest.failf "crash: %s" (Printexc.to_string c.Engine.crash_exn));
  match !result with
  | None -> Alcotest.fail "did not finish"
  | Some (removed, yields, ending, inst) ->
      check_bool "done" true (ending = `Done);
      check_bool "stale replica made us yield the removed element" true
        (List.exists (fun (o, _) -> Oid.equal o removed) yields);
      expect_spec_violates inst Weakset_spec.Figures.fig6;
      expect_spec_conforms inst Weakset_spec.Figures.fig6_window

let test_grow_only_close_early_collects_ghosts () =
  let w = make_world ~policy:Node_server.Defer_removes_while_iterating () in
  let members = populate w 4 in
  let s = wset ~semantics:Semantics.grow_only w in
  let mutator = Weak_set.make w.client w.sref Semantics.optimistic in
  in_fiber w (fun () ->
      let iter, _ = Weak_set.elements s in
      let (_ : Iterator.outcome) = Iterator.next iter in
      ignore (Weak_set.remove mutator members.(3));
      let truth = Node_server.directory_truth w.servers.(0) ~set_id in
      check_bool "deferred while open" true (Directory.mem truth members.(3));
      (* Abandon the iteration early: close must deregister and let the
         ghost be collected. *)
      Iterator.close iter;
      Engine.sleep w.eng 5.0;
      check_bool "ghost collected after early close" false (Directory.mem truth members.(3));
      check_int "no registered iterators" 0 (Node_server.open_iterators w.servers.(0) ~set_id))

let test_two_concurrent_grow_only_iterators () =
  let w = make_world ~policy:Node_server.Defer_removes_while_iterating () in
  let members = populate w 4 in
  let s = wset ~semantics:Semantics.grow_only w in
  let mutator = Weak_set.make w.client w.sref Semantics.optimistic in
  let done1 = ref false and done2 = ref false in
  Engine.spawn w.eng ~name:"iter-1" (fun () ->
      let iter, _ = Weak_set.elements s in
      let (_ : Iterator.outcome) = Iterator.next iter in
      (* Remove a member while both iterators are open. *)
      ignore (Weak_set.remove mutator members.(2));
      Engine.sleep w.eng 30.0;
      let yields, ending = Iterator.drain iter in
      check_bool "iter-1 done" true (ending = `Done);
      check_int "iter-1 saw everything incl. the ghost" 4 (1 + List.length yields);
      done1 := true);
  Engine.spawn w.eng ~name:"iter-2" (fun () ->
      Engine.sleep w.eng 2.0;
      let iter, _ = Weak_set.elements s in
      let yields, ending = Iterator.drain iter in
      check_bool "iter-2 done" true (ending = `Done);
      check_int "iter-2 saw everything too" 4 (List.length yields);
      done2 := true);
  let (_ : int) = Engine.run ~until:10_000.0 w.eng in
  check_bool "both finished" true (!done1 && !done2);
  (* With both closed, the ghost is gone. *)
  let truth = Node_server.directory_truth w.servers.(0) ~set_id in
  check_bool "ghost collected after both closed" false (Directory.mem truth members.(2))

let test_instrument_requires_coordinator_server () =
  let w = make_world () in
  let s = Weak_set.make w.client w.sref Semantics.optimistic in
  Alcotest.check_raises "needs coordinator_server"
    (Invalid_argument "Weak_set.elements: instrumentation needs coordinator_server") (fun () ->
      ignore (Weak_set.elements ~instrument:true s))

(* ------------------------------------------------------------------ *)
(* §1 non-serializability claims                                      *)
(* ------------------------------------------------------------------ *)

(* "Running the same query twice in a row may return different sets of
   elements" - and each run individually conforms to its spec. *)
let test_same_query_twice_differs () =
  let w = make_world () in
  let (_ : Oid.t array) = populate w 4 in
  let s = wset ~semantics:Semantics.snapshot w in
  let first_run, second_run =
    in_fiber w (fun () ->
        let iter1, inst1 = Weak_set.elements ~instrument:true s in
        let yields1, _ = Iterator.drain iter1 in
        (* The repository changes between the two runs. *)
        let late = add_member w ~home_ix:2 "between-runs" in
        ignore late;
        let iter2, inst2 = Weak_set.elements ~instrument:true s in
        let yields2, _ = Iterator.drain iter2 in
        expect_spec_conforms (get_inst inst1) Weakset_spec.Figures.fig4;
        expect_spec_conforms (get_inst inst2) Weakset_spec.Figures.fig4;
        (Oid.Set.of_list (oids_of yields1), Oid.Set.of_list (oids_of yields2)))
  in
  check_bool "different answers" false (Oid.Set.equal first_run second_run);
  check_int "first run: 4" 4 (Oid.Set.cardinal first_run);
  check_int "second run: 5" 5 (Oid.Set.cardinal second_run)

(* "Two people running the same query at the same time may obtain
   different sets of elements." *)
let test_concurrent_queries_differ () =
  let w = make_world () in
  let (_ : Oid.t array) = populate w 4 in
  let s1 = wset ~semantics:Semantics.snapshot w in
  let client2 = Client.create w.rpc w.nodes.(4) in
  let s2 = Weak_set.make ~coordinator_server:w.servers.(0) client2 w.sref Semantics.snapshot in
  let r1 = ref Oid.Set.empty and r2 = ref Oid.Set.empty in
  Engine.spawn w.eng ~name:"user-A" (fun () ->
      let iter, _ = Weak_set.elements s1 in
      let yields, _ = Iterator.drain iter in
      r1 := Oid.Set.of_list (oids_of yields));
  Engine.spawn w.eng ~name:"user-B" (fun () ->
      (* B starts a moment later, after C's update below. *)
      Engine.sleep w.eng 3.0;
      let iter, _ = Weak_set.elements s2 in
      let yields, _ = Iterator.drain iter in
      r2 := Oid.Set.of_list (oids_of yields));
  Engine.spawn w.eng ~name:"user-C" (fun () ->
      (* After A's snapshot read is served (t=1.02) but before B starts. *)
      Engine.sleep w.eng 1.5;
      ignore (add_member w ~home_ix:1 "concurrent"));
  let (_ : int) = Engine.run ~until:10_000.0 w.eng in
  check_bool "A and B saw different sets" false (Oid.Set.equal !r1 !r2);
  check_int "A pinned the old snapshot" 4 (Oid.Set.cardinal !r1);
  check_int "B pinned the new snapshot" 5 (Oid.Set.cardinal !r2)

(* ------------------------------------------------------------------ *)
(* Procedures: add / remove / size                                    *)
(* ------------------------------------------------------------------ *)

let test_procedures_roundtrip () =
  let w = make_world () in
  let s = wset ~semantics:Semantics.optimistic w in
  let oid = add_member w ~home_ix:1 "x" in
  ignore
    (Directory.apply (Node_server.directory_truth w.servers.(0) ~set_id) (Directory.Remove oid));
  in_fiber w (fun () ->
      (match Weak_set.size s with
      | Ok n -> check_int "initially empty" 0 n
      | Error e -> Alcotest.failf "size: %s" (Client.error_to_string e));
      (match Weak_set.add s oid with
      | Ok () -> ()
      | Error e -> Alcotest.failf "add: %s" (Client.error_to_string e));
      (match Weak_set.size s with
      | Ok n -> check_int "one member" 1 n
      | Error e -> Alcotest.failf "size: %s" (Client.error_to_string e));
      (match Weak_set.remove s oid with
      | Ok () -> ()
      | Error e -> Alcotest.failf "remove: %s" (Client.error_to_string e));
      match Weak_set.size s with
      | Ok n -> check_int "empty again" 0 n
      | Error e -> Alcotest.failf "size: %s" (Client.error_to_string e))

let test_mem () =
  let w = make_world () in
  let members = populate w 3 in
  let stranger = Oid.make ~num:999_000 ~home:w.nodes.(1) in
  let s = wset ~semantics:Semantics.optimistic w in
  in_fiber w (fun () ->
      (match Weak_set.mem s members.(0) with
      | Ok b -> check_bool "member" true b
      | Error e -> Alcotest.failf "mem: %s" (Client.error_to_string e));
      match Weak_set.mem s stranger with
      | Ok b -> check_bool "non-member" false b
      | Error e -> Alcotest.failf "mem: %s" (Client.error_to_string e))

let test_provision_creates_collection () =
  let w = make_world () in
  (* Provision a second collection on node 1 with a replica on node 2. *)
  let sref =
    Weak_set.provision ~replicas:[ w.servers.(2) ] ~set_id:77 ~coordinator_server:w.servers.(1)
      ~semantics:Semantics.grow_only ()
  in
  check_int "set id" 77 sref.Protocol.set_id;
  check_bool "coordinator" true (Nodeid.equal sref.Protocol.coordinator w.nodes.(1));
  (* The ghost policy came from the semantics. *)
  check_int "no iterators yet" 0 (Node_server.open_iterators w.servers.(1) ~set_id:77);
  let handle = Weak_set.make ~coordinator_server:w.servers.(1) w.client sref Semantics.grow_only in
  let oid = Oid.make ~num:999_500 ~home:w.nodes.(3) in
  Node_server.put_object w.servers.(3) oid (Svalue.make "x");
  in_fiber w (fun () ->
      (match Weak_set.add handle oid with
      | Ok () -> ()
      | Error e -> Alcotest.failf "add: %s" (Client.error_to_string e));
      match Weak_set.size handle with
      | Ok n -> check_int "one member" 1 n
      | Error e -> Alcotest.failf "size: %s" (Client.error_to_string e))

let test_whole_scenario_determinism () =
  (* Two identical mutating, partitioned scenarios must produce exactly the
     same yields, timing and recorded computation lengths. *)
  let run () =
    let w = make_world () in
    let (_ : Oid.t array) = populate w 6 in
    Fault.schedule_partition w.fault ~at:8.0 ~heal_at:40.0
      [ [ w.nodes.(0); w.nodes.(5) ]; [ w.nodes.(1); w.nodes.(2); w.nodes.(3); w.nodes.(4) ] ];
    let s = wset ~semantics:Semantics.optimistic w in
    let record = ref [] in
    Engine.spawn w.eng (fun () ->
        let iter, inst = Weak_set.elements ~instrument:true s in
        let rec loop () =
          match Iterator.next iter with
          | Iterator.Yield (o, _) ->
              record := (Oid.to_string o, Engine.now w.eng) :: !record;
              loop ()
          | Iterator.Done -> record := ("done", Engine.now w.eng) :: !record
          | Iterator.Failed _ -> record := ("failed", Engine.now w.eng) :: !record
        in
        loop ();
        match inst with
        | Some inst ->
            record :=
              ( Printf.sprintf "states=%d"
                  (Weakset_spec.Computation.length (Instrument.computation inst)),
                0.0 )
              :: !record
        | None -> ());
    let (_ : int) = Engine.run ~until:5_000.0 w.eng in
    List.rev !record
  in
  (* populate uses a global oid counter, so align both runs' labels by
     resetting the comparison to relative oid order. *)
  let strip trace =
    List.map (fun (label, t) -> ((if String.length label > 0 then label.[0] else ' '), t)) trace
  in
  let a = run () and b = run () in
  check_int "same length" (List.length a) (List.length b);
  Alcotest.(check (list (pair char (float 1e-12)))) "identical traces" (strip a) (strip b)

(* ------------------------------------------------------------------ *)
(* Iterator wrapper behaviour                                         *)
(* ------------------------------------------------------------------ *)

let test_iterator_done_is_sticky () =
  let w = make_world () in
  let (_ : Oid.t array) = populate w 2 in
  let s = wset ~semantics:Semantics.optimistic w in
  in_fiber w (fun () ->
      let iter, _ = Weak_set.elements s in
      let (_ : (Oid.t * Svalue.t) list * _) = Iterator.drain iter in
      check_bool "done sticky" true (Iterator.next iter = Iterator.Done);
      check_bool "closed after done" true (Iterator.closed iter);
      Iterator.close iter (* idempotent *))

let test_iterator_drain_limit () =
  let w = make_world () in
  let (_ : Oid.t array) = populate w 5 in
  let s = wset ~semantics:Semantics.optimistic w in
  let yields, ending =
    in_fiber w (fun () ->
        let iter, _ = Weak_set.elements s in
        Iterator.drain ~limit:2 iter)
  in
  check_int "limited" 2 (List.length yields);
  check_bool "limit outcome" true (ending = `Limit)

(* ------------------------------------------------------------------ *)
(* Scale                                                              *)
(* ------------------------------------------------------------------ *)

(* Several collections, hundreds of members, interleaved iterations under
   different semantics - a smoke test that the substrate scales and that
   collections are isolated from each other. *)
let test_many_collections_scale () =
  let w = make_world () in
  let srefs =
    List.map
      (fun set_id ->
        Weak_set.provision ~set_id ~coordinator_server:w.servers.(0)
          ~semantics:Semantics.optimistic ())
      [ 10; 11; 12; 13 ]
  in
  (* 50 members per collection. *)
  List.iteri
    (fun ci sref ->
      for i = 1 to 50 do
        let num = 100_000 + (ci * 1000) + i in
        let home_ix = 1 + (i mod 4) in
        let oid = Oid.make ~num ~home:w.nodes.(home_ix) in
        Node_server.put_object w.servers.(home_ix) oid (Svalue.make "x");
        ignore
          (Directory.apply
             (Node_server.directory_truth w.servers.(0) ~set_id:sref.Protocol.set_id)
             (Directory.Add oid))
      done)
    srefs;
  let counts = Array.make (List.length srefs) 0 in
  List.iteri
    (fun ci sref ->
      Engine.spawn w.eng (fun () ->
          let handle = Weak_set.make w.client sref Semantics.optimistic in
          let iter, _ = Weak_set.elements handle in
          let yields, ending = Iterator.drain iter in
          check_bool "done" true (ending = `Done);
          counts.(ci) <- List.length yields))
    srefs;
  let (_ : int) = Engine.run ~until:100_000.0 w.eng in
  (match Engine.crashes w.eng with
  | [] -> ()
  | c :: _ -> Alcotest.failf "crash: %s" (Printexc.to_string c.Engine.crash_exn));
  Array.iteri (fun ci n -> check_int (Printf.sprintf "collection %d complete" ci) 50 n) counts

(* ------------------------------------------------------------------ *)
(* Semantics / GMW                                                    *)
(* ------------------------------------------------------------------ *)

let test_semantics_spec_mapping () =
  let open Weakset_spec.Figures in
  check_bool "immutable->fig3" true (Semantics.spec_of Semantics.immutable == fig3);
  check_bool "immutable+nofail->fig1" true
    (Semantics.spec_of ~no_failures:true Semantics.immutable == fig1);
  check_bool "snapshot->fig4" true (Semantics.spec_of Semantics.snapshot == fig4);
  check_bool "grow-only->fig5" true (Semantics.spec_of Semantics.grow_only == fig5);
  check_bool "optimistic->fig6" true (Semantics.spec_of Semantics.optimistic == fig6);
  check_bool "optimistic window" true (Semantics.window_spec_of Semantics.optimistic == fig6_window)

let test_gmw_classification () =
  let open Gmw in
  let c s = classify s in
  check_bool "fig3 strong/first-vintage" true
    (c Semantics.immutable = { consistency = Strong; currency = First_vintage_currency });
  check_bool "fig4 weak/first-vintage" true
    (c Semantics.snapshot = { consistency = Weak; currency = First_vintage_currency });
  check_bool "fig5 none/first-bound" true
    (c Semantics.grow_only = { consistency = No_consistency; currency = First_bound });
  check_bool "fig6 none/first-bound" true
    (c Semantics.optimistic = { consistency = No_consistency; currency = First_bound });
  check_int "table covers all named points" (List.length Semantics.all) (List.length (table ()))

(* ------------------------------------------------------------------ *)
(* Property: randomized mutation schedules                            *)
(* ------------------------------------------------------------------ *)

(* Under any schedule of adds/removes applied between invocations, the
   optimistic iterator conforms to the §3.4 window spec and never fails;
   with a ghost-policy directory the grow-only iterator conforms to
   Figure 5. *)
let run_random_schedule ~seed ~semantics ~policy ~spec =
  let w = make_world ~policy () in
  let (_ : Oid.t array) = populate w 4 in
  let s = wset ~semantics w in
  let rng = Rng.create (Int64.of_int (seed + 1)) in
  let ok = ref true in
  Engine.spawn w.eng (fun () ->
      let iter, inst = Weak_set.elements ~instrument:true s in
      let inst = get_inst inst in
      let rec loop steps =
        if steps > 30 then ()
        else begin
          (* Random mutation between invocations. *)
          (if Rng.chance rng 0.5 then
             let truth = Node_server.directory_truth w.servers.(0) ~set_id in
             if Rng.bool rng then ignore (add_member w ~home_ix:(1 + Rng.int rng 4) "r")
             else
               match Oid.Set.choose_opt (Directory.members truth) with
               | Some victim ->
                   let mutator = Weak_set.make w.client w.sref Semantics.optimistic in
                   ignore (Weak_set.remove mutator victim)
               | None -> ());
          match Iterator.next iter with
          | Iterator.Yield _ -> loop (steps + 1)
          | Iterator.Done -> ()
          | Iterator.Failed _ -> if semantics = Semantics.optimistic then ok := false
        end
      in
      loop 0;
      Iterator.close iter;
      match Instrument.check inst spec with
      | Weakset_spec.Figures.Conforms -> ()
      | Weakset_spec.Figures.Violates _ -> ok := false);
  let (_ : int) = Engine.run ~until:50_000.0 w.eng in
  !ok && Engine.crashes w.eng = []

let prop_optimistic_random_schedules =
  QCheck.Test.make ~name:"optimistic conforms to window spec under random mutations" ~count:25
    QCheck.small_nat
    (fun seed ->
      run_random_schedule ~seed ~semantics:Semantics.optimistic ~policy:Node_server.Immediate
        ~spec:Weakset_spec.Figures.fig6_window)

let prop_grow_only_random_schedules =
  QCheck.Test.make ~name:"grow-only conforms to fig5 under random mutations" ~count:25
    QCheck.small_nat
    (fun seed ->
      run_random_schedule ~seed ~semantics:Semantics.grow_only
        ~policy:Node_server.Defer_removes_while_iterating ~spec:Weakset_spec.Figures.fig5)

(* Random crash/repair fault schedules.  The optimistic iterator must never
   signal failure, whatever the faults do (Figure 6 has no signals clause);
   it either finishes or is still blocked at the deadline. *)
let prop_optimistic_never_fails_under_random_faults =
  QCheck.Test.make ~name:"optimistic never fails under random fault schedules" ~count:20
    QCheck.small_nat
    (fun seed ->
      let w = make_world () in
      let rng = Rng.create (Int64.of_int ((seed * 977) + 13)) in
      (* Crash/restart processes on every object home. *)
      for i = 1 to 4 do
        Fault.crash_restart_process w.fault ~rng:(Rng.split rng) ~mttf:40.0 ~mttr:10.0
          ~until:2_000.0 w.nodes.(i)
      done;
      let (_ : Oid.t array) = populate w 8 in
      let s = wset ~semantics:Semantics.optimistic w in
      let failed = ref false in
      Engine.spawn w.eng (fun () ->
          let iter, _ = Weak_set.elements s in
          let rec loop () =
            match Iterator.next iter with
            | Iterator.Yield _ -> loop ()
            | Iterator.Done -> ()
            | Iterator.Failed _ -> failed := true
          in
          loop ());
      let (_ : int) = Engine.run ~until:3_000.0 w.eng in
      (not !failed) && Engine.crashes w.eng = [])

(* Pessimistic runs under random faults: whatever happens (return, fail, or
   blocked at deadline), the recorded computation conforms to Figure 3.
   Runs that end in Failed Timeout are excluded: they are the documented
   flapping-link residual where the implementation gives up on an element
   the topology still calls reachable. *)
let prop_immutable_conforms_under_random_faults =
  QCheck.Test.make ~name:"immutable runs conform to fig3 under random fault schedules" ~count:20
    QCheck.small_nat
    (fun seed ->
      let w = make_world () in
      let rng = Rng.create (Int64.of_int ((seed * 1009) + 7)) in
      for i = 1 to 4 do
        Fault.crash_restart_process w.fault ~rng:(Rng.split rng) ~mttf:60.0 ~mttr:10.0
          ~until:2_000.0 w.nodes.(i)
      done;
      let (_ : Oid.t array) = populate w 8 in
      let s = wset ~semantics:Semantics.immutable w in
      let outcome = ref `Blocked in
      let inst_ref = ref None in
      Engine.spawn w.eng (fun () ->
          let iter, inst = Weak_set.elements ~instrument:true s in
          inst_ref := inst;
          let _, ending = Iterator.drain iter in
          outcome :=
            (match ending with
            | `Done -> `Done
            | `Failed Client.Timeout -> `Residual
            | `Failed _ -> `Failed
            | `Limit -> `Blocked));
      let (_ : int) = Engine.run ~until:3_000.0 w.eng in
      Engine.crashes w.eng = []
      &&
      match (!outcome, !inst_ref) with
      | `Residual, _ -> true
      | _, Some inst ->
          let comp = Instrument.computation inst in
          (* Runs that never opened (lock acquire failed) record nothing. *)
          Weakset_spec.Computation.length comp = 0
          || Weakset_spec.Figures.verdict_ok
               (Weakset_spec.Figures.check Weakset_spec.Figures.fig3 comp)
      | _, None -> false)

(* Under random faults AND random mutation, grow-only stays inside fig5
   (modulo the same timeout residual). *)
let prop_grow_only_conforms_under_faults_and_mutation =
  QCheck.Test.make ~name:"grow-only conforms to fig5 under faults + additions" ~count:15
    QCheck.small_nat
    (fun seed ->
      let w = make_world ~policy:Node_server.Defer_removes_while_iterating () in
      let rng = Rng.create (Int64.of_int ((seed * 31) + 3)) in
      Fault.crash_restart_process w.fault ~rng:(Rng.split rng) ~mttf:80.0 ~mttr:8.0
        ~until:1_000.0 w.nodes.(2);
      let (_ : Oid.t array) = populate w 6 in
      (* A producer adding members throughout. *)
      Engine.spawn w.eng (fun () ->
          for _ = 1 to 5 do
            Engine.sleep w.eng (Rng.uniform rng 3.0 10.0);
            ignore (add_member w ~home_ix:(1 + Rng.int rng 4) "hot")
          done);
      let s = wset ~semantics:Semantics.grow_only w in
      let ok = ref true in
      Engine.spawn w.eng (fun () ->
          let iter, inst = Weak_set.elements ~instrument:true s in
          let _, ending = Iterator.drain ~limit:60 iter in
          match (ending, inst) with
          | `Failed Client.Timeout, _ -> () (* residual *)
          | _, Some inst ->
              ok :=
                Weakset_spec.Figures.verdict_ok
                  (Weakset_spec.Figures.check Weakset_spec.Figures.fig5
                     (Instrument.computation inst))
          | _, None -> ok := false);
      let (_ : int) = Engine.run ~until:3_000.0 w.eng in
      !ok && Engine.crashes w.eng = [])

(* ------------------------------------------------------------------ *)
(* Candidate pool                                                     *)
(* ------------------------------------------------------------------ *)

(* The closest-first choice as it was made before candidate pools: fold
   the whole remaining set in ascending oid order and keep the first
   strictly better (latency, num).  The pool must choose exactly this. *)
let reference_pick topo me candidates =
  let better (oid, lat) (boid, blat) = lat < blat || (lat = blat && Oid.num oid < Oid.num boid) in
  Oid.Set.fold
    (fun oid best ->
      match Topology.path_latency topo me (Oid.home oid) with
      | None -> best
      | Some lat -> (
          match best with
          | Some b when not (better (oid, lat) b) -> best
          | Some _ | None -> Some (oid, lat)))
    candidates None
  |> Option.map fst

(* A clique, star or line whose links get latencies 1 or 2, so equal
   path latencies (and hence the oid tie-break) are common. *)
let random_pool_topology rs =
  let topo = Topology.create () in
  let n = 2 + Random.State.int rs 6 in
  (match Random.State.int rs 3 with
  | 0 -> ignore (Topology.clique topo n ~latency:1.0)
  | 1 -> ignore (Topology.star topo n ~latency:1.0)
  | _ -> ignore (Topology.line topo n ~latency:1.0));
  let nodes = Array.of_list (Topology.nodes topo) in
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          if Nodeid.compare a b < 0 && Topology.has_link topo a b then
            Topology.add_link topo a b ~latency:(float_of_int (1 + Random.State.int rs 2)))
        nodes)
    nodes;
  (topo, nodes)

(* Flip a node or a link; the client's own node stays up. *)
let random_fault rs topo nodes ~me =
  let n = Array.length nodes in
  let a = nodes.(Random.State.int rs n) and b = nodes.(Random.State.int rs n) in
  if Random.State.bool rs then begin
    if not (Nodeid.equal a me) then Topology.set_node_up topo a (not (Topology.node_up topo a))
  end
  else if Topology.has_link topo a b then
    Topology.set_link_up topo a b (not (Topology.link_up topo a b))

let prop_pool_pick_matches_reference =
  QCheck.Test.make ~name:"pool pick equals the whole-set closest-first scan" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let topo, nodes = random_pool_topology rs in
      let n = Array.length nodes in
      let me = nodes.(Random.State.int rs n) in
      for _ = 1 to Random.State.int rs 3 do
        random_fault rs topo nodes ~me
      done;
      let eng = Engine.create () in
      let client = Client.create (Rpc.create eng topo) me in
      let ctx =
        Impl_common.make_ctx client { Protocol.set_id; coordinator = nodes.(0); replicas = [] }
      in
      (* Few nums over several homes: one num often lives on two homes. *)
      let members =
        List.init (Random.State.int rs 24) (fun _ ->
            Oid.make ~num:(Random.State.int rs 8) ~home:nodes.(Random.State.int rs n))
        |> Oid.Set.of_list
      in
      let source = ref (Oid.Set.elements members) in
      (* [skip] is what the iterator has yielded or found dead. *)
      let skip = ref Oid.Set.empty in
      let pool = ref (Impl_common.Pool.of_list ~skip:(fun _ -> false) !source) in
      let agrees () =
        let remaining = Oid.Set.diff members !skip in
        Impl_common.pick ctx !pool = reference_pick topo me remaining
        && Impl_common.Pool.is_empty !pool = Oid.Set.is_empty remaining
      in
      let ok = ref (agrees ()) in
      for _ = 1 to 80 do
        (match Random.State.int rs 5 with
        | 0 | 1 -> (
            (* A yield, or optimistic's dead: the picked element leaves. *)
            match Impl_common.pick ctx !pool with
            | Some oid ->
                skip := Oid.Set.add oid !skip;
                Impl_common.Pool.remove !pool oid
            | None -> ())
        | 2 ->
            (* The same reply again keeps the pool itself. *)
            let again =
              Impl_common.Pool.refresh !pool ~skip:(fun o -> Oid.Set.mem o !skip) !source
            in
            ok := !ok && again == !pool
        | 3 ->
            (* An equal but physically different list rebuilds it. *)
            source := List.map Fun.id !source;
            let old = !pool in
            pool := Impl_common.Pool.refresh old ~skip:(fun o -> Oid.Set.mem o !skip) !source;
            ok := !ok && (!pool != old || !source = [])
        | _ -> random_fault rs topo nodes ~me);
        ok := !ok && agrees ()
      done;
      !ok)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "weakset_core"
    [
      ( "basics",
        [
          Alcotest.test_case "all semantics full drain" `Quick test_all_semantics_full_drain;
          Alcotest.test_case "quiet run conforms to all figures" `Quick
            test_quiet_run_conforms_to_all_figures;
          Alcotest.test_case "empty set" `Quick test_empty_set_returns_immediately;
          Alcotest.test_case "closest-first order" `Quick test_closest_first_order;
        ] );
      ( "immutable",
        [
          Alcotest.test_case "fails pessimistically on partition" `Quick
            test_immutable_fails_pessimistically_on_partition;
          Alcotest.test_case "blocks writers" `Quick test_immutable_blocks_writers;
          Alcotest.test_case "close early releases lock" `Quick
            test_immutable_close_early_releases_lock;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "loses mutations" `Quick test_snapshot_loses_mutations;
          Alcotest.test_case "same query twice differs (§1)" `Quick test_same_query_twice_differs;
          Alcotest.test_case "concurrent queries differ (§1)" `Quick
            test_concurrent_queries_differ;
        ] );
      ( "grow-only",
        [
          Alcotest.test_case "sees additions" `Quick test_grow_only_sees_additions;
          Alcotest.test_case "ghosts defer removal" `Quick test_grow_only_ghosts_defer_removal;
          Alcotest.test_case "fails on partition" `Quick test_grow_only_fails_on_partition;
          Alcotest.test_case "close early collects ghosts" `Quick
            test_grow_only_close_early_collects_ghosts;
          Alcotest.test_case "two concurrent iterators" `Quick
            test_two_concurrent_grow_only_iterators;
        ] );
      ( "optimistic",
        [
          Alcotest.test_case "sees grow and shrink" `Quick test_optimistic_sees_grow_and_shrink;
          Alcotest.test_case "blocks then resumes after heal" `Quick
            test_optimistic_blocks_then_resumes_after_heal;
          Alcotest.test_case "never terminates under permanent partition" `Quick
            test_optimistic_never_terminates_under_permanent_partition;
          Alcotest.test_case "stale replica yields removed element" `Quick
            test_optimistic_stale_replica_yields_removed_element;
        ] );
      ( "procedures",
        [
          Alcotest.test_case "add/remove/size" `Quick test_procedures_roundtrip;
          Alcotest.test_case "mem" `Quick test_mem;
          Alcotest.test_case "provision" `Quick test_provision_creates_collection;
          Alcotest.test_case "whole-scenario determinism" `Quick test_whole_scenario_determinism;
        ] );
      ( "iterator",
        [
          Alcotest.test_case "done is sticky" `Quick test_iterator_done_is_sticky;
          Alcotest.test_case "drain limit" `Quick test_iterator_drain_limit;
          Alcotest.test_case "instrument requires coordinator" `Quick
            test_instrument_requires_coordinator_server;
        ] );
      ("scale", [ Alcotest.test_case "many collections" `Quick test_many_collections_scale ]);
      ( "design-space",
        [
          Alcotest.test_case "semantics→spec mapping" `Quick test_semantics_spec_mapping;
          Alcotest.test_case "gmw classification" `Quick test_gmw_classification;
        ] );
      ( "properties",
        qcheck
          [
            prop_optimistic_random_schedules;
            prop_grow_only_random_schedules;
            prop_optimistic_never_fails_under_random_faults;
            prop_immutable_conforms_under_random_faults;
            prop_grow_only_conforms_under_faults_and_mutation;
          ] );
      ("pool", qcheck [ prop_pool_pick_matches_reference ]);
    ]
