(* Tests for weakset_repl: leader election and steady state, quorum
   commit and convergence, client failover after a leader crash, quorum
   loss, state transfer for a recovering member, the oracle's
   commit-safety and view-change-liveness verdicts, and the scenario
   table's validity and determinism. *)

open Weakset_sim
open Weakset_net
open Weakset_store
module Group = Weakset_repl.Group
module Scenario = Weakset_vopr.Scenario
module Oracle = Weakset_vopr.Oracle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let set_id = 1
let mkoid ?(home = 0) num = Oid.make ~num ~home:(Nodeid.of_int home)

type cluster = {
  eng : Engine.t;
  topo : Topology.t;
  fault : Fault.t;
  nodes : Nodeid.t array;  (* n replicas, then the client node *)
  servers : Node_server.t array;
  groups : Group.t array;
  ledger : Group.Ledger.t;
  client : Client.t;
  sref : Protocol.set_ref;
}

let cluster ?(n = 3) ?(policy = Node_server.Immediate) ~until () =
  (* The scenario layout: the extra node runs the client, with no store
     server, and every replica hosts the directory. *)
  let w =
    Sim_world.create ~serve_client:false ~policy (Engine.create ~seed:42L ()) ~nodes:(n + 1)
      ~latency:0.5 ()
  in
  let { Sim_world.eng; topo; fault; nodes; servers; rpc; client; _ } = w in
  Array.iteri (fun i s -> if i > 0 then Node_server.host_directory s ~set_id ~policy) servers;
  let members = Array.to_list (Array.sub nodes 0 n) in
  let ledger = Group.Ledger.create () in
  let groups =
    Array.init n (fun i ->
        Group.create rpc ~set_id ~members ~me:nodes.(i) ~ledger ~server:servers.(i))
  in
  Array.iter (fun g -> Group.start g ~until) groups;
  let sref = { w.Sim_world.sref with Protocol.replicas = List.tl members } in
  { eng; topo; fault; nodes; servers; groups; ledger; client; sref }

(* ------------------------------------------------------------------ *)
(* Election and steady state                                          *)
(* ------------------------------------------------------------------ *)

let test_steady_state_stays_in_view_zero () =
  let c = cluster ~until:100.0 () in
  Engine.run_and_check c.eng;
  Array.iter
    (fun g ->
      check_int "view 0" 0 (Group.view g);
      check_bool "normal" true (Group.status g = Group.Normal))
    c.groups;
  check_bool "member 0 leads view 0" true (Group.is_leader c.groups.(0));
  check_bool "stable" true (Group.stable (Array.to_list c.groups))

let test_submit_commits_and_converges () =
  let c = cluster ~until:120.0 () in
  let acked = ref 0 in
  Engine.spawn c.eng ~name:"writer" (fun () ->
      Engine.sleep c.eng 5.0;
      for k = 1 to 5 do
        match Client.dir_add c.client c.sref (mkoid k) with
        | Ok () -> incr acked
        | Error e -> Alcotest.failf "add %d failed: %s" k (Client.error_to_string e)
      done);
  Engine.run_and_check c.eng;
  check_int "all acked" 5 !acked;
  check_int "ledger holds every commit" 5 (List.length (Group.Ledger.entries c.ledger));
  let log0 = Group.committed_log c.groups.(0) in
  Array.iter
    (fun g ->
      check_int "commit point converged" 5 (Version.to_int (Group.commit g));
      check_bool "logs identical" true (Group.committed_log g = log0))
    c.groups;
  Array.iter
    (fun s ->
      check_int "directory converged" 5 (Directory.size (Node_server.directory_truth s ~set_id)))
    c.servers

(* ------------------------------------------------------------------ *)
(* Failover                                                           *)
(* ------------------------------------------------------------------ *)

(* The acceptance bar for the whole subsystem: with a group of three
   (f = 1), a leader crash must not surface as Unreachable to clients —
   the coordinator-following client finds the new leader. *)
let test_leader_crash_failover_add_succeeds () =
  let c = cluster ~until:200.0 () in
  let result = ref None in
  Engine.spawn c.eng ~name:"writer" (fun () ->
      Engine.sleep c.eng 5.0;
      (match Client.dir_add c.client c.sref (mkoid 1) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "pre-crash add failed: %s" (Client.error_to_string e));
      Engine.sleep c.eng 5.0;
      Fault.crash_node c.fault c.nodes.(0);
      (* Give the backups one suspicion window to elect. *)
      Engine.sleep c.eng 30.0;
      result := Some (Client.dir_add c.client c.sref (mkoid 2)));
  Engine.run_and_check c.eng;
  (match !result with
  | Some (Ok ()) -> ()
  | Some (Error e) ->
      Alcotest.failf "add after leader crash failed: %s" (Client.error_to_string e)
  | None -> Alcotest.fail "writer never ran");
  (* The two survivors elected past view 0 and both hold the commit. *)
  check_bool "moved past view 0" true (Group.view c.groups.(1) > 0);
  check_bool "survivors stable" true (Group.stable [ c.groups.(1); c.groups.(2) ]);
  List.iter
    (fun i ->
      check_int "survivor has both commits" 2
        (Directory.size (Node_server.directory_truth c.servers.(i) ~set_id)))
    [ 1; 2 ]

let test_backup_redirects_to_leader () =
  let c = cluster ~until:60.0 () in
  let answer = ref None in
  Engine.spawn c.eng ~name:"probe" (fun () ->
      Engine.sleep c.eng 5.0;
      answer := Some (Group.submit c.groups.(1) (Directory.Add (mkoid 1))));
  Engine.run_and_check c.eng;
  match !answer with
  | Some (Protocol.Not_leader { view = 0; leader }) ->
      check_int "hint names member 0" (Nodeid.to_int c.nodes.(0)) leader
  | Some r -> Alcotest.failf "expected Not_leader, got %s" (Format.asprintf "%a" Protocol.pp_response r)
  | None -> Alcotest.fail "probe never ran"

let test_quorum_loss_mutation_fails () =
  let c = cluster ~until:150.0 () in
  let result = ref None in
  Engine.spawn c.eng ~name:"writer" (fun () ->
      Engine.sleep c.eng 5.0;
      Fault.crash_node c.fault c.nodes.(1);
      Fault.crash_node c.fault c.nodes.(2);
      Engine.sleep c.eng 5.0;
      result := Some (Client.dir_add c.client c.sref (mkoid 1)));
  Engine.run_and_check c.eng;
  (match !result with
  | Some (Error _) -> ()
  | Some (Ok ()) -> Alcotest.fail "add committed without a quorum"
  | None -> Alcotest.fail "writer never ran");
  check_int "nothing entered the ledger" 0 (List.length (Group.Ledger.entries c.ledger));
  check_int "nothing committed" 0
    (Directory.size (Node_server.directory_truth c.servers.(0) ~set_id))

let test_state_transfer_catches_up_rejoiner () =
  let c = cluster ~until:250.0 () in
  Fault.stop_node c.fault ~at:5.0 ~recover_at:120.0 c.nodes.(2);
  Engine.spawn c.eng ~name:"writer" (fun () ->
      Engine.sleep c.eng 10.0;
      for k = 1 to 8 do
        (match Client.dir_add c.client c.sref (mkoid k) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "add %d failed: %s" k (Client.error_to_string e));
        Engine.sleep c.eng 2.0
      done);
  Engine.run_and_check c.eng;
  (* The rejoiner was down for every commit; only a state transfer can
     have given it the full log. *)
  check_int "rejoiner caught up" 8 (Version.to_int (Group.commit c.groups.(2)));
  check_bool "logs identical" true
    (Group.committed_log c.groups.(2) = Group.committed_log c.groups.(0))

(* ------------------------------------------------------------------ *)
(* Stale-suffix adoption                                              *)
(* ------------------------------------------------------------------ *)

(* A member holding an uncommitted suffix from an old view must never
   become Normal in a newer view — and in particular must never commit
   that suffix there — without a state transfer: the new view may have
   committed a different op at the same opnum.  These tests drive the
   protocol entry points by hand ([until:0.0] keeps the background
   fibers out of the way). *)

let v = Version.of_int

(* Member 2 accepts (1, add a) committed and (2, add x) uncommitted,
   all in view 0. *)
let seed_stale_suffix c a x =
  let g2 = c.groups.(2) in
  (match
     Group.handle g2
       (Protocol.Prepare { group = set_id; view = 0; opnum = v 1; op = Add a; commit = v 0 })
   with
  | Protocol.Repl_ok _ -> ()
  | r -> Alcotest.failf "prepare 1: %s" (Format.asprintf "%a" Protocol.pp_response r));
  match
    Group.handle g2
      (Protocol.Prepare { group = set_id; view = 0; opnum = v 2; op = Add x; commit = v 1 })
  with
  | Protocol.Repl_ok _ -> ()
  | r -> Alcotest.failf "prepare 2: %s" (Format.asprintf "%a" Protocol.pp_response r)

let test_stale_suffix_rejected_without_transfer () =
  let c = cluster ~until:0.0 () in
  let a = mkoid 1 and x = mkoid 2 in
  Engine.spawn c.eng ~name:"driver" (fun () ->
      Engine.sleep c.eng 1.0;
      seed_stale_suffix c a x;
      let g2 = c.groups.(2) in
      (* A higher-view Commit arrives.  The view-1 leader (member 1) is
         still in view 0, so the transfer finds nothing fresh enough:
         the stale suffix must not be committed and no Normal-in-view-1
         claim may be recorded. *)
      (match Group.handle g2 (Protocol.Commit { group = set_id; view = 1; commit = v 2 }) with
      | Protocol.Repl_reject { view = 0 } -> ()
      | r -> Alcotest.failf "behind responder: %s" (Format.asprintf "%a" Protocol.pp_response r));
      (* Same with the view-1 leader unreachable outright. *)
      Fault.crash_node c.fault c.nodes.(1);
      (match Group.handle g2 (Protocol.Commit { group = set_id; view = 1; commit = v 2 }) with
      | Protocol.Repl_reject { view = 0 } -> ()
      | r -> Alcotest.failf "unreachable leader: %s" (Format.asprintf "%a" Protocol.pp_response r));
      check_int "still in view 0" 0 (Group.view g2);
      check_int "commit unchanged" 1 (Version.to_int (Group.commit g2));
      check_int "stale suffix retained, not applied" 1 (Group.suffix_length g2);
      check_bool "stale op never committed" true
        (Group.committed_log g2 = [ (1, Group.op_str (Add a)) ]));
  Engine.run_and_check c.eng

let test_stale_suffix_replaced_by_state_transfer () =
  let c = cluster ~until:0.0 () in
  let a = mkoid 1 and x = mkoid 2 and y = mkoid 3 in
  Engine.spawn c.eng ~name:"driver" (fun () ->
      Engine.sleep c.eng 1.0;
      seed_stale_suffix c a x;
      (* View 1 elected elsewhere and committed (2, add y) — a different
         op at the stale suffix's opnum.  Its leader, member 1, is
         Normal in view 1 with the full log. *)
      let g1 = c.groups.(1) and g2 = c.groups.(2) in
      (match
         Group.handle g1
           (Protocol.Start_view
              {
                group = set_id;
                view = 1;
                opnum = v 2;
                commit = v 2;
                log = [ (v 1, Directory.Add a); (v 2, Directory.Add y) ];
              })
       with
      | Protocol.Repl_ok _ -> ()
      | r -> Alcotest.failf "start_view: %s" (Format.asprintf "%a" Protocol.pp_response r));
      (* Now the higher-view Commit succeeds — via state transfer, which
         replaces the divergent suffix instead of committing it. *)
      (match Group.handle g2 (Protocol.Commit { group = set_id; view = 1; commit = v 2 }) with
      | Protocol.Repl_ok { view = 1; _ } -> ()
      | r -> Alcotest.failf "commit in view 1: %s" (Format.asprintf "%a" Protocol.pp_response r));
      check_int "adopted view 1" 1 (Group.view g2);
      check_bool "normal" true (Group.status g2 = Group.Normal);
      check_int "commit advanced" 2 (Version.to_int (Group.commit g2));
      check_int "divergent suffix dropped" 0 (Group.suffix_length g2);
      check_bool "log matches the new view's leader" true
        (Group.committed_log g2 = Group.committed_log g1);
      check_bool "committed y, not the stale x" true
        (List.mem (2, Group.op_str (Add y)) (Group.committed_log g2)));
  Engine.run_and_check c.eng

(* ------------------------------------------------------------------ *)
(* Ghost deferral under consensus                                     *)
(* ------------------------------------------------------------------ *)

(* With the ghost policy on a replicated directory, a remove deferred by
   open iterators is only acknowledged once it actually quorum-commits
   at last iterator close — never at deferral time. *)
let test_deferred_remove_commits_at_iter_close () =
  let c = cluster ~policy:Node_server.Defer_removes_while_iterating ~until:150.0 () in
  let a = mkoid 1 in
  let remove_result = ref None in
  Engine.spawn c.eng ~name:"driver" (fun () ->
      Engine.sleep c.eng 5.0;
      (match Client.dir_add c.client c.sref a with
      | Ok () -> ()
      | Error e -> Alcotest.failf "add failed: %s" (Client.error_to_string e));
      (match Client.iter_open c.client c.sref with
      | Ok () -> ()
      | Error e -> Alcotest.failf "iter_open failed: %s" (Client.error_to_string e));
      Engine.spawn c.eng ~name:"remover" (fun () ->
          remove_result := Some (Client.dir_remove c.client c.sref a));
      Engine.sleep c.eng 10.0;
      check_bool "remove parked while iterating" true (!remove_result = None);
      check_bool "ghost still a member" true
        (Directory.mem (Node_server.directory_truth c.servers.(0) ~set_id) a);
      (match Client.iter_close c.client c.sref with
      | Ok () -> ()
      | Error e -> Alcotest.failf "iter_close failed: %s" (Client.error_to_string e)));
  Engine.run_and_check c.eng;
  (match !remove_result with
  | Some (Ok ()) -> ()
  | Some (Error e) -> Alcotest.failf "deferred remove failed: %s" (Client.error_to_string e)
  | None -> Alcotest.fail "deferred remove never answered");
  let remove_str = Group.op_str (Directory.Remove a) in
  check_bool "remove in the commit ledger" true
    (List.exists
       (fun (e : Group.Ledger.entry) -> e.l_op = remove_str)
       (Group.Ledger.entries c.ledger));
  Array.iter
    (fun s ->
      check_bool "removed everywhere" false
        (Directory.mem (Node_server.directory_truth s ~set_id) a))
    c.servers

(* If the quorum is gone by the time the iterators close, the parked
   remove must surface as a failure — not a silent Ack of an op that
   never committed. *)
let test_deferred_remove_no_false_ack_without_quorum () =
  let c = cluster ~policy:Node_server.Defer_removes_while_iterating ~until:200.0 () in
  let a = mkoid 1 in
  let remove_result = ref None in
  Engine.spawn c.eng ~name:"driver" (fun () ->
      Engine.sleep c.eng 5.0;
      (match Client.dir_add c.client c.sref a with
      | Ok () -> ()
      | Error e -> Alcotest.failf "add failed: %s" (Client.error_to_string e));
      (match Client.iter_open c.client c.sref with
      | Ok () -> ()
      | Error e -> Alcotest.failf "iter_open failed: %s" (Client.error_to_string e));
      Engine.spawn c.eng ~name:"remover" (fun () ->
          (* Raw RPC: what exactly does the coordinator answer? *)
          remove_result :=
            Some
              (Rpc.call (Client.rpc c.client) ~src:c.nodes.(3) ~dst:c.nodes.(0) ~timeout:60.0
                 (Protocol.Dir_remove { set_id; oid = a })));
      Engine.sleep c.eng 1.0;
      Fault.crash_node c.fault c.nodes.(1);
      Fault.crash_node c.fault c.nodes.(2);
      Engine.sleep c.eng 1.0;
      match Client.iter_close c.client c.sref with
      | Ok () -> ()
      | Error e -> Alcotest.failf "iter_close failed: %s" (Client.error_to_string e));
  Engine.run_and_check c.eng;
  (match !remove_result with
  | Some (Ok Protocol.Ack) -> Alcotest.fail "remove acked without a quorum commit"
  | Some _ -> ()
  | None -> Alcotest.fail "remover never answered");
  check_bool "oid still a member on the coordinator" true
    (Directory.mem (Node_server.directory_truth c.servers.(0) ~set_id) a);
  let remove_str = Group.op_str (Directory.Remove a) in
  check_bool "no remove in the commit ledger" false
    (List.exists
       (fun (e : Group.Ledger.entry) -> e.l_op = remove_str)
       (Group.Ledger.entries c.ledger))

(* ------------------------------------------------------------------ *)
(* Oracle verdicts                                                    *)
(* ------------------------------------------------------------------ *)

let judge_repl evidence =
  Oracle.judge
    {
      Oracle.iterations = [];
      engine_crashes = [];
      parked_fibers = [];
      steps = 0;
      step_cap = 1000;
      unmatched_rpcs = 0;
      cache = None;
      repl = Some evidence;
    }

let categories issues = List.map Oracle.category issues

let test_oracle_commit_lost () =
  let issues =
    judge_repl
      {
        Oracle.r_ledger = [ (1, "add a"); (2, "add b") ];
        r_final_logs = [ (0, [ (1, "add a"); (2, "add b") ]); (1, [ (1, "add a") ]) ];
        r_probes = [];
        r_dir_vs_log = [];
      }
  in
  check_bool "commit-lost raised" true (List.mem "commit-lost" (categories issues))

let test_oracle_commit_reordered () =
  let issues =
    judge_repl
      {
        Oracle.r_ledger = [ (1, "add a"); (2, "add b") ];
        r_final_logs = [ (0, [ (1, "add a"); (2, "add c") ]) ];
        r_probes = [];
        r_dir_vs_log = [];
      }
  in
  check_bool "commit-reordered raised" true (List.mem "commit-reordered" (categories issues))

let test_oracle_election_overdue () =
  let issues =
    judge_repl
      {
        Oracle.r_ledger = [];
        r_final_logs = [];
        r_probes = [ (50.0, true); (80.0, false) ];
        r_dir_vs_log = [];
      }
  in
  check_bool "election-overdue raised" true (List.mem "election-overdue" (categories issues))

let test_oracle_clean_evidence_passes () =
  let issues =
    judge_repl
      {
        Oracle.r_ledger = [ (1, "add a") ];
        r_final_logs = [ (0, [ (1, "add a") ]); (1, [ (1, "add a") ]) ];
        r_probes = [ (50.0, true) ];
        r_dir_vs_log = [ (0, [ "o1" ], [ "o1" ]) ];
      }
  in
  check_int "no issues" 0 (List.length issues)

(* ------------------------------------------------------------------ *)
(* Scenario table                                                     *)
(* ------------------------------------------------------------------ *)

let test_scenario_table_is_valid () =
  check_bool "at least a dozen rows" true (List.length Scenario.table >= 12);
  List.iter Scenario.validate Scenario.table;
  let names = List.map (fun (s : Scenario.t) -> s.name) Scenario.table in
  check_int "names unique" (List.length names) (List.length (List.sort_uniq compare names))

let run_row name =
  match Scenario.find name with
  | Some row -> Scenario.run row
  | None -> Alcotest.failf "scenario %s missing from the table" name

let test_scenario_leader_crash_passes_deterministically () =
  let o = run_row "leader-crash-failover" in
  check_bool "deterministic" true o.Scenario.o_deterministic;
  check_int "no issues" 0 (List.length o.o_issues);
  check_bool "committed traffic" true (o.o_committed > 0)

let test_scenario_quorum_loss_passes () =
  let o = run_row "quorum-loss-recovery" in
  check_bool "deterministic" true o.Scenario.o_deterministic;
  check_int "no issues" 0 (List.length o.o_issues);
  check_bool "some ops failed during the outage" true (o.o_ops_failed > 0)

let test_planted_commit_bug_is_caught () =
  match Scenario.find "double-failover" with
  | None -> Alcotest.fail "double-failover missing from the table"
  | Some row ->
      let o =
        Scenario.run ~planted:{ Weakset_obs.Planted.none with view_change_drop = true } row
      in
      let cats = categories o.Scenario.o_issues in
      check_bool "commit-safety verdict fired" true
        (List.mem "commit-lost" cats || List.mem "commit-reordered" cats)

let () =
  Alcotest.run "weakset_repl"
    [
      ( "group",
        [
          Alcotest.test_case "steady state" `Quick test_steady_state_stays_in_view_zero;
          Alcotest.test_case "commit and converge" `Quick test_submit_commits_and_converges;
          Alcotest.test_case "leader crash failover" `Quick
            test_leader_crash_failover_add_succeeds;
          Alcotest.test_case "backup redirects" `Quick test_backup_redirects_to_leader;
          Alcotest.test_case "quorum loss fails" `Quick test_quorum_loss_mutation_fails;
          Alcotest.test_case "state transfer" `Quick test_state_transfer_catches_up_rejoiner;
          Alcotest.test_case "stale suffix rejected" `Quick
            test_stale_suffix_rejected_without_transfer;
          Alcotest.test_case "stale suffix replaced by transfer" `Quick
            test_stale_suffix_replaced_by_state_transfer;
        ] );
      ( "ghost-deferral",
        [
          Alcotest.test_case "deferred remove commits at iter close" `Quick
            test_deferred_remove_commits_at_iter_close;
          Alcotest.test_case "no false ack without quorum" `Quick
            test_deferred_remove_no_false_ack_without_quorum;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "commit lost" `Quick test_oracle_commit_lost;
          Alcotest.test_case "commit reordered" `Quick test_oracle_commit_reordered;
          Alcotest.test_case "election overdue" `Quick test_oracle_election_overdue;
          Alcotest.test_case "clean evidence" `Quick test_oracle_clean_evidence_passes;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "table valid" `Quick test_scenario_table_is_valid;
          Alcotest.test_case "leader crash deterministic" `Quick
            test_scenario_leader_crash_passes_deterministically;
          Alcotest.test_case "quorum loss recovery" `Quick test_scenario_quorum_loss_passes;
          Alcotest.test_case "planted bug caught" `Quick test_planted_commit_bug_is_caught;
        ] );
    ]
