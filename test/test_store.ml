(* Tests for weakset_store: directory versioning and history reconstruction,
   the FIFO read/write lock manager, the node server's three roles (objects,
   directory coordinator with ghost copies, stale replicas with
   anti-entropy), client operations and quorum reads under partitions. *)

open Weakset_sim
open Weakset_net
open Weakset_store

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let oid_testable = Alcotest.testable Oid.pp Oid.equal

let mkoid ?(home = 0) num = Oid.make ~num ~home:(Nodeid.of_int home)

(* ------------------------------------------------------------------ *)
(* Directory                                                          *)
(* ------------------------------------------------------------------ *)

let test_directory_add_remove () =
  let d = Directory.create () in
  let a = mkoid 1 and b = mkoid 2 in
  check_int "empty" 0 (Directory.size d);
  let v1 = Directory.apply d (Directory.Add a) in
  let v2 = Directory.apply d (Directory.Add b) in
  check_bool "versions grow" true (Version.( < ) v1 v2);
  check_int "two members" 2 (Directory.size d);
  check_bool "mem a" true (Directory.mem d a);
  let (_ : Version.t) = Directory.apply d (Directory.Remove a) in
  check_bool "a removed" false (Directory.mem d a);
  check_int "one member" 1 (Directory.size d)

let test_directory_idempotent_ops () =
  let d = Directory.create () in
  let a = mkoid 1 in
  let v1 = Directory.apply d (Directory.Add a) in
  let v2 = Directory.apply d (Directory.Add a) in
  check_bool "duplicate add does not bump version" true (Version.equal v1 v2);
  let v3 = Directory.apply d (Directory.Remove (mkoid 9)) in
  check_bool "removing absent does not bump" true (Version.equal v2 v3)

let test_directory_ops_since () =
  let d = Directory.create () in
  let a = mkoid 1 and b = mkoid 2 and c = mkoid 3 in
  let v0 = Directory.version d in
  ignore (Directory.apply d (Directory.Add a));
  let v1 = Directory.version d in
  ignore (Directory.apply d (Directory.Add b));
  ignore (Directory.apply d (Directory.Remove a));
  ignore (Directory.apply d (Directory.Add c));
  check_int "all ops since v0" 4 (List.length (Directory.ops_since d v0));
  check_int "ops since v1" 3 (List.length (Directory.ops_since d v1));
  check_int "none since now" 0 (List.length (Directory.ops_since d (Directory.version d)));
  (* Deltas arrive oldest first. *)
  (match Directory.ops_since d v0 with
  | (_, Directory.Add first) :: _ -> Alcotest.check oid_testable "oldest first" a first
  | _ -> Alcotest.fail "unexpected delta shape")

let test_directory_members_at () =
  let d = Directory.create () in
  let a = mkoid 1 and b = mkoid 2 in
  ignore (Directory.apply d (Directory.Add a));
  let v_mid = Directory.version d in
  ignore (Directory.apply d (Directory.Add b));
  ignore (Directory.apply d (Directory.Remove a));
  let past = Directory.members_at d v_mid in
  check_bool "a at v_mid" true (Oid.Set.mem a past);
  check_bool "b not at v_mid" false (Oid.Set.mem b past);
  let now = Directory.members_at d (Directory.version d) in
  check_bool "now = members" true (Oid.Set.equal now (Directory.members d));
  let start = Directory.members_at d Version.zero in
  check_bool "empty at v0" true (Oid.Set.is_empty start)

let test_directory_history_boundaries () =
  let d = Directory.create () in
  (* Fresh directory: both history reads are total at the boundaries. *)
  check_int "no ops since zero on fresh" 0 (List.length (Directory.ops_since d Version.zero));
  check_bool "empty members at zero" true (Oid.Set.is_empty (Directory.members_at d Version.zero));
  ignore (Directory.apply d (Directory.Add (mkoid 1)));
  ignore (Directory.apply d (Directory.Add (mkoid 2)));
  (* A version beyond the head (a replica that somehow ran ahead, or a
     stale pointer from another incarnation) clamps instead of raising. *)
  let beyond = Version.of_int (Version.to_int (Directory.version d) + 5) in
  check_int "no ops since beyond-head" 0 (List.length (Directory.ops_since d beyond));
  check_bool "members_at beyond-head = members" true
    (Oid.Set.equal (Directory.members_at d beyond) (Directory.members d));
  (* Idempotent no-ops leave history untouched: a delta reader sees
     exactly the effective ops, nothing for the swallowed ones. *)
  let v = Directory.version d in
  ignore (Directory.apply d (Directory.Add (mkoid 1)));
  ignore (Directory.apply d (Directory.Remove (mkoid 9)));
  check_int "no deltas from no-ops" 0 (List.length (Directory.ops_since d v))

let prop_directory_members_at_roundtrip =
  QCheck.Test.make ~name:"members_at reconstructs any prefix" ~count:100
    QCheck.(list (pair bool (int_range 0 8)))
    (fun script ->
      let d = Directory.create () in
      (* Replay the script, recording (version, members) snapshots. *)
      let snapshots = ref [ (Directory.version d, Directory.members d) ] in
      List.iter
        (fun (is_add, n) ->
          let op = if is_add then Directory.Add (mkoid n) else Directory.Remove (mkoid n) in
          ignore (Directory.apply d op);
          snapshots := (Directory.version d, Directory.members d) :: !snapshots)
        script;
      List.for_all
        (fun (v, expected) -> Oid.Set.equal (Directory.members_at d v) expected)
        !snapshots)

(* [elements] is one shared list per membership value: idempotent no-ops
   keep it, and every effective apply replaces it with a fresh one (an
   effective apply changes the membership, so old and new cannot both be
   the empty list). *)
let test_directory_elements_shared () =
  let d = Directory.create () in
  let a = mkoid 1 and b = mkoid 2 and c = mkoid ~home:1 1 in
  let prev = ref (Directory.elements d) in
  check_bool "empty at first" true (!prev = []);
  List.iteri
    (fun i op ->
      let before = Directory.version d in
      ignore (Directory.apply d op);
      let l = Directory.elements d in
      let what = Printf.sprintf "step %d" i in
      Alcotest.(check (list oid_testable))
        (what ^ ": equals the members") (Oid.Set.elements (Directory.members d)) l;
      if Version.equal before (Directory.version d) then
        check_bool (what ^ ": no-op keeps the list") true (l == !prev)
      else check_bool (what ^ ": effective apply gives a fresh list") true (l != !prev);
      check_bool (what ^ ": a re-read shares it") true (Directory.elements d == l);
      check_bool (what ^ ": elements_at the head shares it") true
        (Directory.elements_at d (Directory.version d) == l);
      prev := l)
    Directory.
      [
        Add a; Add b; Add a; Remove (mkoid 9); Add c; Remove a; Remove a; Remove b; Remove c;
        Remove c; Add b;
      ]

let prop_directory_elements_at_matches_members_at =
  QCheck.Test.make ~name:"elements_at equals members_at below, at and beyond the head"
    ~count:200
    QCheck.(list_of_size Gen.(0 -- 60) (pair (int_bound 2) (int_range 0 8)))
    (fun script ->
      let d = Directory.create () in
      List.for_all
        (fun (kind, n) ->
          match kind with
          | 0 ->
              ignore (Directory.apply d (Directory.Add (mkoid n)));
              true
          | 1 ->
              ignore (Directory.apply d (Directory.Remove (mkoid n)));
              true
          | _ ->
              (* [n] spans versions below the head, the head, and past it. *)
              let v = Version.of_int (n mod (Version.to_int (Directory.version d) + 3)) in
              let l = Directory.elements_at d v in
              l = Oid.Set.elements (Directory.members_at d v)
              && (Version.( < ) v (Directory.version d) || l == Directory.elements d))
        script)

(* ------------------------------------------------------------------ *)
(* Lockmgr                                                            *)
(* ------------------------------------------------------------------ *)

let test_lock_readers_share () =
  let eng = Engine.create () in
  let lock = Lockmgr.create eng in
  let active = ref 0 and peak = ref 0 in
  for i = 1 to 3 do
    Engine.spawn eng (fun () ->
        Lockmgr.acquire lock Lockmgr.Read ~owner:i;
        incr active;
        if !active > !peak then peak := !active;
        Engine.sleep eng 5.0;
        decr active;
        Lockmgr.release lock ~owner:i)
  done;
  Engine.run_and_check eng;
  check_int "readers overlapped" 3 !peak

let test_lock_writer_excludes () =
  let eng = Engine.create () in
  let lock = Lockmgr.create eng in
  let log = ref [] in
  Engine.spawn eng (fun () ->
      Lockmgr.acquire lock Lockmgr.Write ~owner:1;
      log := ("w1-in", Engine.now eng) :: !log;
      Engine.sleep eng 5.0;
      Lockmgr.release lock ~owner:1;
      log := ("w1-out", Engine.now eng) :: !log);
  Engine.spawn eng (fun () ->
      Engine.sleep eng 1.0;
      Lockmgr.acquire lock Lockmgr.Write ~owner:2;
      log := ("w2-in", Engine.now eng) :: !log;
      Lockmgr.release lock ~owner:2);
  Engine.run_and_check eng;
  let w2_in = List.assoc "w2-in" !log in
  check_bool "w2 waited for w1" true (w2_in >= 5.0)

let test_lock_fifo_no_writer_starvation () =
  (* reader holds; writer queues; a later reader must NOT overtake the
     waiting writer. *)
  let eng = Engine.create () in
  let lock = Lockmgr.create eng in
  let order = ref [] in
  Engine.spawn eng (fun () ->
      Lockmgr.acquire lock Lockmgr.Read ~owner:1;
      Engine.sleep eng 10.0;
      Lockmgr.release lock ~owner:1);
  Engine.spawn eng (fun () ->
      Engine.sleep eng 1.0;
      Lockmgr.acquire lock Lockmgr.Write ~owner:2;
      order := "writer" :: !order;
      Lockmgr.release lock ~owner:2);
  Engine.spawn eng (fun () ->
      Engine.sleep eng 2.0;
      Lockmgr.acquire lock Lockmgr.Read ~owner:3;
      order := "late-reader" :: !order;
      Lockmgr.release lock ~owner:3);
  Engine.run_and_check eng;
  Alcotest.(check (list string)) "writer first" [ "writer"; "late-reader" ] (List.rev !order)

let test_lock_double_acquire_rejected () =
  let eng = Engine.create () in
  let lock = Lockmgr.create eng in
  let raised = ref false in
  Engine.spawn eng (fun () ->
      Lockmgr.acquire lock Lockmgr.Read ~owner:1;
      (try Lockmgr.acquire lock Lockmgr.Read ~owner:1
       with Invalid_argument _ -> raised := true);
      Lockmgr.release lock ~owner:1);
  Engine.run_and_check eng;
  check_bool "reentrancy rejected" true !raised

let test_lock_release_unknown_ignored () =
  let eng = Engine.create () in
  let lock = Lockmgr.create eng in
  Lockmgr.release lock ~owner:99;
  check_int "no holders" 0 (List.length (Lockmgr.holders lock))

(* ------------------------------------------------------------------ *)
(* Store cluster fixture                                              *)
(* ------------------------------------------------------------------ *)

type cluster = {
  eng : Engine.t;
  topo : Topology.t;
  rpc : Node_server.rpc;
  nodes : Nodeid.t array;
  servers : Node_server.t array;
}

let make_cluster ?(n = 4) ?(latency = 1.0) () =
  let eng = Engine.create () in
  let topo = Topology.create () in
  let nodes = Topology.clique topo n ~latency in
  let rpc = Rpc.create eng topo in
  let servers = Array.map (fun node -> Node_server.create rpc node) nodes in
  { eng; topo; rpc; nodes; servers }

(* Run [body] as a fiber after setup and return its result. *)
let in_fiber cl body =
  let result = ref None in
  Engine.spawn cl.eng (fun () -> result := Some (body ()));
  Engine.run_and_check cl.eng;
  match !result with Some r -> r | None -> Alcotest.fail "fiber did not finish"

let test_fetch_roundtrip () =
  let cl = make_cluster () in
  let oid = Oid.make ~num:1 ~home:cl.nodes.(1) in
  Node_server.put_object cl.servers.(1) oid (Svalue.make "menu: dumplings");
  let client = Client.create cl.rpc cl.nodes.(0) in
  let v = in_fiber cl (fun () -> Client.fetch client oid) in
  match v with
  | Ok sv -> Alcotest.(check string) "content" "menu: dumplings" (Svalue.content sv)
  | Error e -> Alcotest.failf "fetch failed: %s" (Client.error_to_string e)

let test_fetch_missing_object () =
  let cl = make_cluster () in
  let client = Client.create cl.rpc cl.nodes.(0) in
  let oid = Oid.make ~num:42 ~home:cl.nodes.(1) in
  match in_fiber cl (fun () -> Client.fetch client oid) with
  | Error Client.No_such_object -> ()
  | Ok _ -> Alcotest.fail "expected No_such_object"
  | Error e -> Alcotest.failf "wrong error: %s" (Client.error_to_string e)

let test_fetch_unreachable_home () =
  let cl = make_cluster () in
  let oid = Oid.make ~num:1 ~home:cl.nodes.(1) in
  Node_server.put_object cl.servers.(1) oid (Svalue.make "x");
  Topology.set_node_up cl.topo cl.nodes.(1) false;
  let client = Client.create cl.rpc cl.nodes.(0) in
  match in_fiber cl (fun () -> Client.fetch client oid) with
  | Error Client.Unreachable -> ()
  | Ok _ -> Alcotest.fail "expected Unreachable"
  | Error e -> Alcotest.failf "wrong error: %s" (Client.error_to_string e)

let test_fetch_put_on_wrong_home_rejected () =
  let cl = make_cluster () in
  let oid = Oid.make ~num:1 ~home:cl.nodes.(1) in
  Alcotest.check_raises "wrong home"
    (Invalid_argument "Node_server.put_object: oid homed elsewhere") (fun () ->
      Node_server.put_object cl.servers.(0) oid (Svalue.make "x"))

let sref cl = { Protocol.set_id = 7; coordinator = cl.nodes.(0); replicas = [] }

let test_dir_ops_via_rpc () =
  let cl = make_cluster () in
  Node_server.host_directory cl.servers.(0) ~set_id:7 ~policy:Node_server.Immediate;
  let client = Client.create cl.rpc cl.nodes.(2) in
  let sref = sref cl in
  let a = Oid.make ~num:1 ~home:cl.nodes.(1) in
  let b = Oid.make ~num:2 ~home:cl.nodes.(3) in
  let size =
    in_fiber cl (fun () ->
        (match Client.dir_add client sref a with Ok () -> () | Error _ -> Alcotest.fail "add a");
        (match Client.dir_add client sref b with Ok () -> () | Error _ -> Alcotest.fail "add b");
        (match Client.dir_remove client sref a with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "remove a");
        match Client.dir_size client sref with Ok n -> n | Error _ -> -1)
  in
  check_int "size after add,add,remove" 1 size;
  let truth = Node_server.directory_truth cl.servers.(0) ~set_id:7 in
  check_bool "b is the member" true (Directory.mem truth b)

let test_dir_read_from_coordinator () =
  let cl = make_cluster () in
  Node_server.host_directory cl.servers.(0) ~set_id:7 ~policy:Node_server.Immediate;
  let client = Client.create cl.rpc cl.nodes.(2) in
  let sref = sref cl in
  let a = Oid.make ~num:1 ~home:cl.nodes.(1) in
  let members =
    in_fiber cl (fun () ->
        (match Client.dir_add client sref a with Ok () -> () | Error _ -> ());
        match Client.dir_read client ~from:sref.Protocol.coordinator ~set_id:7 with
        | Ok (_, m) -> m
        | Error _ -> [])
  in
  Alcotest.(check (list oid_testable)) "one member" [ a ] members

(* A Dir_read_at reply names the version whose membership it carries:
   below the head the requested one, beyond it the head (the read is
   clamped there, and no later version exists yet). *)
let test_dir_read_at_reply_version () =
  let cl = make_cluster () in
  Node_server.host_directory cl.servers.(0) ~set_id:7 ~policy:Node_server.Immediate;
  let client = Client.create cl.rpc cl.nodes.(2) in
  let sref = sref cl in
  let a = Oid.make ~num:1 ~home:cl.nodes.(1) in
  let b = Oid.make ~num:2 ~home:cl.nodes.(3) in
  let read v =
    match Client.dir_read_at client ~from:sref.Protocol.coordinator ~set_id:7 ~version:v with
    | Ok (version, members) -> (Version.to_int version, members)
    | Error e -> Alcotest.failf "dir_read_at failed: %s" (Client.error_to_string e)
  in
  let below, at, beyond =
    in_fiber cl (fun () ->
        ignore (Client.dir_add client sref a);
        ignore (Client.dir_add client sref b);
        (read (Version.of_int 1), read (Version.of_int 2), read (Version.of_int 9)))
  in
  let check_reply what (ev, em) (v, m) =
    check_int (what ^ " version") ev v;
    Alcotest.(check (list oid_testable)) (what ^ " members") em m
  in
  check_reply "below the head" (1, [ a ]) below;
  check_reply "at the head" (2, [ a; b ]) at;
  check_reply "beyond the head" (2, [ a; b ]) beyond

let test_dir_no_service () =
  let cl = make_cluster () in
  (* No directory hosted anywhere. *)
  let client = Client.create cl.rpc cl.nodes.(2) in
  match in_fiber cl (fun () -> Client.dir_read client ~from:cl.nodes.(0) ~set_id:99) with
  | Error Client.No_service -> ()
  | Ok _ -> Alcotest.fail "expected No_service"
  | Error e -> Alcotest.failf "wrong error: %s" (Client.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Ghost copies (grow-only support)                                   *)
(* ------------------------------------------------------------------ *)

let test_ghost_defers_removes_while_iterating () =
  let cl = make_cluster () in
  Node_server.host_directory cl.servers.(0) ~set_id:7
    ~policy:Node_server.Defer_removes_while_iterating;
  let client = Client.create cl.rpc cl.nodes.(2) in
  let sref = sref cl in
  let a = Oid.make ~num:1 ~home:cl.nodes.(1) in
  let b = Oid.make ~num:2 ~home:cl.nodes.(1) in
  in_fiber cl (fun () ->
      ignore (Client.dir_add client sref a);
      ignore (Client.dir_add client sref b);
      ignore (Client.iter_open client sref);
      (* Remove during iteration: deferred. *)
      ignore (Client.dir_remove client sref a);
      let truth = Node_server.directory_truth cl.servers.(0) ~set_id:7 in
      check_bool "a still member (ghost)" true (Directory.mem truth a);
      check_int "one deferred" 1 (List.length (Node_server.deferred_removes cl.servers.(0) ~set_id:7));
      ignore (Client.iter_close client sref);
      let truth = Node_server.directory_truth cl.servers.(0) ~set_id:7 in
      check_bool "ghost collected on close" false (Directory.mem truth a);
      check_bool "b survives" true (Directory.mem truth b))

let test_ghost_nested_iterators () =
  let cl = make_cluster () in
  Node_server.host_directory cl.servers.(0) ~set_id:7
    ~policy:Node_server.Defer_removes_while_iterating;
  let client = Client.create cl.rpc cl.nodes.(2) in
  let sref = sref cl in
  let a = Oid.make ~num:1 ~home:cl.nodes.(1) in
  in_fiber cl (fun () ->
      ignore (Client.dir_add client sref a);
      ignore (Client.iter_open client sref);
      ignore (Client.iter_open client sref);
      ignore (Client.dir_remove client sref a);
      ignore (Client.iter_close client sref);
      let truth = Node_server.directory_truth cl.servers.(0) ~set_id:7 in
      check_bool "still deferred under second iterator" true (Directory.mem truth a);
      ignore (Client.iter_close client sref);
      let truth = Node_server.directory_truth cl.servers.(0) ~set_id:7 in
      check_bool "applied when last closes" false (Directory.mem truth a))

let test_ghost_immediate_policy_removes_now () =
  let cl = make_cluster () in
  Node_server.host_directory cl.servers.(0) ~set_id:7 ~policy:Node_server.Immediate;
  let client = Client.create cl.rpc cl.nodes.(2) in
  let sref = sref cl in
  let a = Oid.make ~num:1 ~home:cl.nodes.(1) in
  in_fiber cl (fun () ->
      ignore (Client.dir_add client sref a);
      ignore (Client.iter_open client sref);
      ignore (Client.dir_remove client sref a);
      let truth = Node_server.directory_truth cl.servers.(0) ~set_id:7 in
      check_bool "removed immediately despite iterator" false (Directory.mem truth a);
      ignore (Client.iter_close client sref))

(* ------------------------------------------------------------------ *)
(* Replicas                                                           *)
(* ------------------------------------------------------------------ *)

let test_replica_sync_and_staleness () =
  let cl = make_cluster () in
  Node_server.host_directory cl.servers.(0) ~set_id:7 ~policy:Node_server.Immediate;
  Node_server.host_replica cl.servers.(1) ~set_id:7 ~of_:cl.nodes.(0) ~interval:10.0 ~until:100.0;
  let client = Client.create cl.rpc cl.nodes.(2) in
  let sref = sref cl in
  let a = Oid.make ~num:1 ~home:cl.nodes.(3) in
  Engine.spawn cl.eng (fun () ->
      ignore (Client.dir_add client sref a);
      (* Immediately after the add, the replica is stale. *)
      let _, stale = Node_server.replica_view cl.servers.(1) ~set_id:7 in
      check_bool "replica stale right after add" false (Oid.Set.mem a stale);
      (* After an anti-entropy interval it catches up. *)
      Engine.sleep cl.eng 15.0;
      let _, fresh = Node_server.replica_view cl.servers.(1) ~set_id:7 in
      check_bool "replica caught up" true (Oid.Set.mem a fresh));
  let (_ : int) = Engine.run ~until:200.0 cl.eng in
  (match Engine.crashes cl.eng with
  | [] -> ()
  | c :: _ -> Alcotest.failf "crash: %s" (Printexc.to_string c.Engine.crash_exn))

let test_replica_serves_stale_reads () =
  let cl = make_cluster () in
  Node_server.host_directory cl.servers.(0) ~set_id:7 ~policy:Node_server.Immediate;
  Node_server.host_replica cl.servers.(1) ~set_id:7 ~of_:cl.nodes.(0) ~interval:5.0 ~until:50.0;
  let client = Client.create cl.rpc cl.nodes.(2) in
  let sref = sref cl in
  let a = Oid.make ~num:1 ~home:cl.nodes.(3) in
  Engine.spawn cl.eng (fun () ->
      ignore (Client.dir_add client sref a);
      Engine.sleep cl.eng 8.0;
      (* Read via the replica node. *)
      match Client.dir_read client ~from:cl.nodes.(1) ~set_id:7 with
      | Ok (_, members) -> check_int "replica serves membership" 1 (List.length members)
      | Error e -> Alcotest.failf "replica read failed: %s" (Client.error_to_string e));
  let (_ : int) = Engine.run ~until:100.0 cl.eng in
  ()

(* A replica's reads share one list per view, like the directory's: a
   pull that brings nothing keeps it, and one that changes the view
   replaces it with a fresh list of the new members. *)
let test_replica_elements_shared () =
  let cl = make_cluster () in
  Node_server.host_directory cl.servers.(0) ~set_id:7 ~policy:Node_server.Immediate;
  (* No background pulls: [until] has already passed. *)
  Node_server.host_replica cl.servers.(1) ~set_id:7 ~of_:cl.nodes.(0) ~interval:1000.0 ~until:0.0;
  let truth = Node_server.directory_truth cl.servers.(0) ~set_id:7 in
  let replica = cl.servers.(1) in
  let client = Client.create cl.rpc cl.nodes.(2) in
  let a = Oid.make ~num:1 ~home:cl.nodes.(3) and b = Oid.make ~num:2 ~home:cl.nodes.(2) in
  let read () =
    match Client.dir_read_direct client ~from:cl.nodes.(1) ~set_id:7 with
    | Ok (_, members) -> members
    | Error e -> Alcotest.failf "replica read failed: %s" (Client.error_to_string e)
  in
  let step prev what ops ~changes =
    List.iter (fun op -> ignore (Directory.apply truth op)) ops;
    check_bool (what ^ ": pull succeeds") true (Node_server.replica_pull_now replica ~set_id:7);
    let l = read () in
    let _, view = Node_server.replica_view replica ~set_id:7 in
    Alcotest.(check (list oid_testable)) (what ^ ": equals the view") (Oid.Set.elements view) l;
    check_bool (what ^ ": identity") changes (l != prev);
    check_bool (what ^ ": a re-read shares it") true (read () == l);
    l
  in
  in_fiber cl (fun () ->
      let l = read () in
      let l = step l "empty pull" [] ~changes:false in
      let l = step l "add a" [ Directory.Add a ] ~changes:true in
      let l = step l "no-op" [ Directory.Add a ] ~changes:false in
      let l = step l "add b" [ Directory.Add b ] ~changes:true in
      let l = step l "remove then re-add a" [ Directory.Remove a; Directory.Add a ] ~changes:true in
      let l = step l "remove both" [ Directory.Remove a; Directory.Remove b ] ~changes:true in
      ignore (step l "nothing new" [] ~changes:false))

let test_replica_stays_stale_under_partition () =
  let cl = make_cluster () in
  Node_server.host_directory cl.servers.(0) ~set_id:7 ~policy:Node_server.Immediate;
  Node_server.host_replica cl.servers.(1) ~set_id:7 ~of_:cl.nodes.(0) ~interval:5.0 ~until:100.0;
  let client = Client.create cl.rpc cl.nodes.(2) in
  let sref = sref cl in
  let a = Oid.make ~num:1 ~home:cl.nodes.(3) in
  let b = Oid.make ~num:2 ~home:cl.nodes.(3) in
  Engine.spawn cl.eng (fun () ->
      ignore (Client.dir_add client sref a);
      Engine.sleep cl.eng 8.0;
      (* Cut the replica off, then mutate. *)
      Topology.partition cl.topo
        [ [ cl.nodes.(1) ]; [ cl.nodes.(0); cl.nodes.(2); cl.nodes.(3) ] ];
      ignore (Client.dir_add client sref b);
      Engine.sleep cl.eng 20.0;
      let _, view = Node_server.replica_view cl.servers.(1) ~set_id:7 in
      check_bool "has a" true (Oid.Set.mem a view);
      check_bool "missed b while partitioned" false (Oid.Set.mem b view);
      (* Failed pulls during the partition are visible as a metric. *)
      let stats = Netstat.snapshot (Engine.metrics cl.eng) ~instance:0 in
      check_bool "pull failures counted" true (stats.Netstat.replica_pull_failures > 0);
      (* Heal: the next pull catches up. *)
      Topology.heal_all cl.topo;
      Engine.sleep cl.eng 10.0;
      let _, view = Node_server.replica_view cl.servers.(1) ~set_id:7 in
      check_bool "caught up after heal" true (Oid.Set.mem b view));
  let (_ : int) = Engine.run ~until:300.0 cl.eng in
  (match Engine.crashes cl.eng with
  | [] -> ()
  | c :: _ -> Alcotest.failf "crash: %s" (Printexc.to_string c.Engine.crash_exn))

(* ------------------------------------------------------------------ *)
(* Quorum                                                             *)
(* ------------------------------------------------------------------ *)

let quorum_fixture () =
  let cl = make_cluster ~n:5 () in
  Node_server.host_directory cl.servers.(0) ~set_id:7 ~policy:Node_server.Immediate;
  Node_server.host_replica cl.servers.(1) ~set_id:7 ~of_:cl.nodes.(0) ~interval:5.0 ~until:500.0;
  Node_server.host_replica cl.servers.(2) ~set_id:7 ~of_:cl.nodes.(0) ~interval:5.0 ~until:500.0;
  let sref =
    { Protocol.set_id = 7; coordinator = cl.nodes.(0); replicas = [ cl.nodes.(1); cl.nodes.(2) ] }
  in
  (cl, sref)

let test_quorum_majority_math () =
  let _, sref = quorum_fixture () in
  check_int "3 hosts" 3 (List.length (Quorum.hosts sref));
  check_int "majority of 3 is 2" 2 (Quorum.majority sref)

let test_quorum_majority_even () =
  (* Strict majority on even host counts: exactly half is NOT a quorum
     (two disjoint halves could both "commit"). *)
  let sref_of n =
    {
      Protocol.set_id = 1;
      coordinator = Nodeid.of_int 0;
      replicas = List.init (n - 1) (fun i -> Nodeid.of_int (i + 1));
    }
  in
  check_int "majority of 1 is 1" 1 (Quorum.majority (sref_of 1));
  check_int "majority of 2 is 2" 2 (Quorum.majority (sref_of 2));
  check_int "majority of 4 is 3" 3 (Quorum.majority (sref_of 4));
  check_int "majority of 6 is 4" 4 (Quorum.majority (sref_of 6));
  List.iter
    (fun n ->
      let m = Quorum.majority (sref_of n) in
      check_bool "two quorums always intersect" true (m + m > n))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_quorum_read_fresh () =
  let cl, sref = quorum_fixture () in
  let client = Client.create cl.rpc cl.nodes.(3) in
  let a = Oid.make ~num:1 ~home:cl.nodes.(4) in
  Engine.spawn cl.eng (fun () ->
      ignore (Client.dir_add client sref a);
      (* Replicas are stale, but the coordinator answers with the highest
         version, which the quorum read prefers. *)
      match Quorum.read client sref with
      | Ok (_, members) -> check_int "fresh view wins" 1 (List.length members)
      | Error e -> Alcotest.failf "quorum failed: %s" (Client.error_to_string e));
  let (_ : int) = Engine.run ~until:100.0 cl.eng in
  ()

let test_quorum_survives_coordinator_loss () =
  let cl, sref = quorum_fixture () in
  let client = Client.create cl.rpc cl.nodes.(3) in
  let a = Oid.make ~num:1 ~home:cl.nodes.(4) in
  Engine.spawn cl.eng (fun () ->
      ignore (Client.dir_add client sref a);
      Engine.sleep cl.eng 12.0 (* let replicas sync *);
      Topology.set_node_up cl.topo cl.nodes.(0) false;
      match Quorum.read client sref with
      | Ok (_, members) -> check_int "replicas answer" 1 (List.length members)
      | Error e -> Alcotest.failf "quorum failed: %s" (Client.error_to_string e));
  let (_ : int) = Engine.run ~until:100.0 cl.eng in
  ()

let test_quorum_fails_below_majority () =
  let cl, sref = quorum_fixture () in
  let client = Client.create (Client.rpc (Client.create cl.rpc cl.nodes.(3))) cl.nodes.(3) in
  Engine.spawn cl.eng (fun () ->
      Topology.set_node_up cl.topo cl.nodes.(0) false;
      Topology.set_node_up cl.topo cl.nodes.(1) false;
      match Quorum.read client sref with
      | Error Client.Unreachable -> ()
      | Ok _ -> Alcotest.fail "expected quorum failure"
      | Error e -> Alcotest.failf "wrong error: %s" (Client.error_to_string e));
  let (_ : int) = Engine.run ~until:100.0 cl.eng in
  ()

(* ------------------------------------------------------------------ *)
(* Client helpers                                                     *)
(* ------------------------------------------------------------------ *)

let test_reachable_oids () =
  let cl = make_cluster () in
  let client = Client.create cl.rpc cl.nodes.(0) in
  let a = Oid.make ~num:1 ~home:cl.nodes.(1) in
  let b = Oid.make ~num:2 ~home:cl.nodes.(2) in
  let all = Oid.Set.of_list [ a; b ] in
  check_int "all reachable" 2 (Oid.Set.cardinal (Client.reachable_oids client all));
  Topology.set_node_up cl.topo cl.nodes.(2) false;
  let r = Client.reachable_oids client all in
  check_int "one reachable" 1 (Oid.Set.cardinal r);
  check_bool "a is it" true (Oid.Set.mem a r)

let test_nearest_dir_host () =
  let eng = Engine.create () in
  let topo = Topology.create () in
  let client_node = Topology.add_node topo in
  let far = Topology.add_node topo in
  let near = Topology.add_node topo in
  Topology.add_link topo client_node far ~latency:10.0;
  Topology.add_link topo client_node near ~latency:1.0;
  let rpc : Node_server.rpc = Rpc.create eng topo in
  let client = Client.create rpc client_node in
  let sref = { Protocol.set_id = 1; coordinator = far; replicas = [ near ] } in
  (match Client.nearest_dir_host client sref with
  | Some h -> check_bool "nearest is replica" true (Nodeid.equal h near)
  | None -> Alcotest.fail "no host");
  Topology.set_node_up topo near false;
  (match Client.nearest_dir_host client sref with
  | Some h -> check_bool "falls back to coordinator" true (Nodeid.equal h far)
  | None -> Alcotest.fail "no host");
  Topology.set_node_up topo far false;
  check_bool "none reachable" true (Client.nearest_dir_host client sref = None)

(* Lock owners come from the engine, so two clients of one run never
   share one, and a second engine numbers its own from scratch. *)
let test_client_owner_tokens_unique () =
  let cl = make_cluster () in
  Node_server.host_directory cl.servers.(0) ~set_id:7 ~policy:Node_server.Immediate;
  let sref = sref cl in
  let owners =
    in_fiber cl (fun () ->
        List.map
          (fun i ->
            match Client.lock_acquire (Client.create cl.rpc cl.nodes.(i)) sref Lockmgr.Read with
            | Ok o -> o
            | Error e -> Alcotest.failf "acquire: %s" (Client.error_to_string e))
          [ 1; 2 ])
  in
  check_bool "unique" true (List.nth owners 0 <> List.nth owners 1);
  check_bool "drawn from the engine" true (Engine.fresh_token cl.eng = 3);
  check_int "a fresh engine starts over" 1 (Engine.fresh_token (Engine.create ()))

let test_lock_rpc_roundtrip () =
  let cl = make_cluster () in
  Node_server.host_directory cl.servers.(0) ~set_id:7 ~policy:Node_server.Immediate;
  let client = Client.create cl.rpc cl.nodes.(1) in
  let sref = sref cl in
  in_fiber cl (fun () ->
      match Client.lock_acquire client sref Lockmgr.Read with
      | Ok owner ->
          let lock = Node_server.lock_of cl.servers.(0) ~set_id:7 in
          check_int "one holder" 1 (List.length (Lockmgr.holders lock));
          (match Client.lock_release client sref ~owner with
          | Ok () -> check_int "released" 0 (List.length (Lockmgr.holders lock))
          | Error e -> Alcotest.failf "release: %s" (Client.error_to_string e))
      | Error e -> Alcotest.failf "acquire: %s" (Client.error_to_string e))

let test_lock_rpc_writer_blocks_remote_reader () =
  let cl = make_cluster () in
  Node_server.host_directory cl.servers.(0) ~set_id:7 ~policy:Node_server.Immediate;
  let c1 = Client.create cl.rpc cl.nodes.(1) in
  let c2 = Client.create cl.rpc cl.nodes.(2) in
  let sref = sref cl in
  let reader_in = ref 0.0 in
  Engine.spawn cl.eng (fun () ->
      match Client.lock_acquire c1 sref Lockmgr.Write with
      | Ok owner ->
          Engine.sleep cl.eng 20.0;
          ignore (Client.lock_release c1 sref ~owner)
      | Error _ -> Alcotest.fail "writer acquire failed");
  Engine.spawn cl.eng (fun () ->
      Engine.sleep cl.eng 1.0;
      match Client.lock_acquire (Client.with_timeout c2 100.0) sref Lockmgr.Read with
      | Ok owner ->
          reader_in := Engine.now cl.eng;
          ignore (Client.lock_release c2 sref ~owner)
      | Error _ -> Alcotest.fail "reader acquire failed");
  Engine.run_and_check cl.eng;
  check_bool "reader waited for remote writer" true (!reader_in >= 20.0)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "weakset_store"
    [
      ( "directory",
        Alcotest.test_case "add/remove" `Quick test_directory_add_remove
        :: Alcotest.test_case "idempotent ops" `Quick test_directory_idempotent_ops
        :: Alcotest.test_case "ops_since" `Quick test_directory_ops_since
        :: Alcotest.test_case "members_at" `Quick test_directory_members_at
        :: Alcotest.test_case "history boundaries" `Quick test_directory_history_boundaries
        :: Alcotest.test_case "elements shared" `Quick test_directory_elements_shared
        :: qcheck
             [ prop_directory_members_at_roundtrip; prop_directory_elements_at_matches_members_at ]
      );
      ( "lockmgr",
        [
          Alcotest.test_case "readers share" `Quick test_lock_readers_share;
          Alcotest.test_case "writer excludes" `Quick test_lock_writer_excludes;
          Alcotest.test_case "fifo no starvation" `Quick test_lock_fifo_no_writer_starvation;
          Alcotest.test_case "double acquire rejected" `Quick test_lock_double_acquire_rejected;
          Alcotest.test_case "release unknown ignored" `Quick test_lock_release_unknown_ignored;
        ] );
      ( "objects",
        [
          Alcotest.test_case "fetch roundtrip" `Quick test_fetch_roundtrip;
          Alcotest.test_case "missing object" `Quick test_fetch_missing_object;
          Alcotest.test_case "unreachable home" `Quick test_fetch_unreachable_home;
          Alcotest.test_case "wrong home rejected" `Quick test_fetch_put_on_wrong_home_rejected;
        ] );
      ( "dir-rpc",
        [
          Alcotest.test_case "ops via rpc" `Quick test_dir_ops_via_rpc;
          Alcotest.test_case "read from coordinator" `Quick test_dir_read_from_coordinator;
          Alcotest.test_case "read_at reply version" `Quick test_dir_read_at_reply_version;
          Alcotest.test_case "no service" `Quick test_dir_no_service;
          Alcotest.test_case "lock rpc roundtrip" `Quick test_lock_rpc_roundtrip;
          Alcotest.test_case "remote writer blocks reader" `Quick
            test_lock_rpc_writer_blocks_remote_reader;
        ] );
      ( "ghosts",
        [
          Alcotest.test_case "defers removes while iterating" `Quick
            test_ghost_defers_removes_while_iterating;
          Alcotest.test_case "nested iterators" `Quick test_ghost_nested_iterators;
          Alcotest.test_case "immediate policy removes now" `Quick
            test_ghost_immediate_policy_removes_now;
        ] );
      ( "replicas",
        [
          Alcotest.test_case "sync and staleness" `Quick test_replica_sync_and_staleness;
          Alcotest.test_case "serves stale reads" `Quick test_replica_serves_stale_reads;
          Alcotest.test_case "elements shared" `Quick test_replica_elements_shared;
          Alcotest.test_case "stays stale under partition" `Quick
            test_replica_stays_stale_under_partition;
        ] );
      ( "quorum",
        [
          Alcotest.test_case "majority math" `Quick test_quorum_majority_math;
          Alcotest.test_case "majority even counts" `Quick test_quorum_majority_even;
          Alcotest.test_case "read fresh" `Quick test_quorum_read_fresh;
          Alcotest.test_case "survives coordinator loss" `Quick
            test_quorum_survives_coordinator_loss;
          Alcotest.test_case "fails below majority" `Quick test_quorum_fails_below_majority;
        ] );
      ( "client",
        [
          Alcotest.test_case "reachable oids" `Quick test_reachable_oids;
          Alcotest.test_case "nearest dir host" `Quick test_nearest_dir_host;
          Alcotest.test_case "owner tokens unique" `Quick test_client_owner_tokens_unique;
        ] );
    ]
