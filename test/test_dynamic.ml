(* Tests for weakset_dynamic: the simulated distributed FS, the parallel
   closest-first prefetch engine, dynamic sets, strict-vs-weak ls, and the
   workload generators reproducing the paper's motivating queries. *)

open Weakset_sim
open Weakset_net
open Weakset_store
open Weakset_dynamic

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Fpath                                                              *)
(* ------------------------------------------------------------------ *)

let test_fpath_roundtrip () =
  let p = Fpath.of_string "/a/b/c" in
  Alcotest.(check string) "to_string" "/a/b/c" (Fpath.to_string p);
  Alcotest.(check (list string)) "segments" [ "a"; "b"; "c" ] (Fpath.segments p);
  Alcotest.(check (option string)) "basename" (Some "c") (Fpath.basename p);
  Alcotest.(check string) "parent" "/a/b" (Fpath.to_string (Option.get (Fpath.parent p)));
  Alcotest.(check string) "child" "/a/b/c/d" (Fpath.to_string (Fpath.child p "d"))

let test_fpath_root_and_normalisation () =
  check_bool "root" true (Fpath.is_root Fpath.root);
  check_bool "empty string is root" true (Fpath.is_root (Fpath.of_string ""));
  Alcotest.(check string) "double slashes dropped" "/x/y" (Fpath.to_string (Fpath.of_string "//x//y/"));
  check_bool "no leading slash ok" true (Fpath.equal (Fpath.of_string "a/b") (Fpath.of_string "/a/b"));
  Alcotest.(check (option string)) "root basename" None (Fpath.basename Fpath.root);
  check_bool "root parent" true (Fpath.parent Fpath.root = None)

(* ------------------------------------------------------------------ *)
(* Fixture                                                            *)
(* ------------------------------------------------------------------ *)

type fsworld = {
  eng : Engine.t;
  topo : Topology.t;
  nodes : Nodeid.t array;
  dfs : Dfs.t;
  client : Client.t;
}

(* Line topology so distances differ: client at node 0, servers spread
   along the chain. *)
let make_fsworld ?(n = 6) () =
  let eng = Engine.create () in
  let topo = Topology.create () in
  let nodes = Topology.line topo n ~latency:1.0 in
  let rpc : Node_server.rpc = Rpc.create eng topo in
  let servers = Array.map (fun node -> Node_server.create rpc node) nodes in
  let dfs = Dfs.create rpc servers in
  let client = Dfs.client_at dfs 0 in
  { eng; topo; nodes; dfs; client }

let in_fiber w body =
  let result = ref None in
  Engine.spawn w.eng ~name:"test-body" (fun () -> result := Some (body ()));
  let (_ : int) = Engine.run ~until:100_000.0 w.eng in
  (match Engine.crashes w.eng with
  | [] -> ()
  | c :: _ ->
      Alcotest.failf "fiber %s crashed: %s" c.Engine.crash_fiber
        (Printexc.to_string c.Engine.crash_exn));
  match !result with Some r -> r | None -> Alcotest.fail "did not finish"

let dir = Fpath.of_string "/data"

(* ------------------------------------------------------------------ *)
(* Dfs                                                                *)
(* ------------------------------------------------------------------ *)

let test_dfs_mkdir_and_files () =
  let w = make_fsworld () in
  Dfs.mkdir w.dfs dir ~coordinator:1 ();
  check_bool "exists" true (Dfs.dir_exists w.dfs dir);
  check_bool "other missing" false (Dfs.dir_exists w.dfs (Fpath.of_string "/other"));
  let oid = Dfs.create_file w.dfs dir ~name:"hello.txt" ~home:2 "hi" in
  Alcotest.(check (option string)) "name_of" (Some "hello.txt") (Dfs.name_of w.dfs oid);
  check_bool "lookup" true (Dfs.lookup w.dfs dir ~name:"hello.txt" = Some oid);
  check_bool "lookup missing" true (Dfs.lookup w.dfs dir ~name:"nope" = None);
  check_int "one directory" 1 (List.length (Dfs.directories w.dfs))

let test_dfs_duplicate_rejected () =
  let w = make_fsworld () in
  Dfs.mkdir w.dfs dir ~coordinator:1 ();
  let (_ : Oid.t) = Dfs.create_file w.dfs dir ~name:"a" ~home:2 "x" in
  check_bool "dup file raises" true
    (try
       ignore (Dfs.create_file w.dfs dir ~name:"a" ~home:2 "y");
       false
     with Invalid_argument _ -> true);
  check_bool "dup dir raises" true
    (try
       Dfs.mkdir w.dfs dir ~coordinator:1 ();
       false
     with Invalid_argument _ -> true)

let test_dfs_unlink () =
  let w = make_fsworld () in
  Dfs.mkdir w.dfs dir ~coordinator:1 ();
  let oid = Dfs.create_file w.dfs dir ~name:"a" ~home:2 "x" in
  Dfs.unlink w.dfs dir ~name:"a";
  check_bool "gone from registry" true (Dfs.lookup w.dfs dir ~name:"a" = None);
  let truth =
    Node_server.directory_truth
      (Dfs.coordinator_server w.dfs dir)
      ~set_id:(Dfs.dir_sref w.dfs dir).Protocol.set_id
  in
  check_bool "gone from membership" false (Directory.mem truth oid)

let test_dfs_membership_via_rpc () =
  let w = make_fsworld () in
  Dfs.mkdir w.dfs dir ~coordinator:1 ();
  for i = 1 to 4 do
    ignore (Dfs.create_file w.dfs dir ~name:(Printf.sprintf "f%d" i) ~home:(1 + (i mod 4)) "c")
  done;
  let sref = Dfs.dir_sref w.dfs dir in
  let n =
    in_fiber w (fun () ->
        match Client.dir_read w.client ~from:sref.Protocol.coordinator ~set_id:sref.Protocol.set_id with
        | Ok (_, members) -> List.length members
        | Error _ -> -1)
  in
  check_int "members visible over the wire" 4 n

(* ------------------------------------------------------------------ *)
(* Prefetch                                                           *)
(* ------------------------------------------------------------------ *)

let populate_line w ~files =
  Dfs.mkdir w.dfs dir ~coordinator:1 ();
  (* Spread homes along the chain so path latencies differ: file i on
     node 1 + (i mod (n-1)). *)
  Array.init files (fun i ->
      Dfs.create_file w.dfs dir
        ~name:(Printf.sprintf "f%02d" i)
        ~home:(1 + (i mod (Array.length w.nodes - 1)))
        (Printf.sprintf "content-%02d" i))

let test_prefetch_fetches_everything () =
  let w = make_fsworld () in
  let (_ : Oid.t array) = populate_line w ~files:10 in
  let results =
    in_fiber w (fun () ->
        let pf = Prefetch.start ~parallelism:3 w.client (Dfs.dir_sref w.dfs dir) in
        Prefetch.drain pf)
  in
  check_int "all fetched" 10 (List.length results)

let test_prefetch_parallel_faster_than_sequential () =
  let run parallelism =
    let w = make_fsworld () in
    let (_ : Oid.t array) = populate_line w ~files:12 in
    in_fiber w (fun () ->
        let t0 = Engine.now w.eng in
        let pf = Prefetch.start ~parallelism w.client (Dfs.dir_sref w.dfs dir) in
        let (_ : (Oid.t * Svalue.t) list) = Prefetch.drain pf in
        Engine.now w.eng -. t0)
  in
  let seq = run 1 and par = run 4 in
  check_bool
    (Printf.sprintf "parallel (%.1f) at least 2x faster than sequential (%.1f)" par seq)
    true
    (par *. 2.0 < seq)

let test_prefetch_closest_first () =
  let w = make_fsworld () in
  let (_ : Oid.t array) = populate_line w ~files:5 in
  let order =
    in_fiber w (fun () ->
        let pf =
          Prefetch.start ~parallelism:1 ~order:`Closest_first w.client (Dfs.dir_sref w.dfs dir)
        in
        List.map (fun (o, _) -> Topology.path_latency w.topo w.nodes.(0) (Oid.home o))
          (Prefetch.drain pf))
  in
  let latencies = List.map Option.get order in
  let sorted = List.sort Float.compare latencies in
  Alcotest.(check (list (float 1e-9))) "non-decreasing distance" sorted latencies

let test_prefetch_first_result_before_completion () =
  let w = make_fsworld () in
  let (_ : Oid.t array) = populate_line w ~files:10 in
  let st =
    in_fiber w (fun () ->
        let pf = Prefetch.start ~parallelism:2 w.client (Dfs.dir_sref w.dfs dir) in
        let (_ : (Oid.t * Svalue.t) list) = Prefetch.drain pf in
        Prefetch.stats pf)
  in
  match (st.Prefetch.first_result_at, st.Prefetch.finished_at) with
  | Some first, Some fin ->
      check_bool "first strictly before finish" true (first < fin);
      check_int "membership" 10 st.Prefetch.membership;
      check_int "fetched" 10 st.Prefetch.fetched;
      check_int "missed" 0 st.Prefetch.missed
  | _ -> Alcotest.fail "missing stats"

let test_prefetch_skips_unreachable_members () =
  let w = make_fsworld () in
  let (_ : Oid.t array) = populate_line w ~files:10 in
  (* Cut the far end of the chain: nodes 4,5 unreachable from client 0. *)
  Topology.set_link_up w.topo w.nodes.(3) w.nodes.(4) false;
  let results, st =
    in_fiber w (fun () ->
        let pf =
          Prefetch.start ~parallelism:2 ~max_retries:1 ~retry_backoff:0.5 w.client
            (Dfs.dir_sref w.dfs dir)
        in
        let r = Prefetch.drain pf in
        (r, Prefetch.stats pf))
  in
  check_bool "partial results" true (List.length results > 0);
  check_int "fetched + missed = membership" st.Prefetch.membership
    (st.Prefetch.fetched + st.Prefetch.missed);
  check_bool "some missed" true (st.Prefetch.missed > 0)

let test_prefetch_open_failed_when_no_host () =
  let w = make_fsworld () in
  let (_ : Oid.t array) = populate_line w ~files:4 in
  (* Cut the client from everything. *)
  Topology.set_link_up w.topo w.nodes.(0) w.nodes.(1) false;
  let results, st =
    in_fiber w (fun () ->
        let pf = Prefetch.start w.client (Dfs.dir_sref w.dfs dir) in
        let r = Prefetch.drain pf in
        (r, Prefetch.stats pf))
  in
  check_int "nothing" 0 (List.length results);
  check_bool "open failed" true st.Prefetch.open_failed

let test_prefetch_falls_back_to_replica () =
  let w = make_fsworld () in
  Dfs.mkdir w.dfs dir ~coordinator:5 ~replicas:[ 1 ] ~replica_interval:5.0 ();
  for i = 1 to 3 do
    ignore (Dfs.create_file w.dfs dir ~name:(Printf.sprintf "f%d" i) ~home:2 "c")
  done;
  let results =
    in_fiber w (fun () ->
        (* Let the replica sync, then lose the coordinator. *)
        Engine.sleep w.eng 20.0;
        Topology.set_node_up w.topo w.nodes.(5) false;
        let pf = Prefetch.start w.client (Dfs.dir_sref w.dfs dir) in
        Prefetch.drain pf)
  in
  check_int "replica served the membership" 3 (List.length results)

(* Under any random set of crashed content servers, prefetch accounts for
   every member exactly once: fetched + missed = membership. *)
let prop_prefetch_accounts_for_every_member =
  QCheck.Test.make ~name:"prefetch: fetched + missed = membership" ~count:30
    QCheck.(small_nat)
    (fun seed ->
      let w = make_fsworld () in
      let (_ : Oid.t array) = populate_line w ~files:12 in
      let rng = Rng.create (Int64.of_int ((seed * 131) + 1)) in
      (* Crash a random subset of the non-client nodes. *)
      Array.iteri
        (fun i n -> if i >= 2 && Rng.chance rng 0.4 then Topology.set_node_up w.topo n false)
        w.nodes;
      let ok = ref false in
      Engine.spawn w.eng (fun () ->
          let pf =
            Prefetch.start ~parallelism:3 ~max_retries:1 ~retry_backoff:0.5 w.client
              (Dfs.dir_sref w.dfs dir)
          in
          let results = Prefetch.drain pf in
          let st = Prefetch.stats pf in
          ok :=
            (if st.Prefetch.open_failed then results = []
             else
               List.length results = st.Prefetch.fetched
               && st.Prefetch.fetched + st.Prefetch.missed = st.Prefetch.membership));
      let (_ : int) = Engine.run ~until:50_000.0 w.eng in
      !ok && Engine.crashes w.eng = [])

(* ------------------------------------------------------------------ *)
(* Dynset                                                             *)
(* ------------------------------------------------------------------ *)

let test_dynset_select_by_name () =
  let w = make_fsworld () in
  Workload.faces w.dfs ~rng:(Rng.create 5L) ~dir ~coordinator:1
    ~people:[ "satya"; "wing"; "steere" ]
    ~homes:[ 2; 3; 4 ];
  ignore (Dfs.create_file w.dfs dir ~name:"README" ~home:2 "not a face");
  let entries =
    in_fiber w (fun () ->
        let ds =
          Dynset.open_set w.dfs ~client:w.client dir
            ~select:(fun name -> Filename.check_suffix name ".face")
            ()
        in
        Dynset.drain ds)
  in
  check_int "three .face files" 3 (List.length entries);
  check_bool "all are faces" true
    (List.for_all (fun e -> Filename.check_suffix e.Dynset.name ".face") entries)

let test_dynset_query_chinese_restaurants () =
  let w = make_fsworld () in
  Workload.restaurants w.dfs ~rng:(Rng.create 6L) ~dir ~coordinator:1 ~n:9 ~homes:[ 2; 3; 4 ];
  let entries =
    in_fiber w (fun () ->
        let ds = Dynset.open_query w.dfs ~client:w.client dir Workload.is_chinese in
        Dynset.drain ds)
  in
  (* Of 9 round-robin cuisines, exactly 3 are chinese. *)
  check_int "three chinese menus" 3 (List.length entries)

let test_dynset_names_resolved () =
  let w = make_fsworld () in
  Dfs.mkdir w.dfs dir ~coordinator:1 ();
  let (_ : Oid.t) = Dfs.create_file w.dfs dir ~name:"only-file" ~home:2 "c" in
  let entries =
    in_fiber w (fun () -> Dynset.drain (Dynset.open_set w.dfs ~client:w.client dir ()))
  in
  match entries with
  | [ e ] -> Alcotest.(check string) "name" "only-file" e.Dynset.name
  | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Ls                                                                 *)
(* ------------------------------------------------------------------ *)

let test_ls_weak_equals_strict_when_quiet () =
  let w = make_fsworld () in
  let (_ : Oid.t array) = populate_line w ~files:8 in
  let strict, weak =
    in_fiber w (fun () ->
        let s = Ls.ls w.dfs ~client:w.client dir Ls.Strict in
        let k = Ls.ls w.dfs ~client:w.client dir (Ls.Weak { parallelism = 4 }) in
        (s, k))
  in
  match (strict, weak) with
  | Ok s, Ok k ->
      Alcotest.(check (list string))
        "same names"
        (List.map (fun e -> e.Ls.name) s.Ls.entries)
        (List.map (fun e -> e.Ls.name) k.Ls.entries);
      check_int "no misses" 0 k.Ls.missed
  | _ -> Alcotest.fail "ls failed"

let test_ls_strict_fails_weak_degrades_under_partition () =
  let w = make_fsworld () in
  let (_ : Oid.t array) = populate_line w ~files:10 in
  Topology.set_link_up w.topo w.nodes.(3) w.nodes.(4) false;
  let strict, weak =
    in_fiber w (fun () ->
        let s = Ls.ls w.dfs ~client:w.client dir Ls.Strict in
        let k = Ls.ls w.dfs ~client:w.client dir (Ls.Weak { parallelism = 4 }) in
        (s, k))
  in
  (match strict with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "strict ls must fail when a file is unreachable");
  match weak with
  | Ok k ->
      check_bool "weak returned something" true (List.length k.Ls.entries > 0);
      check_bool "weak counted misses" true (k.Ls.missed > 0)
  | Error _ -> Alcotest.fail "weak ls must degrade, not fail"

let test_ls_weak_first_entry_earlier () =
  let w = make_fsworld () in
  let (_ : Oid.t array) = populate_line w ~files:12 in
  let strict, weak =
    in_fiber w (fun () ->
        let s = Ls.ls w.dfs ~client:w.client dir Ls.Strict in
        let k = Ls.ls w.dfs ~client:w.client dir (Ls.Weak { parallelism = 4 }) in
        (s, k))
  in
  match (strict, weak) with
  | Ok s, Ok k ->
      let s_first = Option.get s.Ls.first_entry_at -. s.Ls.started_at in
      let k_first = Option.get k.Ls.first_entry_at -. k.Ls.started_at in
      check_bool
        (Printf.sprintf "weak first entry (%.2f) beats strict (%.2f)" k_first s_first)
        true (k_first < s_first)
  | _ -> Alcotest.fail "ls failed"

(* ------------------------------------------------------------------ *)
(* Workload                                                           *)
(* ------------------------------------------------------------------ *)

let test_workload_library_by_author () =
  let w = make_fsworld () in
  Workload.library w.dfs ~rng:(Rng.create 7L) ~dir ~coordinator:1
    ~authors:[ "wing"; "steere"; "satya" ]
    ~papers_per_author:4 ~homes:[ 2; 3 ];
  let mine =
    in_fiber w (fun () ->
        let ds = Dynset.open_query w.dfs ~client:w.client dir (Workload.by_author "wing") in
        Dynset.drain ds)
  in
  check_int "four papers by wing" 4 (List.length mine)

let test_workload_spread_tree_sizes () =
  let w = make_fsworld () in
  let rng = Rng.create 8L in
  let oids =
    Workload.spread_tree w.dfs ~rng ~dir ~coordinator:1 ~files:20 ~homes:[ 2; 3; 4 ]
      ~mean_size:500 ()
  in
  check_int "twenty files" 20 (Array.length oids);
  let entries =
    in_fiber w (fun () -> Dynset.drain (Dynset.open_set w.dfs ~client:w.client dir ()))
  in
  check_int "all retrievable" 20 (List.length entries)

let test_workload_mutator_changes_membership () =
  let w = make_fsworld () in
  Dfs.mkdir w.dfs dir ~coordinator:1 ();
  for i = 1 to 5 do
    ignore (Dfs.create_file w.dfs dir ~name:(Printf.sprintf "f%d" i) ~home:2 "c")
  done;
  let rng = Rng.create 9L in
  Workload.mutator_process w.dfs ~rng ~client:(Dfs.client_at w.dfs 2) ~dir ~add_rate:0.5
    ~remove_rate:0.2 ~until:100.0 ~homes:[ 2; 3 ];
  let truth =
    Node_server.directory_truth
      (Dfs.coordinator_server w.dfs dir)
      ~set_id:(Dfs.dir_sref w.dfs dir).Protocol.set_id
  in
  let v0 = Directory.version truth in
  let (_ : int) = Engine.run ~until:200.0 w.eng in
  check_bool "mutations happened" true (Version.compare (Directory.version truth) v0 > 0)

let () =
  Alcotest.run "weakset_dynamic"
    [
      ( "fpath",
        [
          Alcotest.test_case "roundtrip" `Quick test_fpath_roundtrip;
          Alcotest.test_case "root and normalisation" `Quick test_fpath_root_and_normalisation;
        ] );
      ( "dfs",
        [
          Alcotest.test_case "mkdir and files" `Quick test_dfs_mkdir_and_files;
          Alcotest.test_case "duplicates rejected" `Quick test_dfs_duplicate_rejected;
          Alcotest.test_case "unlink" `Quick test_dfs_unlink;
          Alcotest.test_case "membership via rpc" `Quick test_dfs_membership_via_rpc;
        ] );
      ( "prefetch",
        [
          Alcotest.test_case "fetches everything" `Quick test_prefetch_fetches_everything;
          Alcotest.test_case "parallel faster" `Quick test_prefetch_parallel_faster_than_sequential;
          Alcotest.test_case "closest first" `Quick test_prefetch_closest_first;
          Alcotest.test_case "first result early" `Quick test_prefetch_first_result_before_completion;
          Alcotest.test_case "skips unreachable" `Quick test_prefetch_skips_unreachable_members;
          Alcotest.test_case "open failed" `Quick test_prefetch_open_failed_when_no_host;
          Alcotest.test_case "replica fallback" `Quick test_prefetch_falls_back_to_replica;
          QCheck_alcotest.to_alcotest prop_prefetch_accounts_for_every_member;
        ] );
      ( "dynset",
        [
          Alcotest.test_case "select by name" `Quick test_dynset_select_by_name;
          Alcotest.test_case "chinese restaurants" `Quick test_dynset_query_chinese_restaurants;
          Alcotest.test_case "names resolved" `Quick test_dynset_names_resolved;
        ] );
      ( "ls",
        [
          Alcotest.test_case "weak = strict when quiet" `Quick test_ls_weak_equals_strict_when_quiet;
          Alcotest.test_case "strict fails, weak degrades" `Quick
            test_ls_strict_fails_weak_degrades_under_partition;
          Alcotest.test_case "weak first entry earlier" `Quick test_ls_weak_first_entry_earlier;
        ] );
      ( "workload",
        [
          Alcotest.test_case "library by author" `Quick test_workload_library_by_author;
          Alcotest.test_case "spread tree" `Quick test_workload_spread_tree_sizes;
          Alcotest.test_case "mutator changes membership" `Quick
            test_workload_mutator_changes_membership;
        ] );
    ]
