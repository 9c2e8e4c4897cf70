module Engine = Weakset_sim.Engine
module Rng = Weakset_sim.Rng
module Topology = Weakset_net.Topology
module Nodeid = Weakset_net.Nodeid
module Fault = Weakset_net.Fault
module World = Weakset_store.Sim_world
module Node_server = Weakset_store.Node_server
module Directory = Weakset_store.Directory
module Client = Weakset_store.Client
module Protocol = Weakset_store.Protocol
module Oid = Weakset_store.Oid
module Group = Weakset_repl.Group

(* Replicas are named r0..r(n-1) in scenario prose and addressed by
   index here; the interpreter adds one extra node for the client. *)

type step =
  | Stop of { node : int; at : float; recover_at : float }
  | Crash of { node : int; at : float }
  | Heal of { node : int; at : float }
  | Isolate of { node : int; at : float; heal_at : float }
  | Partition of { groups : int list list; at : float; heal_at : float }
  | Workload of { at : float; until : float; every : float }
  | Storm of { at : float; until : float; clients : int; every : float }
  | Probe_stable of { at : float }

type t = {
  name : string;
  replicas : int;
  until : float;
  admission : int option;
  steps : step list;
}

let set_id = World.set_id
let heal_margin = 30.0
let default_step_cap = 1_000_000

(* ------------------------------------------------------------------ *)
(* Validation: a malformed table entry should fail loudly at load,    *)
(* not as a silent no-fault run.                                      *)

let validate scn =
  let fail fmt = Format.kasprintf invalid_arg ("scenario %s: " ^^ fmt) scn.name in
  if scn.replicas < 1 then fail "needs at least one replica";
  if scn.until <= heal_margin then fail "horizon %.1f leaves no heal margin" scn.until;
  let node_ok i = i >= 0 && i < scn.replicas in
  let in_run at = at > 0.0 && at < scn.until in
  List.iter
    (fun step ->
      match step with
      | Stop { node; at; recover_at } ->
          if not (node_ok node) then fail "Stop names unknown replica r%d" node;
          if not (in_run at) then fail "Stop at=%.1f outside the run" at;
          if recover_at <= at then fail "Stop window r%d [%.1f,%.1f] is empty" node at recover_at
      | Crash { node; at } ->
          if not (node_ok node) then fail "Crash names unknown replica r%d" node;
          if not (in_run at) then fail "Crash at=%.1f outside the run" at
      | Heal { node; at } ->
          if not (node_ok node) then fail "Heal names unknown replica r%d" node;
          if not (in_run at) then fail "Heal at=%.1f outside the run" at
      | Isolate { node; at; heal_at } ->
          if not (node_ok node) then fail "Isolate names unknown replica r%d" node;
          if not (in_run at) then fail "Isolate at=%.1f outside the run" at;
          if heal_at <= at then fail "Isolate window r%d [%.1f,%.1f] is empty" node at heal_at
      | Partition { groups; at; heal_at } ->
          List.iter
            (List.iter (fun i ->
                 if not (node_ok i) then fail "Partition names unknown replica r%d" i))
            groups;
          if not (in_run at) then fail "Partition at=%.1f outside the run" at;
          if heal_at <= at then fail "Partition window [%.1f,%.1f] is empty" at heal_at
      | Workload { at; until; every } ->
          if until <= at then fail "Workload window [%.1f,%.1f] is empty" at until;
          if until > scn.until -. heal_margin then
            fail "Workload runs past the heal margin (until %.1f)" until;
          if every <= 0.0 then fail "Workload every=%.2f must be positive" every
      | Storm { at; until; clients; every } ->
          if until <= at then fail "Storm window [%.1f,%.1f] is empty" at until;
          if until > scn.until -. heal_margin then
            fail "Storm runs past the heal margin (until %.1f)" until;
          if clients < 1 then fail "Storm clients=%d must be positive" clients;
          if every <= 0.0 then fail "Storm every=%.2f must be positive" every
      | Probe_stable { at } ->
          if not (in_run at) then fail "Probe_stable at=%.1f outside the run" at)
    scn.steps

(* ------------------------------------------------------------------ *)
(* Interpreter                                                        *)

(* Fold canonical op renderings ("add oN@nM" / "remove oN@nM", see
   {!Group.op_str}) back into a membership list. *)
let fold_members ops =
  List.fold_left
    (fun acc op ->
      match String.index_opt op ' ' with
      | None -> acc
      | Some sp ->
          let verb = String.sub op 0 sp in
          let oid = String.sub op (sp + 1) (String.length op - sp - 1) in
          let without = List.filter (fun m -> not (String.equal m oid)) acc in
          if String.equal verb "add" then oid :: without
          else if String.equal verb "remove" then without
          else acc)
    [] ops

type run_stats = { judged : Oracle.run; committed : int; ops_ok : int; ops_failed : int }

let execute ?(step_cap = default_step_cap) scn =
  validate scn;
  let n = scn.replicas in
  let majority = (n / 2) + 1 in
  (* The seed is a pure function of the scenario name: every run of a
     table entry replays the same virtual history, byte for byte. *)
  let seed = Int64.of_int (Hashtbl.hash scn.name) in
  let eng = Engine.create ~seed () in
  let watch = Oracle.watch eng in
  (* The extra node runs the client and no store server of its own. *)
  let w =
    World.create
      ?admission:(Option.map (fun capacity -> { Node_server.capacity }) scn.admission)
      ~serve_client:false ~policy:Node_server.Defer_removes_while_iterating eng
      ~nodes:(n + 1) ~latency:0.5 ()
  in
  let nodes = w.World.nodes and servers = w.World.servers and topo = w.World.topo in
  let rpc = w.World.rpc and fault = w.World.fault and client = w.World.client in
  let client_node = nodes.(n) in
  let member_nodes = Array.to_list (Array.sub nodes 0 n) in
  (* Every replica hosts the directory its group member governs. *)
  Array.iteri
    (fun i s ->
      if i > 0 then
        Node_server.host_directory s ~set_id ~policy:Node_server.Defer_removes_while_iterating)
    servers;
  let ledger = Group.Ledger.create () in
  let groups =
    Array.init n (fun i ->
        Group.create rpc ~set_id ~members:member_nodes ~me:nodes.(i) ~ledger
          ~server:servers.(i))
  in
  Array.iter (fun g -> Group.start g ~until:scn.until) groups;
  let sref = { w.World.sref with Protocol.replicas = List.tl member_nodes } in
  (* Shared across workload windows so every Add names a fresh oid. *)
  let opk = ref 0 and ops_ok = ref 0 and ops_failed = ref 0 in
  (* Storm clients draw their retry jitter from split streams of a
     scenario-seeded rng, so the whole backoff schedule is a pure
     function of the scenario name. *)
  let storm_rng = Rng.create seed in
  let probes = ref [] in
  let quorum_connected () =
    let up = List.filter (Topology.node_up topo) member_nodes in
    List.exists
      (fun i ->
        let reaches j = Nodeid.equal i j || Topology.reachable topo i j in
        List.length (List.filter reaches up) >= majority)
      up
  in
  let probe at =
    Engine.schedule eng ~after:at (fun () ->
        let ok = Group.stable (Array.to_list groups) || not (quorum_connected ()) in
        probes := (at, ok) :: !probes)
  in
  let workload ~at ~until ~every =
    Engine.spawn eng ~name:(Printf.sprintf "scn-load-%.0f" at) (fun () ->
        Engine.sleep eng at;
        while Engine.now eng < until do
          let k = !opk in
          incr opk;
          let result =
            (* Two adds then a remove of the elder: every op is effective
               when it lands, so the ledger grows by one per ack. *)
            if k mod 3 = 2 then
              Client.dir_remove client sref (Oid.make ~num:(k - 2) ~home:nodes.(0))
            else Client.dir_add client sref (Oid.make ~num:k ~home:nodes.(0))
          in
          (match result with Ok () -> incr ops_ok | Error _ -> incr ops_failed);
          Engine.sleep eng every
        done)
  in
  (* A retry storm: [clients] independent retry-budgeted clients hammer
     the coordinator in lockstep.  Every client's first op is a mutation,
     so the opening burst drives the admission queue past the Mutate
     threshold and sheds mutations — the clean-no-op invariant the
     planted shed bug violates; after that, mostly reads with a mutation
     every fifth op keep the queue saturated while the budgets drain,
     back off and refill. *)
  let storm ~at ~until ~clients ~every =
    for c = 0 to clients - 1 do
      let retry =
        {
          Client.retry_rng = Rng.split storm_rng;
          retry_burst = 10;
          retry_refill = 0.5;
          retry_backoff = 0.1;
          retry_backoff_max = 5.0;
          retry_attempts = 6;
        }
      in
      let sc = Client.create ~retry rpc client_node in
      Engine.spawn eng ~name:(Printf.sprintf "scn-storm-%.0f-%d" at c) (fun () ->
          Engine.sleep eng at;
          let k = ref 0 in
          while Engine.now eng < until do
            let result =
              if !k mod 5 = 0 then
                (* Storm oids live in their own namespace so they never
                   collide with the steady workload's. *)
                Client.dir_add sc sref
                  (Oid.make ~num:(1_000_000 + (c * 10_000) + !k) ~home:nodes.(0))
              else
                Result.map
                  (fun (_ : Weakset_store.Version.t * Oid.t list) -> ())
                  (Client.dir_read sc ~from:nodes.(0) ~set_id)
            in
            (match result with Ok () -> incr ops_ok | Error _ -> incr ops_failed);
            incr k;
            Engine.sleep eng every
          done)
    done
  in
  List.iter
    (fun step ->
      match step with
      | Stop { node; at; recover_at } ->
          Fault.stop_node fault ~at ~recover_at nodes.(node)
      | Crash { node; at } -> Fault.schedule_crash fault ~at nodes.(node)
      | Heal { node; at } -> Fault.heal_node fault ~at nodes.(node)
      | Isolate { node; at; heal_at } -> Fault.isolate_node fault ~at ~heal_at nodes.(node)
      | Partition { groups = gs; at; heal_at } ->
          let gs = List.map (List.map (fun i -> nodes.(i))) gs in
          Fault.schedule_partition fault ~at ~heal_at gs
      | Workload { at; until; every } -> workload ~at ~until ~every
      | Storm { at; until; clients; every } -> storm ~at ~until ~clients ~every
      | Probe_stable { at } -> probe at)
    scn.steps;
  (* Close every fault before the horizon so the group has a quiet
     window to elect, converge and answer the final liveness probe. *)
  let heal_at = scn.until -. heal_margin in
  Engine.schedule eng ~after:heal_at (fun () ->
      Fault.heal_all fault;
      Array.iteri
        (fun i node ->
          if i < n && not (Topology.node_up topo node) then Fault.recover_node fault node)
        nodes);
  probe (scn.until -. 2.0);
  let judged =
    Oracle.run watch ~step_cap (fun () ->
        let r_final_logs =
          List.filter_map
            (fun g ->
              let node = Group.me g in
              if Topology.node_up topo node then
                Some (Nodeid.to_int node, Group.committed_log g)
              else None)
            (Array.to_list groups)
        in
        let r_ledger =
          List.map
            (fun e -> (e.Group.Ledger.l_opnum, e.Group.Ledger.l_op))
            (Group.Ledger.entries ledger)
        in
        (* Shed safety: each survivor's directory next to the fold of its
           ledger-justified committed entries.  A shed mutation that was not a
           clean no-op put an effect in the directory (and the directory's own
           log) that no ledger-acked commit justifies, so the two memberships
           part ways — judged per node, so commit propagation lag between
           nodes cannot fake a divergence. *)
        let r_dir_vs_log =
          List.filter_map
            (fun i ->
              let node = nodes.(i) in
              if Topology.node_up topo node then
                let dir_members =
                  Directory.members (Node_server.directory_truth servers.(i) ~set_id)
                  |> Oid.Set.elements
                  |> List.map (Format.asprintf "%a" Oid.pp)
                in
                let justified =
                  List.filter
                    (fun entry -> List.mem entry r_ledger)
                    (Group.committed_log groups.(i))
                in
                Some (Nodeid.to_int node, dir_members, fold_members (List.map snd justified))
              else None)
            (List.init n Fun.id)
        in
        {
          Oracle.ev_iterations = [];
          ev_cache = None;
          ev_repl =
            Some { Oracle.r_ledger; r_final_logs; r_probes = List.rev !probes; r_dir_vs_log };
        })
  in
  {
    judged;
    committed = List.length (Group.Ledger.entries ledger);
    ops_ok = !ops_ok;
    ops_failed = !ops_failed;
  }

type outcome = {
  o_name : string;
  o_digest : string;
  o_events : int;
  o_deterministic : bool;
  o_issues : Oracle.issue list;
  o_committed : int;
  o_ops_ok : int;
  o_ops_failed : int;
}

let passed o = o.o_deterministic && o.o_issues = []

let run ?step_cap ?(planted = false) ?(planted_shed = false) scn =
  let saved = !Group.planted_view_change_drop in
  let saved_shed = !Node_server.planted_shed_after_apply in
  Group.planted_view_change_drop := planted;
  Node_server.planted_shed_after_apply := planted_shed;
  Fun.protect
    ~finally:(fun () ->
      Group.planted_view_change_drop := saved;
      Node_server.planted_shed_after_apply := saved_shed)
    (fun () ->
      (* Run the whole virtual history twice: a table entry only counts
         as passing if the replay is byte-identical. *)
      let a = execute ?step_cap scn in
      let b = execute ?step_cap scn in
      let ja = a.judged and jb = b.judged in
      {
        o_name = scn.name;
        o_digest = ja.Oracle.digest;
        o_events = ja.Oracle.events;
        o_deterministic = String.equal ja.Oracle.digest jb.Oracle.digest && ja.events = jb.events;
        o_issues = ja.Oracle.issues;
        o_committed = a.committed;
        o_ops_ok = a.ops_ok;
        o_ops_failed = a.ops_failed;
      })

(* ------------------------------------------------------------------ *)
(* The table.                                                         *)

let steady_load = Workload { at = 10.0; until = 240.0; every = 2.0 }

let table =
  [
    {
      name = "steady-state";
      replicas = 3;
      until = 300.0;
      admission = None;
      steps = [ steady_load; Probe_stable { at = 100.0 }; Probe_stable { at = 230.0 } ];
    };
    {
      name = "leader-crash-failover";
      replicas = 3;
      until = 300.0;
      admission = None;
      steps =
        [
          steady_load;
          Stop { node = 0; at = 60.0; recover_at = 150.0 };
          Probe_stable { at = 120.0 };
          Probe_stable { at = 230.0 };
        ];
    };
    {
      name = "leader-crash-mid-commit";
      replicas = 3;
      until = 300.0;
      admission = None;
      steps =
        [
          (* Dense traffic so the crash lands between Prepare fan-out
             and commit-point propagation. *)
          Workload { at = 10.0; until = 200.0; every = 0.4 };
          Crash { node = 0; at = 50.2 };
          Heal { node = 0; at = 160.0 };
          Probe_stable { at = 120.0 };
        ];
    };
    {
      name = "partitioned-old-leader";
      replicas = 3;
      until = 300.0;
      admission = None;
      steps =
        [
          steady_load;
          (* The leader keeps running but can reach nobody: the majority
             side must elect past it, and it must rejoin as a backup. *)
          Isolate { node = 0; at = 60.0; heal_at = 170.0 };
          Probe_stable { at = 130.0 };
          Probe_stable { at = 240.0 };
        ];
    };
    {
      name = "dueling-view-changes";
      replicas = 5;
      until = 300.0;
      admission = None;
      steps =
        [
          steady_load;
          (* All four backups lose the leader at once; the staggered
             suspicion timers must converge on one view, not duel. *)
          Stop { node = 0; at = 60.0; recover_at = 140.0 };
          Probe_stable { at = 110.0 };
        ];
    };
    {
      name = "backup-crash";
      replicas = 3;
      until = 300.0;
      admission = None;
      steps =
        [
          steady_load;
          Stop { node = 2; at = 60.0; recover_at = 150.0 };
          Probe_stable { at = 100.0 };
        ];
    };
    {
      name = "state-transfer-under-churn";
      replicas = 3;
      until = 300.0;
      admission = None;
      steps =
        [
          (* r1 misses most of the run and returns far behind the
             commit point: rejoining takes a Get_state transfer, not
             one heartbeat. *)
          Workload { at = 10.0; until = 250.0; every = 0.8 };
          Stop { node = 1; at = 40.0; recover_at = 220.0 };
          Probe_stable { at = 150.0 };
        ];
    };
    {
      name = "quorum-loss-recovery";
      replicas = 3;
      until = 400.0;
      admission = None;
      steps =
        [
          Workload { at = 10.0; until = 350.0; every = 2.0 };
          (* Two of three down: no elections can finish, submits must
             fail retryably, and the group must recover when a quorum
             returns. *)
          Stop { node = 1; at = 60.0; recover_at = 260.0 };
          Stop { node = 2; at = 70.0; recover_at = 240.0 };
          Probe_stable { at = 300.0 };
        ];
    };
    {
      name = "isolate-heal-isolate";
      replicas = 3;
      until = 300.0;
      admission = None;
      steps =
        [
          steady_load;
          Isolate { node = 0; at = 50.0; heal_at = 100.0 };
          Isolate { node = 1; at = 130.0; heal_at = 180.0 };
          Probe_stable { at = 120.0 };
          Probe_stable { at = 210.0 };
        ];
    };
    {
      name = "double-failover";
      replicas = 5;
      until = 300.0;
      admission = None;
      steps =
        [
          steady_load;
          (* View 0's leader dies, then view 1's leader dies too: two
             complete view changes back to back. *)
          Stop { node = 0; at = 50.0; recover_at = 180.0 };
          Stop { node = 1; at = 90.0; recover_at = 200.0 };
          Probe_stable { at = 150.0 };
          Probe_stable { at = 240.0 };
        ];
    };
    {
      name = "partition-majority-minority";
      replicas = 5;
      until = 300.0;
      admission = None;
      steps =
        [
          steady_load;
          (* Leader and one backup on the minority side; the majority
             (with the client) must keep committing. *)
          Partition { groups = [ [ 0; 1 ] ]; at = 60.0; heal_at = 180.0 };
          Probe_stable { at = 130.0 };
          Probe_stable { at = 240.0 };
        ];
    };
    {
      name = "old-leader-returns";
      replicas = 3;
      until = 300.0;
      admission = None;
      steps =
        [
          steady_load;
          (* A short outage: the deposed leader comes back quickly and
             must step down into the higher view it slept through. *)
          Stop { node = 0; at = 50.0; recover_at = 95.0 };
          Probe_stable { at = 140.0 };
        ];
    };
    {
      name = "flapping-replica";
      replicas = 3;
      until = 300.0;
      admission = None;
      steps =
        [
          steady_load;
          Isolate { node = 2; at = 40.0; heal_at = 60.0 };
          Isolate { node = 2; at = 80.0; heal_at = 100.0 };
          Isolate { node = 2; at = 120.0; heal_at = 140.0 };
          Probe_stable { at = 160.0 };
        ];
    };
    {
      name = "overlapping-isolations";
      replicas = 5;
      until = 300.0;
      admission = None;
      steps =
        [
          steady_load;
          (* The windows overlap: when r1's ends, r2 must stay cut off
             until its own heal — per-fault link holds, not a global
             heal.  With five replicas the remaining three keep a
             quorum throughout. *)
          Isolate { node = 1; at = 50.0; heal_at = 120.0 };
          Isolate { node = 2; at = 80.0; heal_at = 170.0 };
          Probe_stable { at = 140.0 };
          Probe_stable { at = 230.0 };
        ];
    };
    {
      name = "rapid-churn";
      replicas = 3;
      until = 300.0;
      admission = None;
      steps =
        [
          Workload { at = 5.0; until = 260.0; every = 0.25 };
          Probe_stable { at = 100.0 };
          Probe_stable { at = 200.0 };
        ];
    };
    {
      name = "retry-storm";
      replicas = 3;
      until = 300.0;
      (* Capacity 8: reads shed at queue depth 4, mutations at 6 —
         small enough that the storm's opening burst sheds mutations
         (the planted-shed gate needs one) and its steady offered rate
         (16/0.25 = 64/s against a 1/0.02 = 50/s server) keeps the
         queue saturated, budgets draining and refilling. *)
      admission = Some 8;
      steps =
        [
          steady_load;
          Storm { at = 30.0; until = 220.0; clients = 16; every = 0.25 };
          Probe_stable { at = 120.0 };
          Probe_stable { at = 230.0 };
        ];
    };
    {
      name = "shed-under-partition";
      replicas = 3;
      until = 300.0;
      admission = Some 8;
      steps =
        [
          steady_load;
          Storm { at = 20.0; until = 240.0; clients = 12; every = 0.3 };
          (* The backups pair off; the coordinator keeps the client but
             loses its quorum, so mutations fail retryably while the
             read storm keeps shedding against it. *)
          Partition { groups = [ [ 1; 2 ] ]; at = 60.0; heal_at = 160.0 };
          Probe_stable { at = 130.0 };
          Probe_stable { at = 230.0 };
        ];
    };
  ]

let find name = List.find_opt (fun s -> String.equal s.name name) table

let pp_outcome ppf o =
  let verdict =
    if passed o then "PASS"
    else if not o.o_deterministic then "NONDETERMINISTIC"
    else "FAIL"
  in
  Format.fprintf ppf "%-28s %-16s commits=%-4d ops=%d/%d events=%d digest=%s" o.o_name
    verdict o.o_committed o.o_ops_ok
    (o.o_ops_ok + o.o_ops_failed)
    o.o_events o.o_digest;
  List.iter (fun i -> Format.fprintf ppf "@,  issue: %s" (Oracle.describe i)) o.o_issues
