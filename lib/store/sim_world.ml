module Engine = Weakset_sim.Engine
module Rng = Weakset_sim.Rng
module Topology = Weakset_net.Topology
module Fault = Weakset_net.Fault
module Rpc = Weakset_net.Rpc

type shape = Clique | Star | Line

type t = {
  eng : Engine.t;
  topo : Topology.t;
  rpc : Node_server.rpc;
  nodes : Weakset_net.Nodeid.t array;
  servers : Node_server.t array;
  fault : Fault.t;
  client : Client.t;
  sref : Protocol.set_ref;
  rng : Rng.t;
  mutable next_num : int;
}

let set_id = 1

let fresh_member w =
  let homes = Array.length w.nodes - 2 in
  if homes < 1 then invalid_arg "Sim_world.fresh_member: the world has no home nodes";
  w.next_num <- w.next_num + 1;
  let k = w.next_num in
  let home_ix = 1 + (k mod homes) in
  let oid = Oid.make ~num:k ~home:w.nodes.(home_ix) in
  Node_server.put_object w.servers.(home_ix) oid (Svalue.make (Printf.sprintf "element-%d" k));
  oid

let truth w = Node_server.directory_truth w.servers.(0) ~set_id

let create ?(shape = Clique) ?lease_ttl ?dir_service ?admission ?(serve_client = true)
    ?(policy = Node_server.Immediate) ?(replica_ixs = []) ?(replica_interval = 10.0)
    ?(replica_until = 1.0e9) ?cache ?(size = 0) eng ~nodes:n ~latency () =
  if n < 2 then invalid_arg "Sim_world.create: a world needs a coordinator and a client";
  let topo = Topology.create () in
  let nodes =
    match shape with
    | Clique -> Topology.clique topo n ~latency
    | Star ->
        let hub, leaves = Topology.star topo (n - 1) ~latency in
        Array.append [| hub |] leaves
    | Line -> Topology.line topo n ~latency
  in
  let rpc = Rpc.create eng topo in
  let servers =
    Array.map
      (fun node -> Node_server.create ?lease_ttl ?dir_service ?admission rpc node)
      (if serve_client then nodes else Array.sub nodes 0 (n - 1))
  in
  let fault = Fault.create eng topo in
  Node_server.host_directory servers.(0) ~set_id ~policy;
  List.iter
    (fun ix ->
      Node_server.host_replica servers.(ix) ~set_id ~of_:nodes.(0) ~interval:replica_interval
        ~until:replica_until)
    replica_ixs;
  let client = Client.create ?cache rpc nodes.(n - 1) in
  let replicas = List.map (fun ix -> nodes.(ix)) replica_ixs in
  let sref = { Protocol.set_id; coordinator = nodes.(0); replicas } in
  (* The workload stream: nothing in the library draws from the root
     after the transport's split, so callers that ignore it see no change. *)
  let rng = Rng.split (Engine.rng eng) in
  let w = { eng; topo; rpc; nodes; servers; fault; client; sref; rng; next_num = 0 } in
  for _ = 1 to size do
    ignore (Directory.apply (truth w) (Directory.Add (fresh_member w)) : Version.t)
  done;
  w
