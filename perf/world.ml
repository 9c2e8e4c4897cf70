(* Fault-free clique worlds for the [wide], [deep] and [overload]
   workloads, assembled from the public store/net/core APIs.

   Node 0 coordinates the set, the last node hosts the clients, and
   members are homed on the nodes in between.  Every input (member
   homes, payload sizes, the request mix) is drawn from [inputs], a
   stream seeded from the benchmark seed alone. *)

open Weakset_sim
open Weakset_net
open Weakset_store

type t = {
  eng : Engine.t;
  topo : Topology.t;
  rpc : Node_server.rpc;
  nodes : Nodeid.t array;
  servers : Node_server.t array;
  fault : Fault.t;
  sref : Protocol.set_ref;
  inputs : Rng.t;
  mutable next_num : int;
}

let set_id = 1

let client_node w = w.nodes.(Array.length w.nodes - 1)
let client w = Client.create w.rpc (client_node w)
let truth w = Node_server.directory_truth w.servers.(0) ~set_id

(* Store a fresh object on home node [ix] with a seeded payload size
   (64 B to 8 KiB, which spreads fetch service time over 0.05-0.21). *)
let store_object w ix =
  w.next_num <- w.next_num + 1;
  let oid = Oid.make ~num:w.next_num ~home:w.nodes.(ix) in
  let size = 64 + Rng.int w.inputs 8129 in
  Node_server.put_object w.servers.(ix) oid (Svalue.make ~size (string_of_int w.next_num));
  oid

let home_count w = Array.length w.nodes - 2
let fresh_object w = store_object w (1 + Rng.int w.inputs (home_count w))

let clique ~seed ~nodes:n ~members ~semantics =
  let eng = Engine.create ~seed:(Int64.of_int seed) () in
  let topo = Topology.create () in
  let nodes = Topology.clique topo n ~latency:1.0 in
  let rpc = Rpc.create eng topo in
  let servers = Array.map (fun node -> Node_server.create rpc node) nodes in
  let fault = Fault.create eng topo in
  let sref =
    Weakset_core.Weak_set.provision ~set_id ~coordinator_server:servers.(0) ~semantics ()
  in
  let w =
    {
      eng;
      topo;
      rpc;
      nodes;
      servers;
      fault;
      sref;
      inputs = Rng.create (Int64.of_int (seed lxor 0x5eed));
      next_num = 0;
    }
  in
  (* Initial members spread evenly over the homes, in a seeded order:
     the seed moves members between homes without changing how many
     each home holds, so routing work per iteration barely varies. *)
  let homes = Array.init members (fun k -> 1 + (k mod home_count w)) in
  Rng.shuffle w.inputs homes;
  let dir = truth w in
  Array.iter (fun ix -> ignore (Directory.apply dir (Directory.Add (store_object w ix)))) homes;
  w
