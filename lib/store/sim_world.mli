(** The standard simulated world around one set, built on a caller's
    engine: node 0 coordinates the set ({!set_id}), the last node runs
    the iterating client, and the nodes in between home the members.

    Construction order is behaviour (server creation starts RPC demux
    fibers, replica sync fibers spawn, metrics register in creation
    order), so {!create} always builds in one order: topology, RPC,
    servers, fault injector, directory, replicas, client, set reference,
    workload stream, seeded membership.  Attach bus sinks before calling
    it to see the whole run. *)

type shape = Clique | Star | Line

type t = {
  eng : Weakset_sim.Engine.t;
  topo : Weakset_net.Topology.t;
  rpc : Node_server.rpc;
  nodes : Weakset_net.Nodeid.t array;
  servers : Node_server.t array;  (** by node index; see [serve_client] *)
  fault : Weakset_net.Fault.t;
  client : Client.t;
  sref : Protocol.set_ref;
  rng : Weakset_sim.Rng.t;  (** workload stream, split from the engine's root *)
  mutable next_num : int;  (** number of the last {!fresh_member} *)
}

val set_id : int

(** [create eng ~nodes ~latency ()] builds the world on [eng]; every link
    has [latency].
    - [shape] (default [Clique]): [Star] puts node 0 at the hub, [Line]
      chains the nodes in index order.
    - [lease_ttl], [dir_service], [admission] go to every
      {!Node_server.create}.
    - [serve_client] (default [true]): the client's node runs a store
      server too.
    - [policy] (default [Immediate]): the directory's mutation policy.
    - [replica_ixs] (default none): home nodes that pull the directory
      from node 0 every [replica_interval] (default 10) until
      [replica_until] (default 1e9).
    - [cache]: the client's lease cache.
    - [size] (default 0): members made by {!fresh_member} and added
      straight to the directory.

    Raises [Invalid_argument] when [nodes < 2]. *)
val create :
  ?shape:shape ->
  ?lease_ttl:float ->
  ?dir_service:float ->
  ?admission:Node_server.admission ->
  ?serve_client:bool ->
  ?policy:Node_server.mutation_policy ->
  ?replica_ixs:int list ->
  ?replica_interval:float ->
  ?replica_until:float ->
  ?cache:Cache.config ->
  ?size:int ->
  Weakset_sim.Engine.t ->
  nodes:int ->
  latency:float ->
  unit ->
  t

(** [fresh_member w] makes member [k = next_num + 1]: object [element-k]
    on home node [1 + k mod (nodes - 2)], not yet in the set.  Raises
    [Invalid_argument] when the world has no home node. *)
val fresh_member : t -> Oid.t

(** The coordinator's authoritative directory. *)
val truth : t -> Directory.t
