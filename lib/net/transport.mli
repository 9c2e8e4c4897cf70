(** Message transport over a {!Topology}.

    Messages sent between reachable nodes are delivered to the destination's
    mailbox after the cheapest-path latency.  Messages are dropped (never
    delivered, like a lower network layer losing them) when:
    - the source or destination node is down at send time,
    - no up path exists at send time, or
    - the destination is down or unreachable at delivery time (the
      partition happened while the message was in flight).

    Each drop category is counted in {!stats}.

    The transport also owns each node's {e Lamport clock}: a send ticks
    the source's clock (stamped on [Net_send] and carried in the
    envelope), and a delivery sets the destination's clock to
    [max(own, sender's) + 1] (stamped on [Net_deliver]).  Higher layers
    stamp their own local events through {!lamport_tick}, so every
    emitted [lc] respects the happens-before order. *)

type 'a t

type 'a envelope = {
  src : Nodeid.t;
  dst : Nodeid.t;
  sent_at : float;
  send_lc : int;  (** source's Lamport clock at send time *)
  payload : 'a;
}

val create : Weakset_sim.Engine.t -> Topology.t -> 'a t

val engine : 'a t -> Weakset_sim.Engine.t
val topology : 'a t -> Topology.t

(** The engine's event bus, where this transport publishes
    send/deliver/drop events. *)
val bus : 'a t -> Weakset_obs.Bus.t

(** Instance number labelling this transport's counters in the
    registry. *)
val instance : 'a t -> int

(** Current counter values, read back from the metrics registry. *)
val stats : 'a t -> Netstat.t

(** The receive queue of a node.  Server loops [recv] on this. *)
val mailbox : 'a t -> Nodeid.t -> 'a envelope Weakset_sim.Mailbox.t

(** [send t ~src ~dst payload] is asynchronous and never blocks. *)
val send : 'a t -> src:Nodeid.t -> dst:Nodeid.t -> 'a -> unit

(** {1 Lamport clocks} *)

(** [lamport_tick t node] advances [node]'s clock for a local event and
    returns the new value.  {!send} calls this itself; higher layers
    (e.g. RPC) use it to stamp their own call/completion events. *)
val lamport_tick : 'a t -> Nodeid.t -> int
