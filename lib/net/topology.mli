(** Network topology: a mutable undirected graph of nodes and links with
    per-link latencies and up/down state.

    Reachability is computed over the subgraph of up nodes and up links;
    {!path_latency} is the cheapest-path latency (Dijkstra).  Mutators
    invoke all callbacks registered with {!on_change}, which is how the
    fault injector broadcasts partition/heal events to waiting fibers.

    {b Cost model.}  {!path_info}, {!path_latency} and {!reachable} are
    answered from a per-source route table holding the cheapest latency
    and its path's survival for every destination.  The first query from
    a source after a mutation builds that source's table with one
    selection Dijkstra over an adjacency array of the up subgraph (the
    array itself is rebuilt once per mutation, in O(V+E)): O(V²+E) for
    that source.  Every later query between mutations is O(1), so a
    query costs amortised O(1) while the graph is unchanged.

    Every mutator, {!add_node} included, drops all route tables; the
    callbacks registered with {!on_change} run after the drop, so a
    callback that queries routes sees the new graph.

    {b Tie-break.}  Nodes settle in order of smallest latency, lowest
    node index among equals, and a path is replaced only by a strictly
    cheaper one.  Among equal-latency paths the reported survival is
    therefore that of the path through the earliest-settled node, and
    answers are a deterministic function of the graph. *)

type t

val create : unit -> t

(** [add_node t ~x ~y ()] registers a node at coordinates [(x, y)] (used
    only for "closest-first" distance hints; both default to 0).  It
    drops the route tables but does not run the {!on_change} callbacks. *)
val add_node : ?x:float -> ?y:float -> t -> Nodeid.t

(** [add_link ?loss t a b ~latency] adds an undirected link that loses
    each message with probability [loss] (default 0).  Adding a link that
    already exists replaces its latency and loss.  Self-links, and
    latencies that are negative or not finite, are rejected with
    [Invalid_argument]. *)
val add_link : ?loss:float -> t -> Nodeid.t -> Nodeid.t -> latency:float -> unit

(** Loss probability of a direct link (1.0 if no such link). *)
val link_loss : t -> Nodeid.t -> Nodeid.t -> float

val nodes : t -> Nodeid.t list
val node_count : t -> int
val node_up : t -> Nodeid.t -> bool
val set_node_up : t -> Nodeid.t -> bool -> unit

(** Is there a link between [a] and [b] (up or down)? *)
val has_link : t -> Nodeid.t -> Nodeid.t -> bool

(** [link_up t a b] is false if there is no such link. *)
val link_up : t -> Nodeid.t -> Nodeid.t -> bool

(** [set_link_up t a b up] raises [Invalid_argument] if no such link. *)
val set_link_up : t -> Nodeid.t -> Nodeid.t -> bool -> unit

val coordinates : t -> Nodeid.t -> float * float

(** [reachable t a b] holds iff both endpoints are up and a path of up
    nodes/links connects them.  [reachable t a a] holds iff [a] is up. *)
val reachable : t -> Nodeid.t -> Nodeid.t -> bool

(** Cheapest-path latency over up links/nodes; [None] if unreachable. *)
val path_latency : t -> Nodeid.t -> Nodeid.t -> float option

(** [(latency, survival)] of the cheapest path, where survival is the
    product of per-link delivery probabilities along it. *)
val path_info : t -> Nodeid.t -> Nodeid.t -> (float * float) option

(** Euclidean coordinate distance, ignoring up/down state: the static
    "closeness" hint used by closest-first fetch scheduling. *)
val distance : t -> Nodeid.t -> Nodeid.t -> float

(** [partition t groups] cuts every link whose endpoints fall in different
    groups (links internal to a group are restored to up).  Nodes absent
    from all groups form an implicit extra group. *)
val partition : t -> Nodeid.t list list -> unit

(** Restores every node and link to up. *)
val heal_all : t -> unit

(** [on_change t f] registers [f] to run after every topology mutation
    except {!add_node}. *)
val on_change : t -> (unit -> unit) -> unit

(** {1 Builders} *)

(** [clique t n ~latency] adds [n] fully connected nodes. *)
val clique : t -> int -> latency:float -> Nodeid.t array

(** [star t n ~latency] adds a hub plus [n] leaves; returns [(hub, leaves)]. *)
val star : t -> int -> latency:float -> Nodeid.t * Nodeid.t array

(** [line t n ~latency] adds an [n]-node chain. *)
val line : t -> int -> latency:float -> Nodeid.t array

(** [wan t ~rng ~nodes ~extra_links] places [nodes] uniformly on a
    1000x1000 plane, connects a random spanning tree plus [extra_links]
    shortcuts, with link latency proportional to coordinate distance
    (1 latency unit per 100 distance units, minimum 0.1). *)
val wan : t -> rng:Weakset_sim.Rng.t -> nodes:int -> extra_links:int -> Nodeid.t array
