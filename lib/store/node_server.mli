(** Per-node store server.  A node can simultaneously play three roles:

    - {e object server}: holds the contents of objects homed at this node;
    - {e directory coordinator}: authoritative membership directory of one
      or more collections, with their lock managers and ghost bookkeeping;
    - {e directory replica}: a lazily synchronised copy of a directory
      hosted elsewhere, serving (possibly stale) [Dir_read]s.

    Ghost copies (paper §3.3): when a directory is hosted with policy
    {!Defer_removes_while_iterating}, removals arriving while grow-only
    iterators are registered ([Iter_open]) are deferred and applied when
    the last iterator closes — the set only grows during iteration, and the
    deferred "ghosts" are garbage-collected on termination. *)

type rpc = (Protocol.request, Protocol.response) Weakset_net.Rpc.t

type mutation_policy =
  | Immediate                      (** removals take effect at once *)
  | Defer_removes_while_iterating  (** ghost copies, paper §3.3 *)

(** Admission control: [capacity] bounds the node's request queue (depth
    = requests admitted but not yet past their service hold).  Shedding
    is deterministic reject-newest with per-class thresholds — fresh
    reads shed at [capacity/2], mutations at [3·capacity/4], iterator
    data-path ops at [capacity]; control traffic (consensus/heartbeats,
    lease callbacks, lock releases, iterator closes) is never shed and
    jumps the service queue.  A shed request is answered with
    {!Protocol.Overloaded} carrying a deterministic [retry_after] hint
    (the estimated backlog drain time), at zero service cost, before any
    part of the handler runs — a clean no-op, unless the engine's
    {!Weakset_obs.Planted.shed_after_apply} is armed. *)
type admission = { capacity : int }

type t

(** [create rpc node ?fetch_service ?dir_service ?lease_ttl ?admission ()]
    installs the server on [node].  [fetch_service v] is the virtual
    service time of an object fetch (default [0.05 + size/50000]);
    [dir_service] that of any directory operation (default 0.02).
    [lease_ttl] (default 30) is the TTL granted with every
    [Dir_read_leased] answer: the server remembers each lessee for that
    long (plus a flight-time slack) and pushes an [Inval] callback to
    all of them on the next effective mutation — Coda-style callbacks
    with lease expiry as the partition fallback.  Without [admission]
    (the default) the node accepts unboundedly, exactly as before; with
    it, service serialises through a bounded queue and overload sheds
    (see {!admission}). *)
val create :
  ?fetch_service:(Svalue.t -> float) ->
  ?dir_service:float ->
  ?lease_ttl:float ->
  ?admission:admission ->
  rpc ->
  Weakset_net.Nodeid.t ->
  t

val node : t -> Weakset_net.Nodeid.t

(** {1 Object role} *)

(** [put_object t oid v] — raises [Invalid_argument] if [oid]'s home is not
    this node. *)
val put_object : t -> Oid.t -> Svalue.t -> unit

val has_object : t -> Oid.t -> bool

(** {1 Directory coordinator role} *)

val host_directory : t -> set_id:int -> policy:mutation_policy -> unit

(** Direct (non-RPC) access to the authoritative directory, used by the
    specification monitor to capture ground-truth states and by tests.
    Raises [Not_found] if this node does not coordinate [set_id]. *)
val directory_truth : t -> set_id:int -> Directory.t

(** The lock manager of a hosted directory (for test assertions). *)
val lock_of : t -> set_id:int -> Lockmgr.t

(** Number of registered (grow-only) iterators on a hosted directory. *)
val open_iterators : t -> set_id:int -> int

(** Removals currently deferred by the ghost policy. *)
val deferred_removes : t -> set_id:int -> Oid.t list

(** {1 Replica role} *)

(** [host_replica t ~set_id ~of_ ~interval ~until] starts an anti-entropy
    fiber that pulls the delta from coordinator [of_] every [interval]
    until virtual time [until].  Failed pulls are skipped (the replica goes
    stale), exactly the "cached data may be stale" behaviour of §3. *)
val host_replica :
  t -> set_id:int -> of_:Weakset_net.Nodeid.t -> interval:float -> until:float -> unit

(** Current replica view (version, members).  Raises [Not_found] if this
    node does not replicate [set_id]. *)
val replica_view : t -> set_id:int -> Version.t * Oid.Set.t

(** Force one synchronous anti-entropy pull now (returns [false] if the
    coordinator was unreachable).  Must run in fiber context. *)
val replica_pull_now : t -> set_id:int -> bool

(** {1 Consensus attachment}

    A replication group ([Weakset_repl.Group]) plugs into a node server
    through these hooks: client-facing directory mutations detour
    through [repl_submit] (answered only once quorum-committed, or
    redirected with [Not_leader]), and incoming [Protocol.Repl] traffic
    is dispatched to [repl_handle].  Committed entries come back through
    {!repl_apply_committed}, so the hosted [Directory.t] holds committed
    state only. *)

type repl_hooks = {
  repl_submit : set_id:int -> Directory.op -> Protocol.response option;
      (** [None]: the group does not govern [set_id]; the server applies
          the mutation locally as before *)
  repl_governs : set_id:int -> bool;
      (** does the group govern [set_id]?  A pure membership question,
          consulted where the server must decide to park a reply (ghost
          deferral) without submitting anything yet.  Under a governed
          set, a remove deferred by the ghost policy is {e not} Acked at
          deferral time — the reply waits until the remove actually
          quorum-commits when the last iterator closes, so the group's
          visibility rule (client-visible only after strict-majority
          ack) also covers deferred mutations. *)
  repl_handle : Protocol.repl_request -> Protocol.response;
}

val attach_repl : t -> repl_hooks -> unit

(** Apply a quorum-committed op to the hosted directory, firing mutation
    hooks and lease callbacks exactly like a local mutation.  Raises
    [Not_found] if this node does not host [set_id]. *)
val repl_apply_committed : t -> set_id:int -> Directory.op -> unit

(** [on_directory_mutation t ~set_id hook] registers [hook] to run after
    every {e effective} mutation of a hosted directory (idempotent
    re-adds/removes do not fire; deferred ghost removals fire when
    actually applied).  Used by the specification monitor to capture
    mutation states.  Returns an unsubscribe function.  Raises
    [Not_found] if [set_id] is not hosted here. *)
val on_directory_mutation : t -> set_id:int -> (Directory.op -> unit) -> unit -> unit
