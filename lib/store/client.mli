(** Client-side access to the distributed store, from a particular node.

    All operations block the calling fiber and surface failures as values.
    [Unreachable] corresponds to the paper's detected-failure case (the
    lower layers signal a partition); [Timeout] to a message lost in
    flight. *)

type error =
  | Unreachable
  | Timeout
  | No_such_object  (** the home node answered but no longer holds the object *)
  | No_service      (** the target node does not host the requested set *)
  | Overloaded
      (** the server shed the request (admission control) and the client
          either has no retry budget or spent its per-call attempts *)
  | Budget_exhausted
      (** the server shed the request and the client's token-bucket
          retry budget ran dry — distinct from [Unreachable]: the server
          is up, the {e client} is out of retries *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

type rpc = (Protocol.request, Protocol.response) Weakset_net.Rpc.t

(** Client-side retry policy for [Overloaded] sheds.  One token-bucket
    budget is shared across every copy of the client ({!with_timeout} /
    {!with_span_parent}): [retry_burst] tokens, refilling at
    [retry_refill] tokens per unit of virtual time; each retry spends
    one.  Backoff before attempt [k+1] is the server's [retry_after]
    hint plus a uniform draw from
    [\[0, min retry_backoff_max (retry_backoff · 2^k))] taken from
    [retry_rng] — hand each client its own {!Weakset_sim.Rng.split}
    stream and the whole schedule is a pure function of the seed.
    [retry_attempts] bounds retries per call; spending them surfaces
    [Overloaded], an empty bucket surfaces [Budget_exhausted]. *)
type retry_config = {
  retry_rng : Weakset_sim.Rng.t;
  retry_burst : int;
  retry_refill : float;
  retry_backoff : float;
  retry_backoff_max : float;
  retry_attempts : int;
}

type t

(** [create ?timeout ?cache ?retry rpc node] — [timeout] (default 30)
    bounds each call.  [cache] enables the coherent lease cache
    ({!Cache}): membership reads become [Dir_read_leased] and are served
    locally while leased, object fetches fill a bounded LRU pool, and an
    RPC interceptor is installed on [node] to receive the server's
    [Inval] callbacks.  At most one lease-cached client per node (a
    second [create ?cache] on the same node replaces the interceptor).
    [retry] enables the overload retry budget ({!retry_config});
    without it an [Overloaded] shed surfaces immediately as
    [Error Overloaded]. *)
val create :
  ?timeout:float ->
  ?cache:Cache.config ->
  ?retry:retry_config ->
  rpc ->
  Weakset_net.Nodeid.t ->
  t

(** Current retry-token balance (refilled to now); [None] without a
    retry budget.  For tests and gauges. *)
val retry_tokens : t -> float option

(** The lease cache enabled at {!create} time, if any. *)
val lease_cache : t -> Cache.t option

val node : t -> Weakset_net.Nodeid.t
val rpc : t -> rpc
val engine : t -> Weakset_sim.Engine.t
val topology : t -> Weakset_net.Topology.t

(** A copy of the client with a different per-call timeout. *)
val with_timeout : t -> float -> t

(** [with_span_parent t span] is a copy of the client whose operations
    run under [span] as their enclosing span: each operation runs in its
    own [client.*] span, parented under [span], and that span in turn
    parents the RPC — so a whole request reconstructs as one trace tree.
    This is the one way to parent a client span, also through code
    (e.g. {!Weak_set} iteration) that does not thread span ids itself:
    an open-loop load harness hands each request a client scoped to the
    request's span, and an ls scopes its client to the ls span.  The
    copy shares all mutable state (lease cache, retry budget) with
    [t]. *)
val with_span_parent : t -> int -> t

(** {1 Objects} *)

(** [fetch t oid] retrieves the contents — from the lease cache when it
    holds them, otherwise from the home node; successful fetches fill
    the lease cache when there is one. *)
val fetch : t -> Oid.t -> (Svalue.t, error) result

(** [fetch_many t oids] coalesces fetches: lease-cache hits are answered
    with zero RPCs, and the misses go out as one [Fetch_batch] round
    trip per distinct home node.  Results are returned in input order,
    each with its own outcome. *)
val fetch_many : t -> Oid.t list -> (Oid.t * (Svalue.t, error) result) list

(** Lease-cache-only probe: the cached value if present and inside its
    lease (bumping its LRU position), with no network and no recorded
    miss.  [None] when the client has no lease cache. *)
val peek : t -> Oid.t -> Svalue.t option

(** {1 Directory operations} *)

(** [dir_read t ~from ~set_id] reads membership from node [from] (the
    coordinator for an authoritative read, a replica for a possibly stale
    one).  With a lease cache, a valid cached view is served instead —
    zero RPCs — and a miss asks [from] for a leased read; coordinators
    grant a lease (and promise an [Inval] callback), replicas answer
    unleased so stale replica views are never cached. *)
val dir_read :
  t ->
  from:Weakset_net.Nodeid.t ->
  set_id:int ->
  (Version.t * Oid.t list, error) result

(** [dir_read_direct] is an authoritative uncached read: it always goes
    to [from] and never consults nor populates the lease cache.  A
    linearizable iterator pins its snapshot on the version this
    returns. *)
val dir_read_direct :
  t ->
  from:Weakset_net.Nodeid.t ->
  set_id:int ->
  (Version.t * Oid.t list, error) result

(** [dir_read_at t ~from ~set_id ~version] asks the coordinator to
    reconstruct the membership exactly as it stood at [version]
    (snapshot-at-version, {!Protocol.request.Dir_read_at}).  A [version]
    beyond the directory's head is answered with the head's membership
    and version.  Never cached; replicas answer [No_service]. *)
val dir_read_at :
  t ->
  from:Weakset_net.Nodeid.t ->
  set_id:int ->
  version:Version.t ->
  (Version.t * Oid.t list, error) result

val dir_add : t -> Protocol.set_ref -> Oid.t -> (unit, error) result
val dir_remove : t -> Protocol.set_ref -> Oid.t -> (unit, error) result
val dir_size : t -> Protocol.set_ref -> (int, error) result

(** {1 Locks and iterator registration (on the coordinator)} *)

(** [lock_acquire t sref kind] blocks until granted; returns the owner
    token to pass to {!lock_release}, drawn from the engine's
    {!Weakset_sim.Engine.fresh_token}, so distinct within the run. *)
val lock_acquire : t -> Protocol.set_ref -> Lockmgr.kind -> (int, error) result

val lock_release : t -> Protocol.set_ref -> owner:int -> (unit, error) result
val iter_open : t -> Protocol.set_ref -> (unit, error) result
val iter_close : t -> Protocol.set_ref -> (unit, error) result

(** {1 Reachability helpers} *)

(** [reachable_oids t oids] filters to the oids whose home node is
    currently reachable from this client — the client-observable
    [reachable(s)] of the paper. *)
val reachable_oids : t -> Oid.Set.t -> Oid.Set.t

(** [nearest_dir_host t sref] picks the reachable membership host
    (coordinator or replica) with the smallest path latency; [None] if
    none is reachable. *)
val nearest_dir_host : t -> Protocol.set_ref -> Weakset_net.Nodeid.t option
