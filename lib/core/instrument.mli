(** Bridges real iterator runs to the specification monitor.

    The instrument has {e omniscient} access to the coordinator's
    directory (direct memory reads, not RPC): in a discrete-event
    simulation, reading it at the client's decision instant gives the
    exact value of [s] in that state, so recorded computations are
    ground truth even though the implementation under test only ever sees
    RPC responses.  Mutations by any process are captured via the
    coordinator's mutation hook.

    Capture points that correspond to a membership {e read} accept the
    member list the reply delivered as [?linearised]: a mutation landing
    while that reply is in flight makes the directory-at-receipt diverge
    from the view the implementation decides on, and judging the decision
    against a state it never saw produces phantom violations.  With
    [?linearised] the recorded [s] is the linearisation-point value;
    [accessible] is still computed at the capture instant.

    Because linearised views are excluded from the type-constraint scan
    (see {!Weakset_spec.Constraint_clause}), the instrument keeps a
    per-version record of the coordinator's membership and, when the
    reply's [?version] is supplied alongside [?linearised], cross-checks
    the delivered view against it — a corrupt read path raises
    {!Corrupt_view} instead of silently skewing the computation. *)

type t

(** [attach ~client ~server ~set_id] creates an instrument for the
    collection coordinated by [server] and registers its mutation hook.
    Raises [Not_found] if [server] does not host [set_id]. *)
val attach :
  client:Weakset_store.Client.t -> server:Weakset_store.Node_server.t -> set_id:int -> t

(** Unregister the mutation hook (the recorded computation stops growing;
    call when the instrumented run is over). *)
val detach : t -> unit

(** The monitor the capture points drive.  Arm it with
    {!Weakset_spec.Monitor.judge} before the iterator's first invocation
    to check the run online. *)
val monitor : t -> Weakset_spec.Monitor.t

val computation : t -> Weakset_spec.Computation.t

(** Oid → spec element (id = oid number, label = printed oid). *)
val elem_of_oid : Weakset_store.Oid.t -> Weakset_spec.Elem.t

(** The authoritative membership at a directory version, from this
    instrument's per-version history; [None] for versions predating its
    attachment.  This is the ground truth cache-coherence properties are
    checked against: a cache-served view at version [v] must equal
    [membership_at v]. *)
val membership_at :
  t -> Weakset_store.Version.t -> Weakset_store.Oid.Set.t option

(** {1 Capture points, called by iterator implementations} *)

(** Raised when a linearised view contradicts the directory's recorded
    membership at the reply's version. *)
exception Corrupt_view of string

val observe_first :
  ?version:Weakset_store.Version.t -> ?linearised:Weakset_store.Oid.Set.t -> t -> unit

val invocation_started : t -> unit

val invocation_retry :
  ?version:Weakset_store.Version.t -> ?linearised:Weakset_store.Oid.Set.t -> t -> unit

val invocation_completed : t -> Weakset_spec.Sstate.termination -> unit

(** Spec termination value for yielding [oid]. *)
val suspends : Weakset_store.Oid.t -> Weakset_spec.Sstate.termination

(** [check t spec] validates the recorded computation, under the planted
    bugs of the client's engine. *)
val check : t -> Weakset_spec.Figures.spec -> Weakset_spec.Figures.verdict
