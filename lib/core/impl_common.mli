(** Shared plumbing for the iterator implementations: the per-iterator
    context, element choice (a candidate pool picked closest reachable
    first, with a deterministic tie-break), instrumentation shims, and
    blocking/backoff helpers. *)

type ctx = {
  client : Weakset_store.Client.t;
  sref : Weakset_store.Protocol.set_ref;
  instrument : Instrument.t option;
  heal_signal : Weakset_sim.Signal.t option;
      (** topology-change signal; optimistic iterators park on it *)
  retry_backoff : float;  (** poll interval when no signal is available *)
  lock_timeout : float;   (** how long lock acquisition may block *)
  max_fetch_attempts : int;
      (** pessimistic iterators give up on an element after this many
          failed fetches of a supposedly reachable home *)
}

val make_ctx :
  ?instrument:Instrument.t ->
  ?heal_signal:Weakset_sim.Signal.t ->
  ?retry_backoff:float ->
  ?lock_timeout:float ->
  ?max_fetch_attempts:int ->
  Weakset_store.Client.t ->
  Weakset_store.Protocol.set_ref ->
  ctx

val engine : ctx -> Weakset_sim.Engine.t

(** {1 Choosing the next element}

    A candidate pool holds the not-yet-yielded candidates of one
    membership list (its {e source}), bucketed by home node, each bucket
    in ascending oid order.  {!pick} chooses closest-first from it; the
    iterator removes an element once it is yielded, or once it is known
    to be gone for good, and replaces the pool only when a membership
    read returns a list that is not physically the source.  The store
    hands out one shared list per membership value
    ({!Weakset_store.Directory.elements}), so re-reading an unchanged
    directory keeps the pool.

    {b Cost.}  {!pick} is O(homes): one [Topology.path_latency] per
    non-empty bucket.  {!Pool.remove} is O(1).  {!Pool.of_list} is O(n)
    plus the [skip] tests, and runs only when the reply list changes. *)

module Pool : sig
  type t

  (** [of_list ~skip source] pools the members of [source] for which
      [skip] is false.  [source] must be ascending and duplicate-free, as
      every membership reply is (an [Oid.Set.elements] list). *)
  val of_list : skip:(Weakset_store.Oid.t -> bool) -> Weakset_store.Oid.t list -> t

  (** The pool of [[]]: what an iterator holds before its first read. *)
  val empty : t

  (** [refresh t ~skip source] is [t] itself when [t] was built from
      [source] (physically: [==]), else [of_list ~skip source].  Identity,
      not the version number, is the key: one version can carry
      different members (a view change, a stale replica), while one list
      never changes.  Reuse is exact only if every element the caller
      has since added to [skip] was also {!remove}d. *)
  val refresh : t -> skip:(Weakset_store.Oid.t -> bool) -> Weakset_store.Oid.t list -> t

  val is_empty : t -> bool

  (** The remaining candidates, in no particular order. *)
  val elements : t -> Weakset_store.Oid.t list

  (** [remove t oid] drops [oid] (a yield, or a member found gone for
      good).  [oid] must be the lowest candidate left on its home, as a
      {!pick} result of [t] is until it is removed; raises
      [Invalid_argument] if it is not. *)
  val remove : t -> Weakset_store.Oid.t -> unit
end

(** [pick ctx pool] is the candidate with the closest (cheapest-path)
    reachable home: the minimum over [pool] on
    [(path latency, Oid.num, home)], skipping unreachable homes, which
    is the first strictly better [(latency, num)] in ascending oid order.
    Each bucket's head is its minimum, so only heads are compared.
    [None] if the pool is empty or no candidate's home is reachable. *)
val pick : ctx -> Pool.t -> Weakset_store.Oid.t option

(** Park until the topology changes: waits on the heal signal when
    available (re-checking the generation to avoid lost wakeups), else
    sleeps [retry_backoff]. *)
val wait_for_change : ctx -> seen_generation:int -> unit

(** Current heal-signal generation (0 when no signal). *)
val signal_generation : ctx -> int

(** {1 Instrumentation shims (no-ops when not instrumented)} *)

(** Stop recording (detach the instrument's mutation hook); called by
    every implementation at close, {e before} releasing distributed
    resources, so post-run activity (ghost GC, lock handover) stays
    outside the recorded computation. *)
val inst_detach : ctx -> unit

(** [?linearised] is the member list the implementation's membership
    read delivered; the instrument records it as [s] instead of the
    directory-at-receipt, so the monitored pre-state is exactly the view
    the decision linearised on.  Pass the reply's [?version] with it so
    the instrument can cross-check the view against the directory's
    recorded membership at that version (see {!Instrument}).  The list
    is turned into a set only when an instrument is attached. *)
val inst_first :
  ?version:Weakset_store.Version.t -> ?linearised:Weakset_store.Oid.t list -> ctx -> unit

val inst_started : ctx -> unit

val inst_retry :
  ?version:Weakset_store.Version.t -> ?linearised:Weakset_store.Oid.t list -> ctx -> unit
val inst_completed : ctx -> Weakset_spec.Sstate.termination -> unit

(** [inst_yield ctx oid] = [inst_completed ctx (Suspends oid)]. *)
val inst_yield : ctx -> Weakset_store.Oid.t -> unit
