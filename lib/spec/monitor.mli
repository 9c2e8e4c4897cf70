(** The spec monitor: builds a {!Computation.t} while an iterator
    implementation runs and, once armed with {!judge}, checks it online.

    The paper models each invocation as an atomic transition, but real
    optimistic implementations block and retry inside an invocation.  The
    monitor therefore buffers the invocation's pre-state and lets the
    implementation {e refresh} it at each decisive directory read; the
    recorded pre-state is the one from the read the implementation
    actually acted on (the invocation's linearisation point).  An
    invocation that never completes (the iterator was still blocked when
    the run ended) leaves no pre/post pair, only {!blocked} = true.

    {b Online judging.}  A monitor armed with {!judge} checks the
    computation while it grows.  After every capture point, two checks
    run:

    - {b always}: the spec's [constraint] clause between the newest state
      and its predecessor.  The clauses are reflexive and transitive, so
      the consecutive-pair check is {e exactly} the all-pairs check; it
      costs one set comparison per state.  (Skipped for [During_run]-scoped
      specs, whose constraint window is only known when the run ends.)
    - {b sampled}: on every 16th capture, a full {!Visibility.check}
      (ensures clauses, yielded discipline, optimistic guarantees) over
      the computation so far.

    Each new violation (deduped by clause, message and state index) is
    latched and published once as a [Spec_violation] event on the judge's
    bus, at the capture's time.  {!finish} runs one last full check, so
    the latched set contains every violation a post-run check of the same
    computation finds.  Captures after {!finish} still grow the
    computation but are no longer judged. *)

type t

val create : unit -> t

val computation : t -> Computation.t

(** Value of the [yielded] history object as tracked by the monitor. *)
val yielded : t -> Elem.Set.t

(** Number of completed invocations. *)
val completed_invocations : t -> int

(** True while an invocation has started but not completed. *)
val blocked : t -> bool

(** {1 Capture points} *)

(** Record the first-state (once, before any invocation). *)
val observe_first : t -> time:float -> s:Elem.Set.t -> accessible:Elem.Set.t -> unit

(** Start an invocation, buffering its candidate pre-state. *)
val invocation_started : t -> time:float -> s:Elem.Set.t -> accessible:Elem.Set.t -> unit

(** Replace the buffered pre-state (the implementation re-read the
    directory while blocked). *)
val invocation_retry : t -> time:float -> s:Elem.Set.t -> accessible:Elem.Set.t -> unit

(** Complete the invocation: appends the buffered pre-state and the
    post-state, updating [yielded] on [Suspends]. *)
val invocation_completed :
  t -> time:float -> term:Sstate.termination -> s:Elem.Set.t -> accessible:Elem.Set.t -> unit

(** Record a mutation of the set (by any process). *)
val observe_mutation :
  t -> time:float -> op:Sstate.mutation -> s:Elem.Set.t -> accessible:Elem.Set.t -> unit

(** {1 Online judging} *)

(** [judge ?planted t ~bus ~set_id spec] arms [t] to check its
    computation against [spec] from the next capture on, publishing
    violations as [Spec_violation] events for [set_id] on [bus].  Every
    check passes [planted] (default {!Weakset_obs.Planted.none}) to
    {!Visibility.check}.  Raises [Invalid_argument] if [t] is already
    judged or has recorded a state (or started an invocation). *)
val judge :
  ?planted:Weakset_obs.Planted.t ->
  t ->
  bus:Weakset_obs.Bus.t ->
  set_id:int ->
  Figures.spec ->
  unit

(** [finish t ~time] runs the final full check at virtual time [time]
    and returns its verdict; later captures are no longer judged.
    Raises [Invalid_argument] if [t] is not judged or already finished. *)
val finish : t -> time:float -> Figures.verdict

(** Distinct latched violations in discovery order ([[]] when not
    judged). *)
val violations : t -> Figures.violation list

(** Number of sampled and final full checks run (0 when not judged). *)
val full_checks : t -> int

(** Number of captures judged (0 when not judged). *)
val observes : t -> int
