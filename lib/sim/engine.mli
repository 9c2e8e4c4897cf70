(** Deterministic discrete-event simulation engine with cooperative fibers.

    The engine maintains a virtual clock and a binary heap of events.
    Fibers are ordinary OCaml functions executed under an effect handler:
    when a fiber performs {!sleep} or {!suspend} it is parked and the engine
    proceeds to the next event.  Ties in the event queue are broken by a
    monotonically increasing sequence number, so runs are exactly
    reproducible.

    A fiber that raises an uncaught exception does not abort the simulation;
    the crash is recorded and visible through {!crashes} so tests can assert
    that no fiber died unexpectedly. *)

type t

(** A record of a fiber that terminated with an uncaught exception. *)
type crash = {
  crash_time : float;    (** virtual time of the crash *)
  crash_fiber : string;  (** fiber name *)
  crash_exn : exn;
}

(** [create ?seed ?bus ?planted ()] makes a fresh engine with virtual
    time 0.  [seed] (default [1L]) initialises the engine's root
    {!Rng.t}.  [bus] (fresh by default) is the observability bus every
    subsystem of this engine publishes typed events to; pass one in to
    share a metrics registry across engines.  [planted] (default
    {!Weakset_obs.Planted.none}) arms mutation-test bugs for this engine
    only. *)
val create :
  ?seed:int64 -> ?bus:Weakset_obs.Bus.t -> ?planted:Weakset_obs.Planted.t -> unit -> t

(** Current virtual time. *)
val now : t -> float

(** The engine's root random stream.  Subsystems should {!Rng.split} it. *)
val rng : t -> Rng.t

(** The engine's typed event bus.  All subsystems (net, store, dynamic,
    spec instrumentation) publish {!Weakset_obs.Event.t}s here; attach
    ring/JSONL/digest sinks to observe a run.  Every scheduler handoff
    to a fiber is bracketed by [Run_begin]/[Run_end] events (the legacy
    [Tracer] mirror is gone), so profilers can attribute waiting time
    per fiber. *)
val bus : t -> Weakset_obs.Bus.t

(** The planted bugs this engine was created with; every subsystem that
    hosts one reads it here. *)
val planted : t -> Weakset_obs.Planted.t

(** [fresh_token t] is a positive integer no earlier call on [t]
    returned: identities (lock owners) that need only be distinct within
    one simulation. *)
val fresh_token : t -> int

(** Shorthand for [Weakset_obs.Bus.metrics (bus t)]. *)
val metrics : t -> Weakset_obs.Metrics.t

(** [schedule t ~after f] runs callback [f] at virtual time [now t +. after].
    [after] must be non-negative.  It is {!timer} with the handle
    dropped. *)
val schedule : t -> after:float -> (unit -> unit) -> unit

(** {1 Cancellable timers}

    A timer is a scheduled callback with a handle.  Every event, timer
    or not, owns a {e tick}: its [(time, seq)] slot in the event order.
    {!cancel} removes the callback but keeps the tick, so {!run} still
    spends one step on it and advances the clock to its time exactly as
    if a no-op callback had fired there.  Cancelling therefore changes
    no step count, no [now] and no event: only the memory the dead
    callback held and the heap work of carrying it. *)

type timer

(** [timer t ~after f] is {!schedule} and returns a handle for
    {!cancel}.  The [Sched] event is emitted here, as for {!schedule},
    whether or not the timer is cancelled later. *)
val timer : t -> after:float -> (unit -> unit) -> timer

(** [cancel t tm] drops [tm]'s callback, in O(log n), if it has not run
    yet; its tick stays (see above).  Cancelling a timer that has
    already fired, or cancelling twice, does nothing.  Raises
    [Invalid_argument] for a pending timer of another engine. *)
val cancel : t -> timer -> unit

(** A handle that is never pending, so {!cancel} ignores it.  It
    initialises a mutable timer field before the timer is armed. *)
val no_timer : timer

(** Events waiting to run, cancelled ones excluded. *)
val pending : t -> int

(** [spawn t ~name f] starts fiber [f] at the current virtual time. *)
val spawn : t -> ?name:string -> (unit -> unit) -> unit

(** Number of fibers that have been spawned and not yet finished. *)
val live_fibers : t -> int

(** Fibers that terminated with an uncaught exception, oldest first. *)
val crashes : t -> crash list

(** {1 Operations usable only inside a fiber} *)

(** [sleep t d] parks the calling fiber for [d] units of virtual time. *)
val sleep : t -> float -> unit

(** [yield t] reschedules the calling fiber at the current time, letting
    other ready fibers run first. *)
val yield : t -> unit

(** [suspend t register] parks the calling fiber.  [register] is called
    immediately with a [resume] function; whoever calls [resume (Ok v)]
    (or [resume (Error e)]) first wakes the fiber with [v] (or raises [e]
    inside it).  Later calls to [resume] are ignored, which makes racing a
    timer against a wakeup safe. *)
val suspend : t -> ((('a, exn) result -> unit) -> unit) -> 'a

(** {1 Running} *)

(** [run ?until ?max_steps t] processes events in [(time, seq)] order
    until the queue is empty, virtual time would exceed [until], or
    [max_steps] events have run.  The tick of a cancelled timer counts as
    an event here.  Returns the number of events processed. *)
val run : ?until:float -> ?max_steps:int -> t -> int

(** [run_and_check t] runs to quiescence and raises [Failure] if any fiber
    crashed, including the first crash's exception text in the message. *)
val run_and_check : t -> unit
