(** The event bus: where every subsystem publishes its {!Event.t}s.

    A bus owns the event sequence counter, a {!Metrics.t} registry, and a
    list of named sinks.  With no sinks attached, {!emit} is a cheap
    no-op — components can emit unconditionally on hot paths and pay
    only when someone is listening.  Sinks are called synchronously in
    attach order, so a deterministic simulation produces a deterministic
    event stream. *)

type t

(** A sink receives every event published after it is attached. *)
type sink = Event.t -> unit

(** [create ()] makes a bus with a fresh metrics registry (or the one
    given). *)
val create : ?metrics:Metrics.t -> unit -> t

val metrics : t -> Metrics.t

(** [attach t ~name sink] registers [sink]; a later [attach] with the
    same name replaces it. *)
val attach : t -> name:string -> sink -> unit

val detach : t -> name:string -> unit

(** [enabled]/[set_enabled]: master switch; when off, [emit] drops
    events (metrics are unaffected). *)
val set_enabled : t -> bool -> unit

val enabled : t -> bool

(** [active t] holds iff [emit] would deliver: the bus is enabled and at
    least one sink is attached.  Hot emitters test it to skip building
    an event payload nobody reads; an emit whose argument has a side
    effect must not be guarded. *)
val active : t -> bool

(** [emit t ~time kind] stamps the event with the next sequence number
    and fans it out to all sinks.  No-op when disabled or no sinks. *)
val emit : t -> time:float -> Event.kind -> unit

(** Number of events emitted so far (= next sequence number). *)
val seq : t -> int

(** {1 Spans} *)

(** Fresh span id, unique within this bus. *)
val fresh_span : t -> int

(** [with_span t ~time ?node ?parent name f] emits [Span_start], runs
    [f ()], then emits [Span_end] with the elapsed virtual time — also
    when [f] raises (the exception is re-raised).  [time] is called at
    entry and exit, so pass [fun () -> Engine.now eng].  [parent] links
    this span under an enclosing one in the reconstructed trace tree.
    Skips event emission entirely when the bus has no sinks. *)
val with_span :
  t -> time:(unit -> float) -> ?node:int -> ?parent:int -> string -> (unit -> 'a) -> 'a

(** Like {!with_span}, but [f] receives the span's id so it can thread
    it further down as the [parent] of nested spans, RPC calls, or store
    operations.  The id is allocated (and the counter advanced) even
    when no sink is attached, so span-id sequences do not depend on who
    is listening. *)
val with_span_id :
  t -> time:(unit -> float) -> ?node:int -> ?parent:int -> string -> (int -> 'a) -> 'a
