(** Simulated-time profiler: attributes each fiber's virtual lifetime to
    wait categories, from the bus event stream alone.

    {2 Accounting model}

    Fiber run slices have zero virtual duration — the engine only
    advances time between event-queue pops — so all of a fiber's
    lifetime is waiting, and the profiler classifies those waits using
    the [Run_end] park reason plus the fiber's outstanding-RPC count:

    - {!Runnable}: parked by [yield] (ready, waiting its turn);
    - {!Sleep}: parked by a timer with no RPC in flight;
    - {!Blocked}: parked on an ivar/signal/mailbox with no RPC in flight;
    - {!Rpc}: parked (any reason) while at least one RPC issued by this
      fiber is still in flight.

    Invariant (checked by tests): for every fiber,
    [sleep + blocked + rpc + runnable = (end time | profile stop) -
    spawn time], where the profile stop is the time of the last event
    seen.  The profiler assumes a single engine per bus (one run slice
    active at a time). *)

type t

(** Wait categories, in the sense of the accounting model above. *)
type wait = Sleep | Blocked | Rpc | Runnable

val wait_label : wait -> string

val create : unit -> t

(** Feed one event.  Raises [Invalid_argument] after {!finish}. *)
val handle : t -> Event.t -> unit

(** [sink t] is [handle t], for [Bus.attach]. *)
val sink : t -> Bus.sink

(** Close the open wait of every live fiber at the last event time.
    Idempotent; implied by every view below. *)
val finish : t -> unit

(** Build a finished profile from a recorded stream. *)
val of_events : Event.t list -> t

(** Number of events seen. *)
val events : t -> int

(** [(first, last)] event timestamps ([0., 0.] if no events). *)
val span : t -> float * float

type fiber_info = {
  i_fid : int;
  i_name : string;
  i_spawned : float;
  i_ended : float option;  (** [None]: still live at profile stop *)
  i_crashed : bool;
  i_slices : int;          (** number of run slices *)
  i_sleep : float;
  i_blocked : float;
  i_rpc : float;
  i_runnable : float;
}

type op_info = { o_name : string; o_calls : int; o_total : float; o_max : float }

(** Per-fiber attribution, sorted by fiber id. *)
val fiber_infos : t -> fiber_info list

(** Per-op (span name) totals, sorted by name. *)
val op_infos : t -> op_info list

(** Folded-stack flamegraph text: one
    ["fiber;span;...;category value\n"] line per stack, sorted, where
    the leaf is the wait category and value is attributed virtual time. *)
val folded : t -> string

(** Human-readable top-[k] hot-fiber (aggregated by name) and hot-op
    tables. *)
val render_top : ?k:int -> t -> string
