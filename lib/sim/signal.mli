(** Broadcast condition variables for fibers.

    Unlike {!Ivar}, a signal can fire many times: each {!broadcast} wakes
    every fiber currently parked in {!wait}.  Used, for example, by the
    fault injector to announce topology changes so optimistic iterators can
    retry after a partition heals. *)

type t

val create : unit -> t

(** Number of broadcasts so far (useful to detect missed wakeups). *)
val generation : t -> int

(** [wait eng s] parks the calling fiber until the next broadcast. *)
val wait : Engine.t -> t -> unit

(** [wait_timeout eng s d] waits for a broadcast for at most [d] time units;
    returns [true] if woken by a broadcast, [false] on timeout.  A
    broadcast that comes first cancels the timeout ({!Engine.cancel}). *)
val wait_timeout : Engine.t -> t -> float -> bool

(** [broadcast eng s] wakes all current waiters. *)
val broadcast : Engine.t -> t -> unit
