(** Unbounded FIFO message queues connecting fibers.

    [send] never blocks; [recv] parks the calling fiber until a message is
    available.  Receivers are served in FIFO order. *)

type 'a t

val create : unit -> 'a t

(** Messages currently queued (not counting parked receivers). *)
val length : 'a t -> int

(** [send eng mb msg] enqueues [msg], waking the oldest live receiver. *)
val send : Engine.t -> 'a t -> 'a -> unit

(** [recv eng mb] parks until a message arrives, then dequeues it. *)
val recv : Engine.t -> 'a t -> 'a

(** [recv_timeout eng mb d] is [Some msg] if one arrives within [d] time
    units, [None] otherwise.  A message that arrives first cancels the
    timeout ({!Engine.cancel}): its callback leaves the event heap and
    only its tick stays, so a long [d] costs no memory once answered. *)
val recv_timeout : Engine.t -> 'a t -> float -> 'a option

(** [try_recv mb] dequeues without blocking. *)
val try_recv : 'a t -> 'a option
