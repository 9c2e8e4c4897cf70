(** Bounded in-memory event buffer: keeps the most recent [capacity]
    events, dropping the oldest when full.  The sink of choice for tests
    and post-mortem inspection of long runs. *)

type t

(** Raises [Invalid_argument] if [capacity <= 0]. *)
val create : capacity:int -> t

val capacity : t -> int
val length : t -> int

(** Events overwritten so far. *)
val dropped : t -> int

val push : t -> Event.t -> unit

(** Oldest first. *)
val to_list : t -> Event.t list

(** [sink r] is [push r], for {!Bus.attach}. *)
val sink : t -> Bus.sink
