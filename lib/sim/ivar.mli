(** Write-once synchronisation cells ("promises") for fibers.

    An ivar starts empty; {!fill} writes it exactly once and wakes every
    fiber parked in {!read}.  Reads after the fill return immediately. *)

type 'a t

val create : unit -> 'a t

(** [peek iv] returns the value if filled, without blocking. *)
val peek : 'a t -> 'a option

(** [fill eng iv v] writes [v] and wakes all waiters.
    Raises [Invalid_argument] if already full. *)
val fill : Engine.t -> 'a t -> 'a -> unit

(** [try_fill eng iv v] is [fill] but returns [false] instead of raising
    when already full. *)
val try_fill : Engine.t -> 'a t -> 'a -> bool

(** [read eng iv] parks the calling fiber until the ivar is filled. *)
val read : Engine.t -> 'a t -> 'a

(** [read_timeout eng iv d] is [Some v] if the ivar is filled within [d]
    units of virtual time, [None] otherwise.  A fill that comes first
    cancels the timeout ({!Engine.cancel}); its tick stays. *)
val read_timeout : Engine.t -> 'a t -> float -> 'a option
