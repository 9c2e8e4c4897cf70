(** The [elements] iterator handed to clients.

    Mirrors the paper's iterator model: each call to {!next} is one
    invocation; it either {e suspends} yielding an element (with its
    fetched contents), {e returns} (no more elements), or {e fails} (a
    detected, unrepaired failure under pessimistic semantics).  After
    [Done] or [Failed], further calls return the same outcome.  {!close}
    releases any distributed resources (read locks, ghost registrations)
    and may be called at any time, including to abandon an iteration
    early. *)

type outcome =
  | Yield of Weakset_store.Oid.t * Weakset_store.Svalue.t
  | Done
  | Failed of Weakset_store.Client.error

type t

(** [make ~next ~close] wraps an implementation.  The wrapper enforces
    that a terminal outcome is sticky and that [close] runs exactly once
    (automatically on [Done]/[Failed], or explicitly). *)
val make : next:(unit -> outcome) -> close:(unit -> unit) -> t

(** One invocation.  Blocks the calling fiber. *)
val next : t -> outcome

(** Release distributed resources; idempotent.  Like {!next}, must be
    called from fiber context (releasing a lock or a ghost registration
    is an RPC). *)
val close : t -> unit

val closed : t -> bool

(** [drain ?limit t] repeatedly calls {!next}, returning the yielded
    elements in order and how the iteration ended.  [`Limit] means [limit]
    yields happened without termination (used to bound grow-only runs that
    may never terminate, §3.3). *)
val drain :
  ?limit:int ->
  t ->
  (Weakset_store.Oid.t * Weakset_store.Svalue.t) list
  * [ `Done | `Failed of Weakset_store.Client.error | `Limit ]
