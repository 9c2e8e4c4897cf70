(** Abstract elements of the specified set.

    The specification layer is deliberately independent of the store: an
    element is an integer identity plus a human-readable label used in
    counterexample reports.  Instrumentation layers map their own element
    types (oids, file paths, ...) onto these. *)

type t

(** [make ?label id] — [label] defaults to ["e<id>"]. *)
val make : ?label:string -> int -> t

val id : t -> int
val label : t -> string

(** Identity is by [id] only; labels are presentation. *)
val equal : t -> t -> bool

val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

module Set : sig
  include Set.S with type elt = t

  val pp : Format.formatter -> t -> unit
end
