(** Slash-separated paths for the simulated distributed file system. *)

type t

(** [of_string "/a/b/c"] — leading slash optional, empty segments
    dropped. *)
val of_string : string -> t

val to_string : t -> string
val segments : t -> string list
val basename : t -> string option
val parent : t -> t option

(** [child t name] appends a segment. *)
val child : t -> string -> t

val root : t
val is_root : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
