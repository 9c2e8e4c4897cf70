(** The membership directory of one collection: the server-side ground
    truth of "the value of [s]" in the paper's specifications.

    Every mutation bumps the version and is appended to a log, so replicas
    can pull deltas ([ops_since]) and the specification monitor can
    reconstruct the value of [s] at any past state.

    {b Shared member lists.}  {!elements} hands out one [Oid.t list] per
    membership value: re-reading a directory that has not changed returns
    the physically same list, and a reader may key work it derived from a
    reply on that identity ([==]).  A list is never mutated; an effective
    {!apply} makes the next read build a fresh one in O(n).  Identity, not
    the version number, is the sound key: two equal lists may come from
    different versions, and a stale replica can serve a version's number
    with other members. *)

type op = Add of Oid.t | Remove of Oid.t

val pp_op : Format.formatter -> op -> unit

type t

val create : unit -> t
val version : t -> Version.t
val members : t -> Oid.Set.t
val mem : t -> Oid.t -> bool
val size : t -> int

(** [apply t op] applies the mutation (idempotent: adding a present member
    or removing an absent one does not bump the version) and returns the
    resulting version. *)
val apply : t -> op -> Version.t

(** [ops_since t v] returns the mutations with version > [v], oldest
    first. *)
val ops_since : t -> Version.t -> (Version.t * op) list

(** [members_at t v] reconstructs the membership as of version [v]
    (clamped to the current version). *)
val members_at : t -> Version.t -> Oid.Set.t

(** [elements t] is [Oid.Set.elements (members t)], shared: it is the
    physically same list until an effective {!apply} changes the
    membership (idempotent no-ops keep it). *)
val elements : t -> Oid.t list

(** [elements_at t v] is [Oid.Set.elements (members_at t v)]: {!elements}
    at or beyond the head, a fresh list below it. *)
val elements_at : t -> Version.t -> Oid.t list

(** {1 Listings}

    The one-list-per-value rule of {!elements}, for any holder of a
    membership set (a replica's view, say). *)

(** A cell remembering one set and its [Oid.Set.elements]. *)
type listing

(** A listing of [Oid.Set.empty]. *)
val listing : unit -> listing

(** [list_of l s] is [Oid.Set.elements s].  When [s] is physically the
    set of the previous call it is physically the previous list; else
    [l] now remembers [s] and its new list. *)
val list_of : listing -> Oid.Set.t -> Oid.t list
