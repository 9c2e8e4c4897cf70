(** Dynamic sets: the Unix-API abstraction of Steere's thesis work that
    this paper formalises (§1.1, §5) — open a set over a directory (or a
    query against it), iterate members as they arrive, close.

    The implementation realises the paper's weakest design point
    (Figure 6 / §3.4) with the performance machinery of {!Prefetch}:
    parallel fetch, closest-first, partial results under failures. *)

type entry = {
  name : string;  (** resolved file name (["?<num>"] if unknown) *)
  oid : Weakset_store.Oid.t;
  value : Weakset_store.Svalue.t;
}

type t

(** [open_set dfs ~client dir ?select ?parallelism ()] opens a dynamic
    set over [dir]'s members.  [select] filters by file name at open
    (pathname-expansion-style queries, e.g. ["*.face"]). *)
val open_set :
  Dfs.t ->
  client:Weakset_store.Client.t ->
  Fpath.t ->
  ?select:(string -> bool) ->
  ?parallelism:int ->
  unit ->
  t

(** [open_snapshot dfs ~client dir ()] — linearizable snapshot open (the
    fifth design point): pin the directory at one version with an
    authoritative read, or pass [?version] to reconstruct the membership
    as it stood at a past version (snapshot-at-version, no locks), and
    stream exactly that member list.  Returns the pinned version with
    the handle; [Error] if the coordinator cannot be reached at open. *)
val open_snapshot :
  Dfs.t ->
  client:Weakset_store.Client.t ->
  Fpath.t ->
  ?version:Weakset_store.Version.t ->
  ?select:(string -> bool) ->
  ?parallelism:int ->
  unit ->
  (Weakset_store.Version.t * t, Weakset_store.Client.error) result

(** [open_query dfs ~client dir pred] — contents-predicate query: members
    stream through [pred] after fetch ("finding all files that satisfy a
    given predicate"). *)
val open_query :
  Dfs.t ->
  client:Weakset_store.Client.t ->
  Fpath.t ->
  ?parallelism:int ->
  (entry -> bool) ->
  t

(** Next member, in fetch-completion order; [None] when exhausted. *)
val iterate : t -> entry option

(** All remaining members. *)
val drain : t -> entry list

val stats : t -> Prefetch.stats
