(** Simulated wide-area distributed file system (paper §1.1).

    Each directory is a weak-set collection: its membership directory
    lives on a coordinator node (optionally replicated), and each file's
    contents live on the file's home node — "files and subdirectories in
    the same directory may reside on nodes different from each other
    and/or from the directory itself".

    The [Dfs.t] value itself is the {e namespace registry} (the analogue
    of a mount table): it maps paths to collection refs and oids to
    names.  Reading a directory's membership or a file's contents still
    goes through the network (RPC to the coordinator / home node); only
    name resolution is local. *)

type t

val create :
  Weakset_store.Node_server.rpc -> Weakset_store.Node_server.t array -> t

val engine : t -> Weakset_sim.Engine.t

(** [mkdir t path ~coordinator ?replicas ?replica_interval ?ghost_policy ()]
    creates a directory whose membership lives on server index
    [coordinator].  [replicas] are server indices hosting stale copies.
    Raises [Invalid_argument] if [path] already exists. *)
val mkdir :
  t ->
  Fpath.t ->
  coordinator:int ->
  ?replicas:int list ->
  ?replica_interval:float ->
  ?ghost_policy:bool ->
  unit ->
  unit

val dir_exists : t -> Fpath.t -> bool
val directories : t -> Fpath.t list

(** [create_file t dir ~name ~home content] stores the contents on server
    index [home] and adds the file to [dir]'s membership (directly — use
    it for workload setup, not for concurrent mutation).  Raises
    [Invalid_argument] on duplicate name or unknown dir. *)
val create_file :
  t -> Fpath.t -> name:string -> home:int -> string -> Weakset_store.Oid.t

(** [unlink t dir ~name] removes the file from the membership (contents
    stay on the home node, like an unreferenced inode). *)
val unlink : t -> Fpath.t -> name:string -> unit

(** The collection backing a directory. *)
val dir_sref : t -> Fpath.t -> Weakset_store.Protocol.set_ref

(** The node server coordinating a directory (for instrumentation). *)
val coordinator_server : t -> Fpath.t -> Weakset_store.Node_server.t

(** Resolve a member oid back to its file name. *)
val name_of : t -> Weakset_store.Oid.t -> string option

(** Look up a file's oid by name (registry-side, no network). *)
val lookup : t -> Fpath.t -> name:string -> Weakset_store.Oid.t option

(** A client stationed on server index [ix]. *)
val client_at : t -> int -> Weakset_store.Client.t
