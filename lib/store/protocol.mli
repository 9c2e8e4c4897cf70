(** Wire protocol of the distributed object store.

    One request/response union covers all three server roles (object
    server, directory coordinator, directory replica), so a single RPC
    fabric connects every node. *)

(** Names a collection: where its authoritative membership directory lives
    ([coordinator]) and which nodes carry soon-to-be-stale replicas of it. *)
type set_ref = {
  set_id : int;
  coordinator : Weakset_net.Nodeid.t;
  replicas : Weakset_net.Nodeid.t list;
}

(** Replication-group traffic (see [Weakset_repl.Group]): a VSR-style
    replicated state machine whose entries are {!Directory.op}s.  [group]
    is the replicated set's id; views number leader terms; [opnum] is the
    log position an entry was accepted at (equal to the directory version
    it produces when committed). *)
type repl_request =
  | Prepare of {
      group : int;
      view : int;
      opnum : Version.t;
      op : Directory.op;
      commit : Version.t;
    }  (** leader→backup: accept log entry [opnum]; [commit] piggybacks *)
  | Commit of { group : int; view : int; commit : Version.t }
      (** leader→backup heartbeat: liveness plus commit propagation *)
  | Start_view_change of { group : int; view : int; from : int }
      (** suspicion broadcast: join the change to [view] *)
  | Do_view_change of {
      group : int;
      view : int;
      from : int;
      last_normal : int;
      opnum : Version.t;
      commit : Version.t;
      log : (Version.t * Directory.op) list;
    }  (** member→new leader: my log, so you can pick the freshest *)
  | Start_view of {
      group : int;
      view : int;
      opnum : Version.t;
      commit : Version.t;
      log : (Version.t * Directory.op) list;
    }  (** new leader→members: install this log, resume Normal *)
  | Get_state of { group : int; since : Version.t }
      (** state transfer: committed entries above [since] *)

type request =
  | Fetch of Oid.t                                      (** object contents *)
  | Fetch_batch of { oids : Oid.t list }
      (** coalesced object fetch: all [oids] must be homed at the target
          node; one round trip answers them all with a {!Batch} *)
  | Dir_read of { set_id : int }                        (** full membership *)
  | Dir_read_at of { set_id : int; version : Version.t }
      (** snapshot-at-version membership read: the coordinator
          reconstructs the directory exactly as it stood at [version]
          from its mutation log (no locks; replicas answer
          {!No_service}) — the read primitive of the linearizable
          iterator *)
  | Dir_read_leased of { set_id : int; lessee : Weakset_net.Nodeid.t }
      (** membership read that also requests a TTL lease: a coordinator
          answers {!Members_leased} and registers [lessee] for an
          {!Inval} callback on the next mutation; replicas (which serve
          stale views and see no mutations) answer plain {!Members} *)
  | Inval of { set_id : int; version : Version.t }
      (** server→client callback: the lessee's cached membership of
          [set_id] is out of date as of directory [version] *)
  | Dir_add of { set_id : int; oid : Oid.t }
  | Dir_remove of { set_id : int; oid : Oid.t }
  | Dir_size of { set_id : int }
  | Lock_acquire of { set_id : int; kind : Lockmgr.kind; owner : int; patience : float }
  | Lock_release of { set_id : int; owner : int }
  | Iter_open of { set_id : int }                       (** ghost refcount +1 *)
  | Iter_close of { set_id : int }                      (** ghost refcount -1 *)
  | Sync_pull of { set_id : int; since : Version.t }    (** replica anti-entropy *)
  | Repl of repl_request                                (** consensus traffic *)

type response =
  | Value of Svalue.t
  | Not_found
  | Batch of { found : (Oid.t * Svalue.t) list; missing : Oid.t list }
      (** answer to {!Fetch_batch}: values for the oids the node holds,
          plus the oids it does not *)
  | Members of { version : Version.t; members : Oid.t list }
  | Members_leased of { version : Version.t; members : Oid.t list; lease : float }
      (** membership plus a lease: the view may be cached and reused for
          [lease] units of virtual time unless an {!Inval} arrives first *)
  | Delta of { version : Version.t; ops : (Version.t * Directory.op) list }
  | Size of int
  | Ack
  | Locked
  | Lock_timeout
  | No_service  (** the target node does not host the requested object/set *)
  | Not_leader of { view : int; leader : int }
      (** the receiver is a group member but not the current leader;
          [leader] (a node id) is its best hint — clients follow it *)
  | Repl_ok of { view : int; opnum : Version.t; from : int }
      (** consensus ack (PrepareOK and friends) *)
  | Repl_reject of { view : int }
      (** the receiver is in a higher view than the message *)
  | Repl_state of {
      view : int;
      opnum : Version.t;
      commit : Version.t;
      ops : (Version.t * Directory.op) list;
    }  (** state-transfer answer: committed entries above [since] *)
  | Overloaded of { retry_after : float }
      (** admission control shed the request before any part of it
          executed: a clean no-op.  [retry_after] is the server's
          backoff hint (virtual time units) *)

(** Admission class of a request, ordered by shed priority (overload
    sheds [Read] first, then [Mutate], then [Iter]; [Control] — the
    consensus/heartbeat, invalidation-callback and iterator-cleanup
    traffic the cluster needs to stay live — is never shed). *)
type op_class = Control | Iter | Mutate | Read

val op_class : request -> op_class

(** Metric-label form of a class: "control", "iter", "mutate", "read". *)
val class_label : op_class -> string

(** Short operation name of a request ("fetch", "dir-read", ...), used
    as the [op] field of [Store_op] trace events and as span names. *)
val request_label : request -> string

val pp_response : Format.formatter -> response -> unit
