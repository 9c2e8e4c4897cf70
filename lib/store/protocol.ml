module Nodeid = Weakset_net.Nodeid

type set_ref = { set_id : int; coordinator : Nodeid.t; replicas : Nodeid.t list }

(* Replication-group messages (lib/repl): a VSR-style state machine over
   [Directory.op] entries.  They live here, next to the client-facing
   requests, because one RPC fabric carries both — a group member is an
   ordinary node server with a consensus role attached. *)
type repl_request =
  | Prepare of {
      group : int;  (** the replicated set's id *)
      view : int;
      opnum : Version.t;
      op : Directory.op;
      commit : Version.t;  (** leader's commit point, piggybacked *)
    }
  | Commit of { group : int; view : int; commit : Version.t }
      (** heartbeat: leader liveness plus commit propagation *)
  | Start_view_change of { group : int; view : int; from : int }
  | Do_view_change of {
      group : int;
      view : int;
      from : int;
      last_normal : int;  (** last view in which the sender was Normal *)
      opnum : Version.t;
      commit : Version.t;
      log : (Version.t * Directory.op) list;  (** full log, oldest first *)
    }
  | Start_view of {
      group : int;
      view : int;
      opnum : Version.t;
      commit : Version.t;
      log : (Version.t * Directory.op) list;
    }
  | Get_state of { group : int; since : Version.t }

type request =
  | Fetch of Oid.t
  | Fetch_batch of { oids : Oid.t list }
  | Dir_read of { set_id : int }
  | Dir_read_at of { set_id : int; version : Version.t }
  | Dir_read_leased of { set_id : int; lessee : Nodeid.t }
  | Inval of { set_id : int; version : Version.t }
  | Dir_add of { set_id : int; oid : Oid.t }
  | Dir_remove of { set_id : int; oid : Oid.t }
  | Dir_size of { set_id : int }
  | Lock_acquire of { set_id : int; kind : Lockmgr.kind; owner : int; patience : float }
  | Lock_release of { set_id : int; owner : int }
  | Iter_open of { set_id : int }
  | Iter_close of { set_id : int }
  | Sync_pull of { set_id : int; since : Version.t }
  | Repl of repl_request

type response =
  | Value of Svalue.t
  | Not_found
  | Batch of { found : (Oid.t * Svalue.t) list; missing : Oid.t list }
  | Members of { version : Version.t; members : Oid.t list }
  | Members_leased of { version : Version.t; members : Oid.t list; lease : float }
  | Delta of { version : Version.t; ops : (Version.t * Directory.op) list }
  | Size of int
  | Ack
  | Locked
  | Lock_timeout
  | No_service
  | Not_leader of { view : int; leader : int }
      (** redirect: the receiver is a group member but not the current
          leader; [leader] is its best hint (a node id) *)
  | Repl_ok of { view : int; opnum : Version.t; from : int }
  | Repl_reject of { view : int }  (** receiver is in a higher view *)
  | Repl_state of {
      view : int;
      opnum : Version.t;
      commit : Version.t;
      ops : (Version.t * Directory.op) list;
    }
  | Overloaded of { retry_after : float }

(* Admission classes, ordered by shed priority.  Control traffic keeps
   the cluster alive (consensus, callbacks, iterator cleanup) and is
   never shed; iterator data-path ops would strand an in-flight
   traversal mid-stream if rejected, so they go last among sheddable
   classes; fresh reads are the cheapest to retry and go first. *)
type op_class = Control | Iter | Mutate | Read

let op_class = function
  | Repl _ | Inval _ | Lock_release _ | Iter_close _ -> Control
  | Fetch _ | Fetch_batch _ | Dir_read_at _ | Sync_pull _ -> Iter
  | Dir_add _ | Dir_remove _ | Lock_acquire _ | Iter_open _ -> Mutate
  | Dir_read _ | Dir_read_leased _ | Dir_size _ -> Read

let class_label = function
  | Control -> "control"
  | Iter -> "iter"
  | Mutate -> "mutate"
  | Read -> "read"

let request_label = function
  | Fetch _ -> "fetch"
  | Fetch_batch _ -> "fetch-batch"
  | Dir_read _ -> "dir-read"
  | Dir_read_at _ -> "dir-read-at"
  | Dir_read_leased _ -> "dir-read-leased"
  | Inval _ -> "inval"
  | Dir_add _ -> "dir-add"
  | Dir_remove _ -> "dir-remove"
  | Dir_size _ -> "dir-size"
  | Lock_acquire _ -> "lock-acquire"
  | Lock_release _ -> "lock-release"
  | Iter_open _ -> "iter-open"
  | Iter_close _ -> "iter-close"
  | Sync_pull _ -> "sync-pull"
  | Repl (Prepare _) -> "repl-prepare"
  | Repl (Commit _) -> "repl-commit"
  | Repl (Start_view_change _) -> "repl-svc"
  | Repl (Do_view_change _) -> "repl-dvc"
  | Repl (Start_view _) -> "repl-sv"
  | Repl (Get_state _) -> "repl-get-state"

let pp_response fmt = function
  | Value v -> Format.fprintf fmt "value %a" Svalue.pp v
  | Not_found -> Format.pp_print_string fmt "not-found"
  | Batch { found; missing } ->
      Format.fprintf fmt "batch found=%d missing=%d" (List.length found)
        (List.length missing)
  | Members { version; members } ->
      Format.fprintf fmt "members %a n=%d" Version.pp version (List.length members)
  | Members_leased { version; members; lease } ->
      Format.fprintf fmt "members-leased %a n=%d lease=%g" Version.pp version
        (List.length members) lease
  | Delta { version; ops } ->
      Format.fprintf fmt "delta %a n=%d" Version.pp version (List.length ops)
  | Size n -> Format.fprintf fmt "size %d" n
  | Ack -> Format.pp_print_string fmt "ack"
  | Locked -> Format.pp_print_string fmt "locked"
  | Lock_timeout -> Format.pp_print_string fmt "lock-timeout"
  | No_service -> Format.pp_print_string fmt "no-service"
  | Not_leader { view; leader } ->
      Format.fprintf fmt "not-leader view=%d leader=n%d" view leader
  | Repl_ok { view; opnum; from } ->
      Format.fprintf fmt "repl-ok view=%d %a from=%d" view Version.pp opnum from
  | Repl_reject { view } -> Format.fprintf fmt "repl-reject view=%d" view
  | Repl_state { view; opnum; commit; ops } ->
      Format.fprintf fmt "repl-state view=%d %a commit=%a n=%d" view Version.pp opnum
        Version.pp commit (List.length ops)
  | Overloaded { retry_after } ->
      Format.fprintf fmt "overloaded retry_after=%g" retry_after
