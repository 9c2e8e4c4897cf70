(** VSR-style replication group for one membership directory.

    Each member is an ordinary {!Weakset_store.Node_server} hosting the
    directory, with a consensus role attached through
    {!Weakset_store.Node_server.attach_repl}: client-facing mutations
    detour through {!val-submit} — logged by the leader of the current
    view, acknowledged only once a strict majority has accepted them —
    and [Protocol.Repl] traffic is dispatched to the state machine.

    The protocol is Viewstamped Replication (Oki & Liskov; Liskov &
    Cowling's revisit): a leader per view ([view mod n]), monotone view
    numbers, [Prepare]/[PrepareOK] quorum commit with the commit point
    piggybacked on heartbeats, timeout-driven [Start_view_change] /
    [Do_view_change] / [Start_view] leader election picking the freshest
    log by [(last_normal, opnum)], and state transfer ([Get_state]) that
    hands a recovering replica the full log above its commit point.

    The hosted {!Weakset_store.Directory.t} holds {e committed} state
    only, so [Directory.version] {e is} the commit number and the
    mutation log doubles as the committed consensus log; the
    accepted-but-uncommitted suffix lives in the group.  Everything is
    deterministic under {!Weakset_sim.Engine}: timeouts are staggered
    per member index, and all fibers stop at the [until] horizon. *)

type rpc = (Weakset_store.Protocol.request, Weakset_store.Protocol.response) Weakset_net.Rpc.t

(** Render a directory op the way ledger and oracle evidence do. *)
val op_str : Weakset_store.Directory.op -> string

(** The client-visible commit ledger shared by a group's members: every
    (opnum, op) some leader acknowledged as committed, the oracle's
    ground truth for commit safety. *)
module Ledger : sig
  type entry = {
    l_opnum : int;
    l_op : string;  (** canonical op rendering, see {!op_str} *)
    l_view : int;  (** view whose leader acked it *)
    l_time : float;
  }

  type t

  val create : unit -> t
  val record : t -> entry -> unit

  (** Recording order (oldest first). *)
  val entries : t -> entry list
end

type status = Normal | View_change

type t

(** [create rpc ~set_id ~members ~me ~server] makes this node's member
    of the group replicating directory [set_id] over [members] (sorted
    internally; the leader of view [v] is member [v mod n]) and attaches
    it to [server] (which must already host the directory).

    [heartbeat_every] (default 2) paces the leader's [Commit]
    heartbeats; [suspect_after] (default 6) is the base silence window
    before a backup starts a view change (staggered per member index so
    suspicions do not duel); [rpc_timeout] (default 4) bounds each
    protocol message; [submit_patience] (default 20) bounds how long a
    client submit waits for its commit before answering with a
    retryable redirect.  [ledger], if given, records every committed op
    (share one across the group's members).  When the engine's
    {!Weakset_obs.Planted.view_change_drop} is armed, a new leader drops
    the adopted log's uncommitted suffix, and the oracle's commit-safety
    verdicts must catch it.

    Raises [Invalid_argument] if [me] is not in [members] or [server]
    does not host [set_id]. *)
val create :
  ?heartbeat_every:float ->
  ?suspect_after:float ->
  ?rpc_timeout:float ->
  ?submit_patience:float ->
  ?ledger:Ledger.t ->
  rpc ->
  set_id:int ->
  members:Weakset_net.Nodeid.t list ->
  me:Weakset_net.Nodeid.t ->
  server:Weakset_store.Node_server.t ->
  t

(** [start t ~until] spawns the heartbeat and suspicion-monitor fibers,
    which quiesce at virtual time [until]. *)
val start : t -> until:float -> unit

(** {1 Introspection} *)

val view : t -> int
val status : t -> status
val me : t -> Weakset_net.Nodeid.t
val members : t -> Weakset_net.Nodeid.t list
val set_id : t -> int

(** Highest accepted opnum (committed or not). *)
val opnum : t -> Weakset_store.Version.t

(** The commit point — by construction the hosted directory's version. *)
val commit : t -> Weakset_store.Version.t

(** Accepted-but-uncommitted entries currently held. *)
val suffix_length : t -> int

(** Who this member believes leads its current view. *)
val leader_hint : t -> Weakset_net.Nodeid.t
val is_leader : t -> bool

(** The committed log as (opnum, canonical op) pairs, oldest first —
    the per-member half of the oracle's commit-safety evidence. *)
val committed_log : t -> (int * string) list

(** [stable groups] — is some member the up leader of a Normal view
    that a majority of up members share?  The liveness probe behind the
    oracle's view-change-liveness verdict. *)
val stable : t list -> bool

(** {1 Protocol entry points}

    Exposed for tests; ordinarily reached through the node server's
    attached hooks. *)

val submit : t -> Weakset_store.Directory.op -> Weakset_store.Protocol.response
val handle : t -> Weakset_store.Protocol.repl_request -> Weakset_store.Protocol.response
