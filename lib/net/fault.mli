(** Fault injection: node crashes, link failures, partitions and their
    repair, both immediate and scheduled, plus random MTTF/MTTR processes.

    All topology mutations made through this module (or directly on the
    topology) fire {!signal}, which optimistic iterators use to re-check
    reachability after a repair instead of polling (paper §3.4: the
    iterator "tries to make progress with the expectation that in a later
    invocation inaccessible objects will become accessible again"). *)

type t

val create : Weakset_sim.Engine.t -> Topology.t -> t

(** Broadcast on every topology change. *)
val signal : t -> Weakset_sim.Signal.t

(** {1 Immediate faults} *)

val crash_node : t -> Nodeid.t -> unit
val recover_node : t -> Nodeid.t -> unit
val cut_link : t -> Nodeid.t -> Nodeid.t -> unit
val heal_link : t -> Nodeid.t -> Nodeid.t -> unit
val partition : t -> Nodeid.t list list -> unit

(** Restores every node and link to up and forgets all outstanding link
    holds of windowed faults (their later heal steps become no-ops). *)
val heal_all : t -> unit

(** {1 Scheduled faults} *)

val schedule_crash : t -> at:float -> Nodeid.t -> unit
val schedule_recover : t -> at:float -> Nodeid.t -> unit

(** [schedule_partition t ~at ~heal_at groups] cuts every cross-group
    link at virtual time [at] and heals {e those links} at [heal_at].
    Healing is per-fault, not global: a link cut by several overlapping
    windows stays down until the last window ends, and a link that was
    already down when the window opened (or a node crashed by another
    fault) is left alone.  Raises [Invalid_argument] if [heal_at <= at]
    (which would silently install a never-healed partition). *)
val schedule_partition : t -> at:float -> heal_at:float -> Nodeid.t list list -> unit

(** {1 Named-node helpers}

    One node, named, over a validated window — what a table-driven cluster
    scenario says ("stop r2 at 10, recover at 30") without re-deriving the
    group arithmetic from {!random_partition_process}. *)

(** [stop_node t ~at ~recover_at n] crashes [n] at virtual time [at] and
    recovers it at [recover_at].  Raises [Invalid_argument] if
    [recover_at <= at]. *)
val stop_node : t -> at:float -> recover_at:float -> Nodeid.t -> unit

(** [heal_node t ~at n] schedules a recovery of [n] at [at] (for nodes
    stopped by a previous window, e.g. to end a quorum-loss episode
    early). *)
val heal_node : t -> at:float -> Nodeid.t -> unit

(** [isolate_node t ~at ~heal_at n] cuts every link of [n] at [at] and
    heals those links at [heal_at], with the same per-fault hold
    semantics as {!schedule_partition} — two overlapping isolations do
    not heal each other.  Raises [Invalid_argument] if [heal_at <= at]. *)
val isolate_node : t -> at:float -> heal_at:float -> Nodeid.t -> unit

(** {1 Random fault processes} *)

(** [crash_restart_process t ~rng ~mttf ~mttr ~until node] runs a fiber
    that repeatedly crashes [node] after an Exp(mttf) up-time and recovers
    it after an Exp(mttr) down-time, stopping (and recovering the node)
    at virtual time [until]. *)
val crash_restart_process :
  t -> rng:Weakset_sim.Rng.t -> mttf:float -> mttr:float -> until:float -> Nodeid.t -> unit

(** [random_partition_process t ~rng ~mttf ~mttr ~until] runs a fiber that
    repeatedly partitions the topology into two uniformly random non-empty
    groups after an Exp(mttf) healthy period and heals that episode's cuts
    after an Exp(mttr) partitioned period (per-fault holds, as in
    {!schedule_partition}), stopping (healed) at virtual time [until].
    Generated fault schedules and hand-written scenarios share this one
    code path. *)
val random_partition_process :
  t -> rng:Weakset_sim.Rng.t -> mttf:float -> mttr:float -> until:float -> unit

(** [flaky_link_process t ~rng ~mttf ~mttr ~until a b] does the same as
    {!crash_restart_process} for a link. *)
val flaky_link_process :
  t ->
  rng:Weakset_sim.Rng.t ->
  mttf:float ->
  mttr:float ->
  until:float ->
  Nodeid.t ->
  Nodeid.t ->
  unit
