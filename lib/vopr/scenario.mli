(** Table-driven cluster scenarios for the replicated directory group.

    A scenario is a row in a declarative table (TigerBeetle
    [replica_test.zig] style): named replicas [r0..r(n-1)], a virtual
    horizon, and a list of steps — faults over validated windows,
    deterministic client workload, and liveness probes.  The interpreter
    builds a {!Weakset_store.Sim_world} clique of [replicas + 1] nodes
    (the extra one runs the client and no store server), hosts the
    directory on every replica, attaches a
    {!Weakset_repl.Group} member to each with one shared commit ledger,
    plays the steps, heals every fault [30s] before the horizon, and
    hands the ledger, each survivor's committed log and the probe
    results to {!Oracle.judge} as {!Oracle.repl_evidence}.

    Every run is seeded from the scenario name alone and executed
    {e twice}; a row passes only if the two event digests are
    byte-identical and the oracle finds no issues. *)

type step =
  | Stop of { node : int; at : float; recover_at : float }
      (** crash replica [node] at [at], recover it at [recover_at] *)
  | Crash of { node : int; at : float }
      (** crash with no scheduled recovery (the pre-horizon heal or an
          explicit {!Heal} brings it back) *)
  | Heal of { node : int; at : float }
  | Isolate of { node : int; at : float; heal_at : float }
      (** partition [node] away from everyone, heal all at [heal_at] *)
  | Partition of { groups : int list list; at : float; heal_at : float }
      (** unlisted nodes (including the client) form the leftover group *)
  | Workload of { at : float; until : float; every : float }
      (** deterministic client ops every [every]: two adds then a
          remove, every op effective when acked *)
  | Storm of { at : float; until : float; clients : int; every : float }
      (** a retry storm: [clients] retry-budgeted clients (each with its
          own {!Weakset_sim.Rng.split} jitter stream) hammer the
          coordinator every [every] — mostly reads, a mutation every
          fifth op, and every client's {e first} op a mutation so the
          opening burst sheds past the Mutate threshold.  Only
          meaningful with [admission] set *)
  | Probe_stable of { at : float }
      (** record whether the group has a stable leader (excused while
          not quorum-connected) — evidence for the oracle's
          view-change-liveness verdict *)

type t = {
  name : string;
  replicas : int;
  until : float;
  admission : int option;
      (** per-node admission-control capacity ({!Weakset_store.Node_server.admission});
          [None] runs without admission, preserving pre-admission digests *)
  steps : step list;
}

(** Raises [Invalid_argument] on out-of-range replica names, empty or
    inverted fault windows, or workload running past the heal margin. *)
val validate : t -> unit

type outcome = {
  o_name : string;
  o_digest : string;
  o_events : int;
  o_deterministic : bool;  (** both executions produced the same digest *)
  o_issues : Oracle.issue list;
  o_committed : int;  (** ledger length: ops acked as committed *)
  o_ops_ok : int;
  o_ops_failed : int;
}

val passed : outcome -> bool

(** [run scn] executes [scn] twice and judges it.  [planted] arms
    {!Weakset_repl.Group.planted_view_change_drop} for the duration —
    the commit-safety verdicts must then fire on any scenario that
    elects a new leader with traffic in flight.  [planted_shed] arms
    {!Weakset_store.Node_server.planted_shed_after_apply} — the oracle's
    shed-divergence verdict must then fire on any scenario that sheds a
    mutation (e.g. [retry-storm]). *)
val run : ?step_cap:int -> ?planted:bool -> ?planted_shed:bool -> t -> outcome

(** The shipped table (≥ 12 rows, all expected to pass unplanted). *)
val table : t list

val find : string -> t option
val pp_outcome : Format.formatter -> outcome -> unit
