(** Deterministic scenario generation for the VOPR swarm.

    From a single [Rng] seed, {!generate} derives a complete test {e plan}:
    a cluster {!config} (topology shape, node count, replica placement), a
    workload program (a time-sorted weighted mix of add/remove/size/iterate
    operations across all named iterator semantics) and a fault schedule
    (crashes with recovery, link cuts with heals, partitions with heals).
    The three parts are drawn from three {e split} streams of the root
    generator, so the config of a seed does not depend on how many workload
    or fault draws were made — {!config_of_seed} exploits (and the test
    suite asserts) exactly that independence.

    Plans are plain data: {!plan_to_json}/{!plan_of_json} round-trip them
    byte-exactly (floats render with 17 significant digits), which is what
    repro bundles and the shrinker rely on.

    Node-index convention (the one {!Weakset_store.Sim_world} builds):
    index [0] is the directory coordinator ([Star]: the hub), index
    [nodes - 1] is the client, indexes [1 .. nodes - 2] home the member
    objects. *)

type shape = Weakset_store.Sim_world.shape = Clique | Star | Line

type open_loop = {
  ol_rate : float;  (** mean background arrivals per time unit *)
  ol_clients : int;  (** fibers the schedule is dealt across *)
  ol_bursty : bool;  (** geometric bursts instead of plain Poisson *)
}
(** Background open-loop traffic: size queries arriving on their own
    clock regardless of how slow the system is, so fault windows are hit
    by queued-up work instead of a single polite driver. *)

type config = {
  shape : shape;
  nodes : int;  (** total node count, >= 4 *)
  latency : float;  (** per-link latency (time units) *)
  replica_ixs : int list;  (** home indexes carrying directory replicas *)
  replica_interval : float;  (** anti-entropy pull period *)
  initial_size : int;  (** members provisioned before time 0 *)
  cache : bool;  (** iterating client runs a lease cache *)
  lease_ttl : float;  (** server-granted lease duration when [cache] *)
  open_loop : open_loop option;
      (** background arrival knob; [None] on most seeds (and on every
          bundle written before the knob existed) *)
}

type op =
  | Add of { at : float }  (** store a fresh object and add it as a member *)
  | Remove of { at : float }  (** remove the smallest current member *)
  | Size of { at : float }  (** authoritative size query *)
  | Iterate of { at : float; semantics : string; think : float; limit : int; repeat : int }
      (** run [repeat] full (instrumented) iterations back to back under
          the named semantics; [think] is consumer think-time per yield,
          [limit] bounds yields so grow-only races terminate.  [repeat]
          exceeds 1 only on cache-enabled configs, so warm re-iteration
          over leased state gets exercised under faults *)

type fault =
  | Crash of { node : int; at : float; recover_at : float }
  | Cut of { a : int; b : int; at : float; heal_at : float }
  | Partition of { groups : int list list; at : float; heal_at : float }
  | Herd of { at : float; clients : int; burst : int }
      (** thundering herd: [clients] fibers wake at [at] and each fires
          [burst] back-to-back size queries — a load spike, not a
          topology fault, so it has no heal time *)

type plan = {
  seed : int64;
  config : config;
  ops : op list;  (** time-sorted; [Iterate]s run sequentially *)
  faults : fault list;  (** time-sorted *)
  budget : float;
      (** virtual-time horizon: replicas and repair processes stop here,
          and every generated fault heals strictly before it *)
}

val shape_name : shape -> string

(** Virtual time of an op / fault's first effect. *)
val op_time : op -> float

val fault_time : fault -> float

(** Total number of schedule events (ops + faults) — the size the
    shrinker minimises. *)
val event_count : plan -> int

(** [generate seed] — the plan is a pure function of [seed]. *)
val generate : int64 -> plan

(** The config stream alone: equals [(generate seed).config] by stream
    independence. *)
val config_of_seed : int64 -> config

(** {1 JSON} *)

val plan_to_json : plan -> string

(** Inverse of {!plan_to_json} (also accepts any [Json.t] with the same
    fields). *)
val plan_of_json : Weakset_obs.Json.t -> (plan, string) result

val plan_of_string : string -> (plan, string) result
