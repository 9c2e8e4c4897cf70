(** Executes generated plans in the deterministic simulator, judges them,
    sweeps seed ranges and reads/writes replayable repro bundles.

    A plan executes in a fresh engine seeded with the plan's seed, on the
    world {!Weakset_store.Sim_world} builds from the config: coordinator
    at index 0, client last, homes in between, the ghost-copy directory
    policy so grow-only runs are well-posed, the config's pull replicas
    and lease cache, and the initial membership.  The fault schedule is
    installed through the {!Weakset_net.Fault} scheduled API — the same
    code path hand-written scenarios use — and two driver fibers walk the
    workload: a mutator for add/remove/size (honouring the write lock iff
    the plan contains an immutable iteration) and a sequential iteration
    driver that runs every [Iterate] with full spec instrumentation, its
    monitor judged online.  {!Oracle.watch} streams the whole run into a
    chained {!Weakset_obs.Digest}, whose final value fingerprints the
    run: re-executing the same plan must reproduce it byte-identically. *)

(** What a run produced, and what {!blackbox} needs to replay it: the
    plan, the step cap and the planted bugs.  A run keeps no flight
    recorder; its dumps are replayed from the seed on read. *)
type result = {
  plan : Gen.plan;
  digest : string;  (** chained digest of the full event stream *)
  events : int;  (** events fed to the digest *)
  steps : int;  (** engine events processed *)
  issues : Oracle.issue list;  (** empty = run passed *)
  iterations : Oracle.iteration_input list;
      (** every instrumented iteration with its recorded computation and
          chosen spec — the raw material the oracle judged, exposed so
          equivalence suites can re-judge the same runs under other
          checkers *)
  step_cap : int;  (** the step cap the run executed under *)
  planted : Weakset_obs.Planted.t;  (** the planted bugs the run was armed with *)
}

(** Default step cap (events processed) before a run is declared a
    livelock. *)
val default_step_cap : int

(** [execute ?step_cap ?planted plan] runs [plan] in an engine armed
    with [planted] (default {!Weakset_obs.Planted.none}), with no flight
    recorder attached.  A run reads no state outside its own engine, so
    runs on different domains do not interfere.  A VOPR plan deploys
    neither a replication group nor admission control, so only the
    [grow_only_drop], [inval_drop] and [axiom_flip] bugs reach it. *)
val execute : ?step_cap:int -> ?planted:Weakset_obs.Planted.t -> Gen.plan -> result

(** [blackbox r] is the flight-recorder dumps of run [r] (spec violations
    and node crashes mid-run, plus one post-run oracle verdict when the
    run failed), oldest first.  It re-executes [r.plan] under [r]'s step
    cap and planted bugs with a recorder attached.  The recorder emits no
    events, so the replay is the same run and the dumps are deterministic
    per plan.  Raises [Failure] when the replay's digest or event count
    differs from [r]'s, so dumps can never belong to a different run. *)
val blackbox : result -> Weakset_obs.Flight.dump list

(** [sweep ?step_cap ?planted ?progress seeds] generates and executes one
    plan per seed, calling [progress] after each. *)
val sweep :
  ?step_cap:int ->
  ?planted:Weakset_obs.Planted.t ->
  ?progress:(int64 -> result -> unit) ->
  int64 list ->
  (int64 * result) list

(** {1 Repro bundles} *)

type bundle = {
  b_plan : Gen.plan;
  b_planted : Weakset_obs.Planted.t;
      (** the planted bugs the recorded run was armed with; {!replay}
          arms them for the rerun.  The JSON keeps the three a VOPR plan
          can reach: [planted_bug] ([grow_only_drop]), [planted_cache_bug]
          ([inval_drop]) and [planted_spec_bug] ([axiom_flip]). *)
  b_step_cap : int;  (** the step cap the recorded run executed under; {!replay} uses it *)
  b_digest : string;  (** expected trace digest of replaying [b_plan] *)
  b_events : int;
  b_issues : Oracle.issue list;  (** the recorded oracle verdict *)
  b_blackbox : string list;
      (** black-box dump documents of the recorded run (see
          {!Weakset_obs.Flight}); embedded as escaped JSON strings so
          they round-trip byte-exactly.  Replays regenerate identical
          dumps, so they are not part of the replay comparison. *)
}

(** [bundle_of_result r] takes the planted bugs from [r] and its dumps
    from {!blackbox} (one replay of [r.plan]). *)
val bundle_of_result : result -> bundle

(** The [version] {!bundle_to_json} writes and {!bundle_of_string}
    accepts.  Version 2 bundles carry digests of the binary event chain
    ({!Weakset_obs.Digest}); a version 1 bundle's text-chained digest
    could never match a replay, so it is refused rather than reported as
    a digest mismatch. *)
val bundle_version : int

val bundle_to_json : bundle -> string

(** [Error] names what is wrong: malformed JSON, another {!bundle_version}
    (and the digest format it implies), or the first missing field. *)
val bundle_of_string : string -> (bundle, string) Stdlib.result
val write_bundle : path:string -> bundle -> unit
val read_bundle : path:string -> (bundle, string) Stdlib.result

(** Re-execute a bundle's plan under its recorded step cap and planted
    bugs and compare against its recorded digest and verdict.
    [`Reproduced] means digest, event count and failure categories all
    match. *)
type replay_outcome =
  | Reproduced of result
  | Digest_mismatch of { got : result; expected : string }
  | Verdict_mismatch of result

val replay : bundle -> replay_outcome
