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
  blackbox : Weakset_obs.Flight.dump list;
      (** flight-recorder dumps the run triggered (spec violations and
          node crashes mid-run, plus one post-run oracle verdict when the
          run failed), oldest first; deterministic per plan *)
}

(** Default step cap (events processed) before a run is declared a
    livelock. *)
val default_step_cap : int

val execute : ?step_cap:int -> Gen.plan -> result

(** [sweep ?step_cap ?progress seeds] generates and executes one plan per
    seed, calling [progress] after each. *)
val sweep :
  ?step_cap:int -> ?progress:(int64 -> result -> unit) -> int64 list -> (int64 * result) list

(** {1 Repro bundles} *)

type bundle = {
  b_plan : Gen.plan;
  b_planted : bool;
      (** was {!Weakset_core.Impl_common.planted_grow_only_drop} armed when
          this bundle was recorded?  {!replay} restores it for the rerun. *)
  b_planted_cache : bool;
      (** likewise for {!Weakset_store.Cache.planted_inval_drop} *)
  b_planted_spec : bool;
      (** likewise for {!Weakset_spec.Visibility.planted_axiom_mutation}
          (absent in older bundles; parses as [false]) *)
  b_digest : string;  (** expected trace digest of replaying [b_plan] *)
  b_events : int;
  b_issues : Oracle.issue list;  (** the recorded oracle verdict *)
  b_blackbox : string list;
      (** black-box dump documents captured at record time (see
          {!Weakset_obs.Flight}); embedded as escaped JSON strings so
          they round-trip byte-exactly.  Replays regenerate identical
          dumps, so they are not part of the replay comparison.  Absent
          in older bundles; parses as [[]]. *)
}

val bundle_of_result : result -> bundle
val bundle_to_json : bundle -> string
val bundle_of_string : string -> (bundle, string) Stdlib.result
val write_bundle : path:string -> bundle -> unit
val read_bundle : path:string -> (bundle, string) Stdlib.result

(** Re-execute a bundle's plan and compare against its recorded digest
    and verdict.  [`Reproduced] means digest, event count and failure
    categories all match. *)
type replay_outcome =
  | Reproduced of result
  | Digest_mismatch of { got : result; expected : string }
  | Verdict_mismatch of result

val replay : ?step_cap:int -> bundle -> replay_outcome
