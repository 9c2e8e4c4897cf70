(** The VOPR judge: decides whether a finished simulated run behaved.

    Safety is judged by a post-run {!Weakset_spec.Figures.check} over
    each instrumented iteration's recorded computation, cross-checked
    against the violations the same monitor latched while judging the
    computation online ({!Weakset_spec.Monitor.judge}).  The two must
    agree: a disagreement means the online judge missed or invented a
    violation.
    Liveness verdicts cover what the spec monitors cannot see: an iterator
    still suspended after every fault healed, fibers parked forever
    (engine deadlock / leaks), fiber crashes, and RPC calls whose replies
    vanished without any fault to blame.

    The issue constructors form a severity lattice (see {!severity});
    an empty issue list means the run passed. *)

type issue =
  | Stale_beyond_lease of {
      time : float;  (** virtual time of the offending cache hit *)
      set_id : int;
      served : int;  (** directory version the cache served *)
      required : int;  (** version a working callback would have forced *)
      age : float;  (** how long the lease had been held at the hit *)
    }
      (** the lease cache served a directory view staler than its lease
          allows: no fault excused the missing invalidation, yet the
          served version lags what the coordinator had long enough ago
          for a callback to have landed (see {!cache_evidence}) *)
  | Spec_violation of { iteration : int; semantics : string; where : string; message : string }
      (** the replayed {!Weakset_spec.Figures.check} found a violation *)
  | Monitor_mismatch of { iteration : int; semantics : string; detail : string }
      (** online monitor and post-hoc replay check disagree *)
  | Fiber_crash of { fiber : string; exn_text : string }
  | Stuck_iterator of { iteration : int; semantics : string }
      (** iteration never finished although every fault was healed *)
  | Steps_exhausted of { steps : int }  (** the run hit the step cap: livelock *)
  | Leaked_fibers of { count : int; fibers : string list }
      (** fibers still parked at quiescence, outside any iteration *)
  | Lost_rpc of { count : int }
      (** RPC calls that never completed (no reply, no timeout) *)
  | Commit_lost of { opnum : int; op : string; node : int }
      (** commit safety: an op acknowledged committed at [opnum] is
          absent from [node]'s final log *)
  | Commit_reordered of { opnum : int; first : string; second : string; node : int }
      (** commit safety: [opnum] carries two different ops — [node] is
          [-1] when the double-ack shows in the ledger itself, else the
          member whose final log contradicts the ledger *)
  | Election_overdue of { deadline : float }
      (** view-change liveness: the group was quorum-connected for a
          full election window yet had no stable leader by [deadline] *)
  | Shed_divergence of { node : int; extra : string list; missing : string list }
      (** shed safety: [node]'s hosted directory does not equal the fold
          of its own committed log — some effect landed outside
          consensus, e.g. an admission-shed mutation that was not a
          clean no-op.  [extra] are directory members no committed entry
          justifies; [missing] the converse *)

(** What the runner hands the judge about one executed iteration. *)
type iteration_input = {
  index : int;
  semantics : string;
  faulty : bool;
      (** did the plan inject any faults?  Gates the tolerated
          mid-invocation race classes (see {!judge}). *)
  spec : Weakset_spec.Figures.spec;
  outcome : [ `Done | `Failed of string | `Limit | `Unfinished ];
  computation : Weakset_spec.Computation.t;
  online_violations : Weakset_spec.Figures.violation list;
      (** distinct violations the online monitor latched (after finish) *)
}

(** One directory cache hit, as captured from the event stream. *)
type cache_hit = {
  h_time : float;
  h_set : int;
  h_version : int;  (** version the cache served *)
  h_age : float;  (** virtual time since the lease was granted *)
}

(** Evidence for the cache-coherence rule.  [mutations] is the
    coordinator's mutation log — (time, resulting version), ascending;
    [inval_grace] bounds how long a wire invalidation can legitimately be
    in flight (a function of topology diameter and link latency);
    [fault_windows] are the plan's fault intervals, inside which (padded
    by the grace) TTL-fallback staleness up to the lease is excused. *)
type cache_evidence = {
  hits : cache_hit list;
  mutations : (float * int) list;
  lease_ttl : float;
  inval_grace : float;
  fault_windows : (float * float) list;
}

(** Evidence from a replication-group run (built by the scenario
    harness, {!Scenario}).  [r_ledger] is the client-visible commit
    ledger — every (opnum, canonical op) some leader acknowledged as
    committed; [r_final_logs] maps each surviving member (node id) to
    its final committed log; [r_probes] lists the liveness probes —
    (deadline, stable?) for each quiet window long enough that a
    quorum-connected group must have elected a leader; [r_dir_vs_log]
    gives, per surviving node, its directory membership next to the
    membership obtained by folding that node's own committed log — the
    two must agree (shed-is-a-clean-no-op, judged per node so commit
    propagation lag cannot fake a divergence). *)
type repl_evidence = {
  r_ledger : (int * string) list;
  r_final_logs : (int * (int * string) list) list;
  r_probes : (float * bool) list;
  r_dir_vs_log : (int * string list * string list) list;
}

type input = {
  iterations : iteration_input list;
  engine_crashes : (string * string) list;  (** fiber name, exception text *)
  parked_fibers : string list;
      (** names of fibers still alive (parked) after the run drained *)
  steps : int;
  step_cap : int;
  unmatched_rpcs : int;  (** [Rpc_call] events without a matching [Rpc_done] *)
  cache : cache_evidence option;  (** [None]: the run had no lease cache *)
  repl : repl_evidence option;  (** [None]: the run had no replication group *)
}

val judge : input -> issue list

(** Category slug of an issue ("spec-violation", "stuck-iterator", ...);
    the shrinker preserves categories, not exact messages. *)
val category : issue -> string

(** Lattice rank; higher is worse.  0 is reserved for "no issue". *)
val severity : issue -> int

(** Issues sorted most severe first. *)
val sort : issue list -> issue list

val describe : issue -> string

(** {1 JSON} (for repro bundles) *)

val issue_to_json : issue -> string
val issue_of_json : Weakset_obs.Json.t -> (issue, string) result

(** Do two issue lists fail in an overlapping way?  True when some
    category appears in both — the shrinker's preservation criterion. *)
val same_failure : issue list -> issue list -> bool

(** {1 Judged runs}

    The tail every executor shares: {!watch} attaches a chained
    {!Weakset_obs.Digest} and a run-accounting sink (RPC calls against
    completions, live fibers) to an engine's bus, and {!run} drives the
    engine, judges what it left behind and reads the digest.  Neither
    sink emits, so watching leaves the run unchanged. *)

type watch

(** [watch eng] attaches both sinks; call it before building the world so
    the digest sees every event. *)
val watch : Weakset_sim.Engine.t -> watch

(** What the executor recorded, read once the engine has stopped. *)
type evidence = {
  ev_iterations : iteration_input list;
  ev_cache : cache_evidence option;
  ev_repl : repl_evidence option;
}

type run = {
  digest : string;  (** chained digest of the full event stream *)
  events : int;  (** events fed to the digest *)
  steps : int;  (** engine events processed *)
  issues : issue list;  (** empty = run passed *)
  evidence : evidence;  (** what was judged *)
}

(** [run w ~step_cap evidence] runs the engine for at most [step_cap]
    steps, then judges [evidence ()] together with the engine's crashes,
    the fibers still parked and the unanswered RPC calls. *)
val run : watch -> step_cap:int -> (unit -> evidence) -> run
