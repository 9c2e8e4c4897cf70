(** The paper's figure specifications, as named rows of the design space.

    Each {!spec} is one {!Visibility.config}: a point in the weak-set
    design space, judged by the single parametric engine in
    {!Visibility}.  {!check} validates a recorded {!Computation.t} of an
    [elements] iterator run against it and reports violations with the
    offending states.

    The rows vary the config's dimensions (§3):
    - the {!Constraint_clause.t} on the set's value, over every pair of
      states or (the §3.1/§3.3 relaxations) only within one run,
    - the membership anchor: the set's value in the first-state (Figures
      1/3/4), the current pre-state (Figures 5/6), or a single snapshot
      state somewhere in the run ([lin], arXiv:1705.08885),
    - the failure mode: failures impossible (Figure 1), pessimistic
      ([fails] as soon as an un-yielded element is unreachable, Figures
      3/4/5), or optimistic (never [fails]; blocks instead, Figure 6).

    [fig6_window] is a documented relaxation of Figure 6 matching §3.4's
    prose ("we may yield elements that have been [...] removed"): the
    yielded element may come from the value of [s] at {e any} state
    between the first-state and the pre-state, provided it is accessible.
    Literal Figure 6 requires the yielded element to be in [s_pre] itself;
    the gap between the two is measurable when iterators read stale
    directory replicas (ablation A1). *)

type spec = Visibility.config

(** Immutable set, failures ignored. *)
val fig1 : spec

(** Immutable set with failures, pessimistic. *)
val fig3 : spec

(** Mutable set, snapshot at first call ("loses mutations"). *)
val fig4 : spec

(** Growing-only set, pessimistic. *)
val fig5 : spec

(** Growing and shrinking set, optimistic (dynamic sets). *)
val fig6 : spec

(** §3.4 prose relaxation of Figure 6. *)
val fig6_window : spec

(** §3.1 relaxation of Figure 3: immutability enforced only during each
    run. *)
val fig3_relaxed : spec

(** §3.3 relaxation of Figure 5: growth-only enforced only during each
    run. *)
val fig5_relaxed : spec

(** The fifth design point: linearizable snapshot iterator
    (arXiv:1705.08885) — some single state σ in [first,last] explains
    every yield and the returned set; failures are impossible. *)
val lin : spec

val all_specs : spec list

type violation = Visibility.violation = {
  where : string;                (** which clause failed *)
  state : Sstate.t option;       (** the state it failed at, if localisable *)
  message : string;
}

type verdict = Visibility.verdict = Conforms | Violates of violation list

val verdict_ok : verdict -> bool
val pp_verdict : Format.formatter -> verdict -> unit

(** [check ?planted spec comp] = [Visibility.check ?planted spec comp]. *)
val check : ?planted:Weakset_obs.Planted.t -> spec -> Computation.t -> verdict
