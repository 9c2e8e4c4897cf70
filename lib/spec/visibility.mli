(** The parametric visibility-based consistency checker.

    Following "Verifying Visibility-Based Weak Consistency"
    (arXiv:1911.01508), a recorded {!Computation.t} is read as an
    operation graph: captured states are the operations, {e arbitration}
    is the total order of capture indices, and {e visibility} is the
    per-config relation selecting which states an invocation may
    observe.  Every design point — the paper's figures and the
    linearizable iterator of arXiv:1705.08885 — is a {!config}; one
    generic {!check} judges them all, with counterexample extraction.

    {!Figures} names the paper's rows; a new design point is one more
    {!config} value. *)

(** The membership anchor: which state's [s] an invocation observes.
    [First_state] and [Pre_state] are the paper's two vintages;
    [Snapshot] demands one state σ in [first,last] explaining the whole
    run (linearizability). *)
type anchor = First_state | Pre_state | Snapshot

type failure_mode = No_failures | Pessimistic | Optimistic

(** Scope of the type constraint: every pair of states, or only the
    states between the first-state and last-state of one run. *)
type scope = All_pairs | During_run

type config = {
  name : string;
  paper_figure : string;  (** e.g. ["Figure 3"] *)
  description : string;
  constraint_ : Constraint_clause.t;
  scope : scope;
  anchor : anchor;
  failure : failure_mode;
  window : bool;  (** §3.4 window: visibility covers [first,pre] *)
}

type violation = {
  where : string;                (** which clause failed *)
  state : Sstate.t option;       (** the state it failed at, if localisable *)
  message : string;
}

type verdict = Conforms | Violates of violation list

val verdict_ok : verdict -> bool
val pp_violation : Format.formatter -> violation -> unit
val pp_verdict : Format.formatter -> verdict -> unit

(** Structure obligations shared by every config: a first-state exists,
    [yielded] starts empty and evolves only at suspends, termination is
    terminal. *)
val structural_violations : Computation.t -> violation list

(** [check ?planted config comp] validates every obligation of the
    config against the recorded computation: the constraint clause over
    its scope, the history-object discipline, each completed invocation's
    branch of the ensures clause, failure-mode legality, and the
    membership guarantee of the config's visibility relation (anchor,
    window, or snapshot witness).  With [planted]'s
    {!Weakset_obs.Planted.axiom_flip} armed (default {!Weakset_obs.Planted.none})
    the membership axiom is inverted, so a healthy run is convicted: the
    mutation test proving this engine is live on the checking path. *)
val check : ?planted:Weakset_obs.Planted.t -> config -> Computation.t -> verdict
