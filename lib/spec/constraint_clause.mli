(** Type-level [constraint] clauses (paper §2.2): history properties that
    must hold of {e every} pair of states [σi, σj] with [i < j] in a
    computation.

    The paper's three constraints on the value of [s] are provided:
    - [immutable]: [s_i = s_j]  (Figures 1 and 3)
    - [grow_only]: [s_i ⊆ s_j]  (Figure 5)
    - [unconstrained]: [true]   (Figures 4 and 6)

    All three are reflexive and transitive, so checking consecutive pairs
    is equivalent to checking all pairs; [check] exploits this. *)

type t

val name : t -> string

(** [make ~name rel] builds a clause from a reflexive-transitive relation
    on set values. *)
val make : name:string -> (Elem.Set.t -> Elem.Set.t -> bool) -> t

val immutable : t
val grow_only : t
val unconstrained : t

(** Evaluate the relation directly. *)
val holds_between : t -> Elem.Set.t -> Elem.Set.t -> bool

type violation = { clause : string; si : Sstate.t; sj : Sstate.t }

(** [check t comp] returns the first violated pair, if any.

    The scan covers the states where the set value is authoritative
    (first, mutation and completion observations).  Invocation pre-states
    are excluded: they record the membership a reply delivered — the
    implementation's linearisation point — which may lag the directory by
    the mutations that landed while the reply was in flight, and that
    recording skew is not an evolution of the set.  Read-path integrity
    of those views is enforced separately by the instrument (see
    {!Weakset_core.Instrument}). *)
val check : t -> Computation.t -> violation option

(** [check_between t comp ~from_ ~to_] checks only the states whose index
    lies in [[from_, to_]] — the §3.1/§3.3 per-run constraint scope.
    Same state coverage as {!check}. *)
val check_between : t -> Computation.t -> from_:int -> to_:int -> violation option
