(** Planted bugs: deliberate defects a mutation test arms to prove the
    oracle convicts them.  They are a run's input, like its seed:
    {!Weakset_sim.Engine.create} takes them and every layer reads them
    from its engine, while the pure spec checker takes them as an
    argument.  (They live here because every layer, the checker
    included, depends on this library.) *)

type t = {
  grow_only_drop : bool;
      (** grow-only marks unreachable members yielded and returns
          instead of failing *)
  inval_drop : bool;  (** a lease cache drops wire [Inval] callbacks *)
  axiom_flip : bool;  (** the visibility checker inverts its membership axiom *)
  view_change_drop : bool;
      (** a new replication-group leader drops the uncommitted suffix *)
  shed_after_apply : bool;  (** a shed mutation applies its effect anyway *)
}

(** Nothing armed: every production run. *)
val none : t
