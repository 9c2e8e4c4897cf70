type t = {
  grow_only_drop : bool;
  inval_drop : bool;
  axiom_flip : bool;
  view_change_drop : bool;
  shed_after_apply : bool;
}

let none =
  {
    grow_only_drop = false;
    inval_drop = false;
    axiom_flip = false;
    view_change_drop = false;
    shed_after_apply = false;
  }
