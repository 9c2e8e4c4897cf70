type spec = Visibility.config

let fig1 =
  Visibility.
    {
      name = "immutable";
      paper_figure = "Figure 1";
      description = "immutable set, failures ignored";
      constraint_ = Constraint_clause.immutable;
      scope = All_pairs;
      anchor = First_state;
      failure = No_failures;
      window = false;
    }

let fig3 =
  Visibility.
    {
      name = "immutable-failures";
      paper_figure = "Figure 3";
      description = "immutable set with failures, pessimistic";
      constraint_ = Constraint_clause.immutable;
      scope = All_pairs;
      anchor = First_state;
      failure = Pessimistic;
      window = false;
    }

let fig4 =
  Visibility.
    {
      name = "snapshot";
      paper_figure = "Figure 4";
      description = "mutable set, loss of mutations after the first call";
      constraint_ = Constraint_clause.unconstrained;
      scope = All_pairs;
      anchor = First_state;
      failure = Pessimistic;
      window = false;
    }

let fig5 =
  Visibility.
    {
      name = "grow-only";
      paper_figure = "Figure 5";
      description = "growing-only set, pessimistic failure handling";
      constraint_ = Constraint_clause.grow_only;
      scope = All_pairs;
      anchor = Pre_state;
      failure = Pessimistic;
      window = false;
    }

let fig6 =
  Visibility.
    {
      name = "optimistic";
      paper_figure = "Figure 6";
      description = "growing and shrinking set, optimistic failure handling";
      constraint_ = Constraint_clause.unconstrained;
      scope = All_pairs;
      anchor = Pre_state;
      failure = Optimistic;
      window = false;
    }

let fig6_window =
  Visibility.
    {
      fig6 with
      name = "optimistic-window";
      paper_figure = "Figure 6 (§3.4 prose)";
      description = "optimistic; yields may come from any state since the first call";
      window = true;
    }

(* The §3.1 relaxation of Figure 3: "mutations may occur between different
   uses of the iterator, but not between invocations of any one use". *)
let fig3_relaxed =
  Visibility.
    {
      fig3 with
      name = "immutable-per-run";
      paper_figure = "Figure 3 (§3.1 relaxed)";
      description = "immutable only between first and last state of one run";
      scope = During_run;
    }

(* The matching §3.3 relaxation of Figure 5. *)
let fig5_relaxed =
  Visibility.
    {
      fig5 with
      name = "grow-only-per-run";
      paper_figure = "Figure 5 (§3.3 relaxed)";
      description = "growing-only between first and last state of one run";
      scope = During_run;
    }

(* The fifth design point (ROADMAP item 5): a linearizable snapshot
   iterator per arXiv:1705.08885.  Snapshot visibility with total
   arbitration — some single state σ between the first call and the
   last must explain every yield and the returned set — and failures
   are impossible (the implementation pins a directory version and
   blocks until every pinned member is fetchable again). *)
let lin =
  Visibility.
    {
      name = "lin";
      paper_figure = "arXiv:1705.08885";
      description = "linearizable snapshot iterator; never fails";
      constraint_ = Constraint_clause.unconstrained;
      scope = All_pairs;
      anchor = Snapshot;
      failure = No_failures;
      window = false;
    }

let all_specs = [ fig1; fig3; fig3_relaxed; fig4; fig5; fig5_relaxed; fig6; fig6_window; lin ]

type violation = Visibility.violation = {
  where : string;
  state : Sstate.t option;
  message : string;
}

type verdict = Visibility.verdict = Conforms | Violates of violation list

let verdict_ok = Visibility.verdict_ok
let pp_verdict = Visibility.pp_verdict
let check = Visibility.check
