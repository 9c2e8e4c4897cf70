(* Tests for weakset_spec: constraint clauses, the executable figure
   specifications (conforming and violating traces for each figure), the
   online monitor, the Larch rendering and the report module.

   Traces are built with a tiny step DSL so each test reads like the
   scenario it encodes. *)

open Weakset_spec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let e i = Elem.make i
let eset l = Elem.Set.of_list (List.map e l)

(* ------------------------------------------------------------------ *)
(* Trace-building DSL                                                 *)
(* ------------------------------------------------------------------ *)

type step =
  | Yield of int           (* one invocation that suspends yielding e *)
  | Ret                    (* one invocation that returns *)
  | Fail                   (* one invocation that fails *)
  | Mut_add of int         (* another process adds e *)
  | Mut_remove of int      (* another process removes e *)
  | Acc of int list        (* the set of accessible elements changes *)

(* [build ~s0 ~acc0 steps] replays the scenario and returns the recorded
   computation.  [acc0] defaults to "everything ever mentioned". *)
let build ?acc0 ~s0 steps =
  let mentioned =
    List.concat_map
      (function
        | Yield i | Mut_add i | Mut_remove i -> [ i ]
        | Acc l -> l
        | Ret | Fail -> [])
      steps
    @ s0
  in
  let comp = Computation.create () in
  let time = ref 0.0 in
  let tick () =
    time := !time +. 1.0;
    !time
  in
  let s = ref (eset s0) in
  let acc = ref (match acc0 with Some l -> eset l | None -> eset mentioned) in
  let yielded = ref Elem.Set.empty in
  Computation.append comp ~time:(tick ()) ~kind:Sstate.First ~s:!s ~accessible:!acc
    ~yielded:!yielded;
  let inv = ref 0 in
  let invocation term =
    let i = !inv in
    incr inv;
    Computation.append comp ~time:(tick ()) ~kind:(Sstate.Invocation_pre i) ~s:!s
      ~accessible:!acc ~yielded:!yielded;
    (match term with
    | Sstate.Suspends el -> yielded := Elem.Set.add el !yielded
    | Sstate.Returns | Sstate.Fails -> ());
    Computation.append comp ~time:(tick ())
      ~kind:(Sstate.Invocation_post (i, term))
      ~s:!s ~accessible:!acc ~yielded:!yielded
  in
  List.iter
    (function
      | Yield i -> invocation (Sstate.Suspends (e i))
      | Ret -> invocation Sstate.Returns
      | Fail -> invocation Sstate.Fails
      | Mut_add i ->
          s := Elem.Set.add (e i) !s;
          Computation.append comp ~time:(tick ())
            ~kind:(Sstate.Mutation (Sstate.Madd (e i)))
            ~s:!s ~accessible:!acc ~yielded:!yielded
      | Mut_remove i ->
          s := Elem.Set.remove (e i) !s;
          Computation.append comp ~time:(tick ())
            ~kind:(Sstate.Mutation (Sstate.Mremove (e i)))
            ~s:!s ~accessible:!acc ~yielded:!yielded
      | Acc l -> acc := eset l)
    steps;
  comp

let expect_conforms spec comp =
  match Figures.check spec comp with
  | Figures.Conforms -> ()
  | Figures.Violates _ as v ->
      Alcotest.failf "expected conformance to %s, got:@.%s" spec.Visibility.name
        (Format.asprintf "%a" Figures.pp_verdict v)

let expect_violates ?(where = "") spec comp =
  match Figures.check spec comp with
  | Figures.Conforms -> Alcotest.failf "expected violation of %s" spec.Visibility.name
  | Figures.Violates vs ->
      if where <> "" then
        check_bool
          (Printf.sprintf "violation mentions %S" where)
          true
          (List.exists
             (fun v ->
               let hay = v.Figures.where ^ " " ^ v.Figures.message in
               let nl = String.length where and hl = String.length hay in
               let rec loop i = i + nl <= hl && (String.sub hay i nl = where || loop (i + 1)) in
               nl = 0 || loop 0)
             vs)

(* ------------------------------------------------------------------ *)
(* Elem                                                               *)
(* ------------------------------------------------------------------ *)

let test_elem_identity_by_id () =
  let a = Elem.make ~label:"alpha" 1 and b = Elem.make ~label:"beta" 1 in
  check_bool "same id equal despite labels" true (Elem.equal a b);
  check_int "set collapses them" 1 (Elem.Set.cardinal (Elem.Set.of_list [ a; b ]));
  Alcotest.(check string) "label kept" "alpha" (Elem.label a);
  Alcotest.(check string) "default label" "e7" (Elem.label (Elem.make 7))

(* ------------------------------------------------------------------ *)
(* Constraint clauses                                                 *)
(* ------------------------------------------------------------------ *)

let test_constraint_immutable () =
  let ok = build ~s0:[ 1; 2 ] [ Yield 1; Yield 2; Ret ] in
  check_bool "no violation" true (Constraint_clause.check Constraint_clause.immutable ok = None);
  let bad = build ~s0:[ 1; 2 ] [ Yield 1; Mut_add 3; Yield 2 ] in
  match Constraint_clause.check Constraint_clause.immutable bad with
  | Some v -> check_bool "clause name" true (v.Constraint_clause.clause <> "")
  | None -> Alcotest.fail "mutation must violate immutability"

let test_constraint_grow_only () =
  let ok = build ~s0:[ 1 ] [ Yield 1; Mut_add 2; Yield 2; Ret ] in
  check_bool "grow ok" true (Constraint_clause.check Constraint_clause.grow_only ok = None);
  let bad = build ~s0:[ 1; 2 ] [ Yield 1; Mut_remove 2 ] in
  check_bool "shrink violates" true
    (Constraint_clause.check Constraint_clause.grow_only bad <> None)

let test_constraint_unconstrained () =
  let wild = build ~s0:[ 1 ] [ Mut_add 2; Mut_remove 1; Mut_remove 2; Mut_add 1 ] in
  check_bool "anything goes" true
    (Constraint_clause.check Constraint_clause.unconstrained wild = None)

(* ------------------------------------------------------------------ *)
(* Figure 1: immutable, failures ignored                              *)
(* ------------------------------------------------------------------ *)

let test_fig1_conforming () =
  expect_conforms Figures.fig1 (build ~s0:[ 1; 2; 3 ] [ Yield 1; Yield 2; Yield 3; Ret ])

let test_fig1_empty_set () =
  expect_conforms Figures.fig1 (build ~s0:[] [ Ret ])

let test_fig1_duplicate_yield () =
  expect_violates ~where:"ensures" Figures.fig1
    (build ~s0:[ 1; 2 ] [ Yield 1; Yield 1; Yield 2; Ret ])

let test_fig1_yield_outside_set () =
  expect_violates ~where:"ensures" Figures.fig1 (build ~s0:[ 1 ] [ Yield 9; Yield 1; Ret ])

let test_fig1_premature_return () =
  expect_violates ~where:"expected suspends" Figures.fig1 (build ~s0:[ 1; 2 ] [ Yield 1; Ret ])

let test_fig1_mutation_violates_constraint () =
  expect_violates ~where:"constraint" Figures.fig1
    (build ~s0:[ 1; 2 ] [ Yield 1; Mut_add 3; Yield 2; Yield 3; Ret ])

let test_fig1_fails_not_allowed () =
  expect_violates Figures.fig1 (build ~s0:[ 1; 2 ] [ Yield 1; Fail ])

(* ------------------------------------------------------------------ *)
(* Figure 3: immutable with failures, pessimistic                     *)
(* ------------------------------------------------------------------ *)

let test_fig3_conforming_no_failures () =
  expect_conforms Figures.fig3 (build ~s0:[ 1; 2; 3 ] [ Yield 1; Yield 2; Yield 3; Ret ])

let test_fig3_conforming_fails_on_partition () =
  (* After yielding 1 and 2, element 3 becomes inaccessible: the
     pessimistic iterator must fail, and that conforms. *)
  expect_conforms Figures.fig3
    (build ~s0:[ 1; 2; 3 ] [ Yield 1; Yield 2; Acc [ 1; 2 ]; Fail ])

let test_fig3_fail_with_reachable_work_left () =
  (* Failing while a reachable un-yielded element exists is premature. *)
  expect_violates ~where:"expected suspends" Figures.fig3
    (build ~s0:[ 1; 2; 3 ] [ Yield 1; Fail ])

let test_fig3_yield_unreachable_element () =
  expect_violates ~where:"reachable" Figures.fig3
    (build ~s0:[ 1; 2 ] [ Acc [ 1 ]; Yield 2; Yield 1; Ret ])

let test_fig3_returns_despite_unreachable_member () =
  (* All reachable yielded but 3 is still a member: returning claims
     completeness it does not have; spec requires fails. *)
  expect_violates ~where:"expected fails" Figures.fig3
    (build ~s0:[ 1; 2; 3 ] [ Yield 1; Yield 2; Acc [ 1; 2 ]; Ret ])

let test_fig3_mutation_violates () =
  expect_violates ~where:"constraint" Figures.fig3
    (build ~s0:[ 1; 2 ] [ Yield 1; Mut_remove 2; Fail ])

(* ------------------------------------------------------------------ *)
(* Figure 4: snapshot (loses mutations)                               *)
(* ------------------------------------------------------------------ *)

let test_fig4_conforming_ignores_concurrent_mutations () =
  (* 4 is added and 2 removed after the first call; the iterator yields
     exactly s_first = {1,2,3} and returns. *)
  expect_conforms Figures.fig4
    (build ~s0:[ 1; 2; 3 ] [ Yield 1; Mut_add 4; Yield 2; Mut_remove 2; Yield 3; Ret ])

let test_fig4_yielding_post_first_addition_violates () =
  expect_violates ~where:"ensures" Figures.fig4
    (build ~s0:[ 1 ] [ Mut_add 2; Yield 1; Yield 2; Ret ])

let test_fig4_vs_fig3_design_space () =
  (* The same mutating computation conforms to Figure 4 but violates
     Figure 3 (whose constraint forbids any mutation): the design points
     are genuinely distinct. *)
  let comp = build ~s0:[ 1; 2 ] [ Yield 1; Mut_add 3; Yield 2; Ret ] in
  expect_conforms Figures.fig4 comp;
  expect_violates ~where:"constraint" Figures.fig3 comp

let test_fig4_failure_handling_pessimistic () =
  expect_conforms Figures.fig4
    (build ~s0:[ 1; 2 ] [ Yield 1; Acc [ 1 ]; Fail ]);
  expect_violates ~where:"expected fails" Figures.fig4
    (build ~s0:[ 1; 2 ] [ Yield 1; Acc [ 1 ]; Ret ])

(* ------------------------------------------------------------------ *)
(* Figure 5: grow-only, pessimistic                                   *)
(* ------------------------------------------------------------------ *)

let test_fig5_conforming_sees_additions () =
  expect_conforms Figures.fig5
    (build ~s0:[ 1 ] [ Yield 1; Mut_add 2; Yield 2; Mut_add 3; Yield 3; Ret ])

let test_fig5_shrink_violates_constraint () =
  expect_violates ~where:"constraint" Figures.fig5
    (build ~s0:[ 1; 2 ] [ Yield 1; Mut_remove 2; Ret ])

let test_fig5_missing_addition_violates () =
  (* 2 was added before the final invocation; returning without yielding
     it is premature under current-vintage semantics. *)
  expect_violates ~where:"expected suspends" Figures.fig5
    (build ~s0:[ 1 ] [ Yield 1; Mut_add 2; Ret ])

let test_fig5_fails_on_unreachable () =
  expect_conforms Figures.fig5
    (build ~s0:[ 1; 2 ] [ Yield 1; Acc [ 1 ]; Fail ])

let test_fig5_snapshot_behaviour_violates () =
  (* A snapshot implementation (fig4-style) that ignores the concurrent
     addition does NOT satisfy fig5. *)
  let comp = build ~s0:[ 1; 2 ] [ Yield 1; Mut_add 3; Yield 2; Ret ] in
  expect_violates Figures.fig5 comp

(* ------------------------------------------------------------------ *)
(* Figure 6: optimistic                                               *)
(* ------------------------------------------------------------------ *)

let test_fig6_conforming_grow_and_shrink () =
  expect_conforms Figures.fig6
    (build ~s0:[ 1; 2 ] [ Yield 1; Mut_add 3; Yield 2; Mut_remove 1; Yield 3; Ret ])

let test_fig6_yielded_then_removed_is_fine () =
  (* 1 is yielded, then removed: yielded_last ⊄ s_last, which is exactly
     the weak guarantee §3.4 tolerates. *)
  expect_conforms Figures.fig6
    (build ~s0:[ 1; 2 ] [ Yield 1; Mut_remove 1; Yield 2; Ret ])

let test_fig6_never_fails () =
  expect_violates ~where:"optimistic" Figures.fig6
    (build ~s0:[ 1; 2 ] [ Yield 1; Acc [ 1 ]; Fail ])

let test_fig6_returns_with_current_members_unyielded () =
  expect_violates ~where:"expected suspends" Figures.fig6
    (build ~s0:[ 1; 2 ] [ Yield 1; Ret ])

let test_fig6_return_after_removal_of_rest () =
  (* The un-yielded remainder is deleted mid-run; returning is then
     correct. *)
  expect_conforms Figures.fig6 (build ~s0:[ 1; 2 ] [ Yield 1; Mut_remove 2; Ret ])

let test_fig6_yield_never_member_violates_global () =
  (* 9 is never in s during the run: even the weakest spec rejects it. *)
  expect_violates ~where:"∃σ" Figures.fig6
    (build ~s0:[ 1; 2 ] [ Yield 1; Yield 9; Yield 2; Ret ])

let test_fig6_vs_window_on_stale_yield () =
  (* 2 was a member when the run started but is removed before being
     yielded; a stale-replica implementation yields it anyway.  Literal
     Figure 6 rejects (2 ∉ s_pre); the §3.4-prose window spec accepts. *)
  let comp = build ~s0:[ 1; 2 ] [ Yield 1; Mut_remove 2; Yield 2; Ret ] in
  expect_violates ~where:"ensures" Figures.fig6 comp;
  expect_conforms Figures.fig6_window comp

let test_fig6_window_still_needs_accessibility () =
  let comp = build ~s0:[ 1; 2 ] [ Yield 1; Mut_remove 2; Acc [ 1 ]; Yield 2; Ret ] in
  expect_violates ~where:"reachable" Figures.fig6_window comp

let test_fig6_window_still_rejects_never_member () =
  expect_violates Figures.fig6_window (build ~s0:[ 1 ] [ Yield 9; Yield 1; Ret ])

(* ------------------------------------------------------------------ *)
(* Relaxed per-run constraint variants (§3.1 / §3.3)                  *)
(* ------------------------------------------------------------------ *)

(* A computation with mutations before the first call: rejected by the
   strict figures, accepted by the per-run relaxations.  [pre_ops] are
   (op, resulting_s) pairs recorded before the First state; iteration then
   runs to completion over [final]. *)
let with_pre_first_mutations ~pre_ops ~final =
  let comp = Computation.create () in
  let acc = eset final in
  List.iteri
    (fun i (op, s_after) ->
      Computation.append comp
        ~time:(0.1 +. (0.1 *. float_of_int i))
        ~kind:(Sstate.Mutation op) ~s:(eset s_after) ~accessible:acc ~yielded:Elem.Set.empty)
    pre_ops;
  Computation.append comp ~time:1.0 ~kind:Sstate.First ~s:(eset final) ~accessible:acc
    ~yielded:Elem.Set.empty;
  let yielded = ref Elem.Set.empty in
  List.iteri
    (fun i x ->
      Computation.append comp ~time:(2.0 +. float_of_int i) ~kind:(Sstate.Invocation_pre i)
        ~s:(eset final) ~accessible:acc ~yielded:!yielded;
      yielded := Elem.Set.add (e x) !yielded;
      Computation.append comp
        ~time:(2.2 +. float_of_int i)
        ~kind:(Sstate.Invocation_post (i, Sstate.Suspends (e x)))
        ~s:(eset final) ~accessible:acc ~yielded:!yielded)
    final;
  let n = List.length final in
  Computation.append comp ~time:9.0 ~kind:(Sstate.Invocation_pre n) ~s:(eset final)
    ~accessible:acc ~yielded:!yielded;
  Computation.append comp ~time:9.2
    ~kind:(Sstate.Invocation_post (n, Sstate.Returns))
    ~s:(eset final) ~accessible:acc ~yielded:!yielded;
  comp

let test_relaxed_tolerates_pre_first_mutation () =
  (* An addition before the first call breaks strict immutability only. *)
  let grown =
    with_pre_first_mutations
      ~pre_ops:[ (Sstate.Madd (e 2), [ 1; 2 ]); (Sstate.Madd (e 3), [ 1; 2; 3 ]) ]
      ~final:[ 1; 2; 3 ]
  in
  expect_violates ~where:"constraint" Figures.fig3 grown;
  expect_conforms Figures.fig3_relaxed grown;
  (* A removal before the first call breaks strict grow-only too (the add
     first makes the pre-removal value visible in the computation). *)
  let shrunk =
    with_pre_first_mutations
      ~pre_ops:[ (Sstate.Madd (e 3), [ 1; 2; 3 ]); (Sstate.Mremove (e 3), [ 1; 2 ]) ]
      ~final:[ 1; 2 ]
  in
  expect_violates ~where:"constraint" Figures.fig5 shrunk;
  expect_conforms Figures.fig5_relaxed shrunk;
  expect_violates ~where:"constraint" Figures.fig3 shrunk;
  expect_conforms Figures.fig3_relaxed shrunk

let test_relaxed_still_rejects_in_run_mutation () =
  let comp = build ~s0:[ 1; 2 ] [ Yield 1; Mut_add 3; Yield 2; Yield 3; Ret ] in
  expect_violates ~where:"constraint" Figures.fig3_relaxed comp;
  (* grow-only per-run tolerates in-run additions, not removals *)
  expect_conforms Figures.fig5_relaxed comp;
  let shrink = build ~s0:[ 1; 2 ] [ Yield 1; Mut_remove 2; Ret ] in
  expect_violates ~where:"constraint" Figures.fig5_relaxed shrink

(* ------------------------------------------------------------------ *)
(* Structural checks                                                  *)
(* ------------------------------------------------------------------ *)

let test_structure_invocation_after_return () =
  let comp = build ~s0:[ 1 ] [ Yield 1; Ret; Yield 1 ] in
  expect_violates ~where:"terminal" Figures.fig1 comp

let test_structure_yielded_initially_empty () =
  (* Build a raw computation whose first state pretends work was already
     done. *)
  let comp = Computation.create () in
  Computation.append comp ~time:0.0 ~kind:Sstate.First ~s:(eset [ 1 ])
    ~accessible:(eset [ 1 ]) ~yielded:(eset [ 1 ]);
  expect_violates ~where:"initially" Figures.fig1 comp

let test_structure_no_first_state () =
  let comp = Computation.create () in
  Computation.append comp ~time:0.0 ~kind:(Sstate.Invocation_pre 0) ~s:(eset [ 1 ])
    ~accessible:(eset [ 1 ]) ~yielded:Elem.Set.empty;
  expect_violates ~where:"first-state" Figures.fig1 comp

let test_structure_yielded_mutated_outside_suspends () =
  let comp = Computation.create () in
  let s = eset [ 1; 2 ] in
  Computation.append comp ~time:0.0 ~kind:Sstate.First ~s ~accessible:s
    ~yielded:Elem.Set.empty;
  (* A mutation state where yielded magically grows. *)
  Computation.append comp ~time:1.0 ~kind:(Sstate.Mutation (Sstate.Madd (e 3)))
    ~s:(eset [ 1; 2; 3 ]) ~accessible:s ~yielded:(eset [ 1 ]);
  expect_violates ~where:"history object" Figures.fig6 comp

(* ------------------------------------------------------------------ *)
(* Computation utilities                                              *)
(* ------------------------------------------------------------------ *)

let test_computation_invocations_pairing () =
  let comp = build ~s0:[ 1; 2 ] [ Yield 1; Mut_add 3; Yield 2; Ret ] in
  check_int "three completed invocations" 3 (List.length (Computation.invocations comp));
  check_int "no pending" 0 (List.length (Computation.pending_invocations comp));
  check_bool "terminated" true (Computation.terminated comp)

let test_computation_s_union_window () =
  let comp = build ~s0:[ 1 ] [ Mut_add 2; Mut_remove 1; Mut_add 3 ] in
  let first = Option.get (Computation.first_state comp) in
  let last = Option.get (Computation.last_state comp) in
  let window =
    Computation.s_union_between comp ~from_:first.Sstate.index ~to_:last.Sstate.index
  in
  check_bool "union has all ever-members" true (Elem.Set.equal window (eset [ 1; 2; 3 ]))

let test_computation_final_yielded () =
  let comp = build ~s0:[ 1; 2 ] [ Yield 2; Yield 1; Ret ] in
  check_bool "final yielded" true (Elem.Set.equal (Computation.final_yielded comp) (eset [ 1; 2 ]))

(* ------------------------------------------------------------------ *)
(* Monitor                                                            *)
(* ------------------------------------------------------------------ *)

let test_monitor_basic_flow () =
  let m = Monitor.create () in
  let s = eset [ 1; 2 ] in
  Monitor.observe_first m ~time:0.0 ~s ~accessible:s;
  Monitor.invocation_started m ~time:1.0 ~s ~accessible:s;
  Monitor.invocation_completed m ~time:1.5 ~term:(Sstate.Suspends (e 1)) ~s ~accessible:s;
  Monitor.invocation_started m ~time:2.0 ~s ~accessible:s;
  Monitor.invocation_completed m ~time:2.5 ~term:(Sstate.Suspends (e 2)) ~s ~accessible:s;
  Monitor.invocation_started m ~time:3.0 ~s ~accessible:s;
  Monitor.invocation_completed m ~time:3.5 ~term:Sstate.Returns ~s ~accessible:s;
  check_int "three invocations" 3 (Monitor.completed_invocations m);
  check_bool "yielded tracked" true (Elem.Set.equal (Monitor.yielded m) (eset [ 1; 2 ]));
  expect_conforms Figures.fig1 (Monitor.computation m)

let test_monitor_retry_refreshes_pre () =
  (* The pre-state recorded must be the one from the last retry, which is
     how blocking optimistic invocations linearise. *)
  let m = Monitor.create () in
  let s1 = eset [ 1 ] and s2 = eset [ 1; 2 ] in
  Monitor.observe_first m ~time:0.0 ~s:s1 ~accessible:s1;
  Monitor.invocation_started m ~time:1.0 ~s:s1 ~accessible:s1;
  Monitor.invocation_retry m ~time:2.0 ~s:s2 ~accessible:s2;
  Monitor.invocation_completed m ~time:2.5 ~term:(Sstate.Suspends (e 2)) ~s:s2 ~accessible:s2;
  let pre, _ = List.hd (Computation.invocations (Monitor.computation m)) in
  check_bool "pre is the retried snapshot" true (Elem.Set.equal pre.Sstate.s_value s2)

let test_monitor_blocked () =
  let m = Monitor.create () in
  let s = eset [ 1 ] in
  Monitor.observe_first m ~time:0.0 ~s ~accessible:s;
  check_bool "not blocked initially" false (Monitor.blocked m);
  Monitor.invocation_started m ~time:1.0 ~s ~accessible:s;
  check_bool "blocked while open" true (Monitor.blocked m);
  check_int "pending invisible in computation" 0
    (List.length (Computation.pending_invocations (Monitor.computation m)))

let test_monitor_misuse_rejected () =
  let m = Monitor.create () in
  let s = eset [ 1 ] in
  Alcotest.check_raises "complete before start"
    (Invalid_argument "Monitor: no invocation in progress") (fun () ->
      Monitor.invocation_completed m ~time:1.0 ~term:Sstate.Returns ~s ~accessible:s);
  Monitor.invocation_started m ~time:1.0 ~s ~accessible:s;
  Alcotest.check_raises "double start" (Invalid_argument "Monitor: invocation already in progress")
    (fun () -> Monitor.invocation_started m ~time:2.0 ~s ~accessible:s)

let test_monitor_mutations_recorded () =
  let m = Monitor.create () in
  let s1 = eset [ 1 ] and s2 = eset [ 1; 2 ] in
  Monitor.observe_first m ~time:0.0 ~s:s1 ~accessible:s2;
  Monitor.observe_mutation m ~time:1.0 ~op:(Sstate.Madd (e 2)) ~s:s2 ~accessible:s2;
  check_int "two states" 2 (Computation.length (Monitor.computation m))

let test_monitor_judge_after_capture_rejected () =
  let bus = Weakset_obs.Bus.create () in
  let m = Monitor.create () in
  let s = eset [ 1 ] in
  Monitor.observe_first m ~time:0.0 ~s ~accessible:s;
  Alcotest.check_raises "judge after a recorded state"
    (Invalid_argument "Monitor.judge: a state is already recorded") (fun () ->
      Monitor.judge m ~bus ~set_id:1 Figures.fig1)

(* ------------------------------------------------------------------ *)
(* Report                                                             *)
(* ------------------------------------------------------------------ *)

let test_report_summary () =
  let comp = build ~s0:[ 1 ] [ Yield 1; Ret ] in
  let verdict = Figures.check Figures.fig1 comp in
  let s = Report.summary Figures.fig1 comp verdict in
  check_bool "mentions conforms" true
    (String.length s > 0 && String.sub s (String.length s - String.length "(2 invocations)") 15
       = "(2 invocations)")

let test_report_matrix_immutable_run_satisfies_all () =
  (* A failure-free, mutation-free complete run is the strongest behaviour
     and must satisfy every point of the design space: the specs form a
     hierarchy of permissiveness. *)
  let comp = build ~s0:[ 1; 2; 3 ] [ Yield 2; Yield 1; Yield 3; Ret ] in
  let matrix = Report.conformance_matrix comp in
  check_int "all specs checked" (List.length Figures.all_specs) (List.length matrix);
  List.iter
    (fun (spec, verdict) ->
      check_bool (spec.Visibility.name ^ " conforms") true (Figures.verdict_ok verdict))
    matrix

let test_report_matrix_discriminates () =
  (* A mutating optimistic run conforms to fig6 but not to fig1/fig3. *)
  let comp = build ~s0:[ 1; 2 ] [ Yield 1; Mut_add 3; Yield 2; Yield 3; Ret ] in
  let find name =
    List.find (fun (s, _) -> s.Visibility.name = name) (Report.conformance_matrix comp)
  in
  check_bool "fig6 ok" true (Figures.verdict_ok (snd (find "optimistic")));
  check_bool "grow-only ok" true (Figures.verdict_ok (snd (find "grow-only")));
  check_bool "immutable rejected" false (Figures.verdict_ok (snd (find "immutable")));
  check_bool "immutable-failures rejected" false
    (Figures.verdict_ok (snd (find "immutable-failures")));
  check_bool "snapshot rejected (saw the add)" false (Figures.verdict_ok (snd (find "snapshot")))

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

(* Random full iterations of an immutable set conform to every figure. *)
let prop_complete_immutable_run_conforms_to_all =
  QCheck.Test.make ~name:"complete immutable run conforms to all figures" ~count:100
    QCheck.(pair (int_range 0 10) (int_range 0 1000))
    (fun (n, seed) ->
      let members = List.init n (fun i -> i) in
      (* Shuffle the yield order deterministically from the seed. *)
      let arr = Array.of_list members in
      let st = ref seed in
      let next () =
        st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
        !st
      in
      for i = n - 1 downto 1 do
        let j = next () mod (i + 1) in
        let tmp = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- tmp
      done;
      let steps = Array.to_list (Array.map (fun i -> Yield i) arr) @ [ Ret ] in
      let comp = build ~s0:members steps in
      List.for_all
        (fun spec -> Figures.verdict_ok (Figures.check spec comp))
        Figures.all_specs)

(* Runs that yield something outside the ever-member window violate every
   figure. *)
let prop_alien_yield_rejected_by_all =
  QCheck.Test.make ~name:"alien yield rejected by every figure" ~count:50
    QCheck.(int_range 0 5)
    (fun n ->
      let members = List.init n (fun i -> i) in
      let steps = [ Yield 999 ] @ List.map (fun i -> Yield i) members @ [ Ret ] in
      let comp = build ~s0:members steps in
      List.for_all
        (fun spec -> not (Figures.verdict_ok (Figures.check spec comp)))
        Figures.all_specs)

(* Duplicate yields violate every figure (sets have no duplicates). *)
let prop_duplicate_yield_rejected_by_all =
  QCheck.Test.make ~name:"duplicate yield rejected by every figure" ~count:50
    QCheck.(int_range 1 6)
    (fun n ->
      let members = List.init n (fun i -> i) in
      let steps = List.map (fun i -> Yield i) members @ [ Yield 0; Ret ] in
      let comp = build ~s0:members steps in
      List.for_all
        (fun spec -> not (Figures.verdict_ok (Figures.check spec comp)))
        Figures.all_specs)

(* ------------------------------------------------------------------ *)
(* Larch rendering                                                    *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec loop i = i + nn <= nh && (String.sub hay i nn = needle || loop (i + 1)) in
  nn = 0 || loop 0

let test_larch_renders_constraints () =
  check_bool "fig1 immutable constraint" true
    (contains (Larch.render Figures.fig1) "constraint s_i = s_j");
  check_bool "fig5 grow constraint" true
    (contains (Larch.render Figures.fig5) "constraint s_i ⊆ s_j");
  check_bool "fig6 true constraint" true (contains (Larch.render Figures.fig6) "constraint true")

let test_larch_signals_only_pessimistic () =
  check_bool "fig3 signals failure" true
    (contains (Larch.render Figures.fig3) "signals (failure)");
  check_bool "fig1 no signals" false (contains (Larch.render Figures.fig1) "signals");
  check_bool "fig6 no signals" false (contains (Larch.render Figures.fig6) "signals")

let test_larch_vintages () =
  check_bool "fig3 uses s_first" true (contains (Larch.render Figures.fig3) "s_first");
  check_bool "fig5 uses s_pre" true (contains (Larch.render Figures.fig5) "s_pre");
  check_bool "fig6 existential form" true (contains (Larch.render Figures.fig6) "∃ e ∈ s_pre")

let test_larch_remembers_everywhere () =
  List.iter
    (fun spec ->
      check_bool (spec.Visibility.name ^ " remembers") true
        (contains (Larch.render spec) "remembers yielded : set initially {}"))
    Figures.all_specs

let test_larch_type_spec_has_procedures () =
  let txt = Larch.render_type Figures.fig1 in
  List.iter
    (fun frag -> check_bool frag true (contains txt frag))
    [
      "set = type create, add, remove, size, elements";
      "create = proc () returns (t: set)";
      "add = proc (s: set, e: elem) returns (t: set)";
      "remove = proc (e: elem, s: set) returns (t: set)";
      "size = proc (s: set) returns (i: int)";
    ]

let test_larch_render_all_covers_figures () =
  let txt = Larch.render_all () in
  List.iter
    (fun spec ->
      check_bool spec.Visibility.paper_figure true (contains txt spec.Visibility.paper_figure))
    Figures.all_specs

(* Byte-for-byte pin of every rendering: the substring tests above would
   still pass if the renderer swapped two dimensions (anchor and scope,
   say), these would not. *)
let test_rendering_pinned () =
  let md5 s = Stdlib.Digest.to_hex (Stdlib.Digest.string s) in
  Alcotest.(check string) "render_all" "101a50b354bc126b0617d91123af15c2"
    (md5 (Larch.render_all ()));
  Alcotest.(check (list (pair string string)))
    "render_type of every row"
    [
      ("immutable", "ea20beca3c72950c880816c4bbf3d33c");
      ("immutable-failures", "0687bbe5680b16f84de0c87b528b2c48");
      ("immutable-per-run", "1d042f666ebad2f0db863ed70a82eb81");
      ("snapshot", "d27d24c056abbb2d0749b1e2205254cb");
      ("grow-only", "d7c380b3561fdd55bf2d26d5d5f8385b");
      ("grow-only-per-run", "d36166022c03edc2bff8beba7ad28ea5");
      ("optimistic", "c2876de52bfe63e36d7035be02f0bbab");
      ("optimistic-window", "f03f3afc7f282eb6380d337d3d02afa9");
      ("lin", "92c69a99a3af96397db8aec2e6808d58");
    ]
    (List.map
       (fun spec -> (spec.Visibility.name, md5 (Larch.render_type spec)))
       Figures.all_specs);
  let comp = build ~s0:[ 1; 2 ] [ Yield 1; Mut_add 3; Yield 2; Yield 3; Ret ] in
  Alcotest.(check string) "pp_matrix"
    "  immutable            (Figure 1          ): violates (2)\n\
    \  immutable-failures   (Figure 3          ): violates (2)\n\
    \  immutable-per-run    (Figure 3 (§3.1 relaxed)): violates (2)\n\
    \  snapshot             (Figure 4          ): violates (1)\n\
    \  grow-only            (Figure 5          ): conforms\n\
    \  grow-only-per-run    (Figure 5 (§3.3 relaxed)): conforms\n\
    \  optimistic           (Figure 6          ): conforms\n\
    \  optimistic-window    (Figure 6 (§3.4 prose)): conforms\n\
    \  lin                  (arXiv:1705.08885  ): conforms\n"
    (Format.asprintf "%a" Report.pp_matrix (Report.conformance_matrix comp))

(* Out-of-order appends (reserved sequence numbers) land in capture order
   and indices always equal list position. *)
let prop_computation_seq_ordering =
  QCheck.Test.make ~name:"computation orders states by capture sequence" ~count:100
    QCheck.(list_of_size Gen.(1 -- 60) (int_range 1 30))
    (fun sizes ->
      let comp = Computation.create () in
      (* Reserve a block of seqs up front, then append them shuffled
         (deterministically by sizes). *)
      let seqs = List.map (fun _ -> Computation.next_seq comp) sizes in
      let tagged = List.combine seqs sizes in
      let shuffled = List.sort (fun (_, a) (_, b) -> compare a b) tagged in
      List.iter
        (fun (seq, size) ->
          Computation.append ~seq comp ~time:(float_of_int seq)
            ~kind:(Sstate.Mutation (Sstate.Madd (e size)))
            ~s:(eset [ size ]) ~accessible:(eset [ size ]) ~yielded:Elem.Set.empty)
        shuffled;
      let states = Computation.states comp in
      let indices_ok = List.mapi (fun i st -> st.Sstate.index = i) states in
      let times = List.map (fun st -> st.Sstate.time) states in
      List.for_all (fun b -> b) indices_ok && times = List.sort compare times)

let test_report_timeline () =
  let comp = build ~s0:[ 1; 2 ] [ Yield 1; Mut_add 3; Yield 2; Yield 3; Ret ] in
  let txt = Format.asprintf "%a" Report.pp_timeline comp in
  check_bool "has header" true (contains txt "|yield|");
  check_bool "shows mutation" true (contains txt "mutation add");
  check_bool "shows returns" true (contains txt "returns");
  (* One line per state plus the header. *)
  let lines = String.split_on_char '\n' txt in
  check_int "line count" (Computation.length comp + 2) (List.length lines)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "weakset_spec"
    [
      ("elem", [ Alcotest.test_case "identity by id" `Quick test_elem_identity_by_id ]);
      ( "constraint",
        [
          Alcotest.test_case "immutable" `Quick test_constraint_immutable;
          Alcotest.test_case "grow only" `Quick test_constraint_grow_only;
          Alcotest.test_case "unconstrained" `Quick test_constraint_unconstrained;
        ] );
      ( "fig1",
        [
          Alcotest.test_case "conforming" `Quick test_fig1_conforming;
          Alcotest.test_case "empty set" `Quick test_fig1_empty_set;
          Alcotest.test_case "duplicate yield" `Quick test_fig1_duplicate_yield;
          Alcotest.test_case "yield outside set" `Quick test_fig1_yield_outside_set;
          Alcotest.test_case "premature return" `Quick test_fig1_premature_return;
          Alcotest.test_case "mutation violates constraint" `Quick
            test_fig1_mutation_violates_constraint;
          Alcotest.test_case "fails not allowed" `Quick test_fig1_fails_not_allowed;
        ] );
      ( "fig3",
        [
          Alcotest.test_case "conforming no failures" `Quick test_fig3_conforming_no_failures;
          Alcotest.test_case "conforming fails on partition" `Quick
            test_fig3_conforming_fails_on_partition;
          Alcotest.test_case "premature fail" `Quick test_fig3_fail_with_reachable_work_left;
          Alcotest.test_case "yield unreachable" `Quick test_fig3_yield_unreachable_element;
          Alcotest.test_case "returns despite unreachable member" `Quick
            test_fig3_returns_despite_unreachable_member;
          Alcotest.test_case "mutation violates" `Quick test_fig3_mutation_violates;
        ] );
      ( "fig4",
        [
          Alcotest.test_case "ignores concurrent mutations" `Quick
            test_fig4_conforming_ignores_concurrent_mutations;
          Alcotest.test_case "yield post-first addition violates" `Quick
            test_fig4_yielding_post_first_addition_violates;
          Alcotest.test_case "fig4 vs fig3 design space" `Quick test_fig4_vs_fig3_design_space;
          Alcotest.test_case "pessimistic failures" `Quick test_fig4_failure_handling_pessimistic;
        ] );
      ( "fig5",
        [
          Alcotest.test_case "sees additions" `Quick test_fig5_conforming_sees_additions;
          Alcotest.test_case "shrink violates constraint" `Quick
            test_fig5_shrink_violates_constraint;
          Alcotest.test_case "missing addition violates" `Quick test_fig5_missing_addition_violates;
          Alcotest.test_case "fails on unreachable" `Quick test_fig5_fails_on_unreachable;
          Alcotest.test_case "snapshot behaviour violates" `Quick
            test_fig5_snapshot_behaviour_violates;
        ] );
      ( "fig6",
        [
          Alcotest.test_case "grow and shrink" `Quick test_fig6_conforming_grow_and_shrink;
          Alcotest.test_case "yielded then removed fine" `Quick
            test_fig6_yielded_then_removed_is_fine;
          Alcotest.test_case "never fails" `Quick test_fig6_never_fails;
          Alcotest.test_case "unyielded members at return" `Quick
            test_fig6_returns_with_current_members_unyielded;
          Alcotest.test_case "return after removal of rest" `Quick
            test_fig6_return_after_removal_of_rest;
          Alcotest.test_case "yield never-member violates" `Quick
            test_fig6_yield_never_member_violates_global;
          Alcotest.test_case "fig6 vs window on stale yield" `Quick test_fig6_vs_window_on_stale_yield;
          Alcotest.test_case "window still needs accessibility" `Quick
            test_fig6_window_still_needs_accessibility;
          Alcotest.test_case "window rejects never-member" `Quick
            test_fig6_window_still_rejects_never_member;
        ] );
      ( "relaxed",
        [
          Alcotest.test_case "tolerates pre-first mutation" `Quick
            test_relaxed_tolerates_pre_first_mutation;
          Alcotest.test_case "rejects in-run mutation" `Quick
            test_relaxed_still_rejects_in_run_mutation;
        ] );
      ( "structure",
        [
          Alcotest.test_case "invocation after return" `Quick test_structure_invocation_after_return;
          Alcotest.test_case "yielded initially empty" `Quick test_structure_yielded_initially_empty;
          Alcotest.test_case "no first state" `Quick test_structure_no_first_state;
          Alcotest.test_case "yielded mutated outside suspends" `Quick
            test_structure_yielded_mutated_outside_suspends;
        ] );
      ( "computation",
        Alcotest.test_case "invocation pairing" `Quick test_computation_invocations_pairing
        :: Alcotest.test_case "s union window" `Quick test_computation_s_union_window
        :: Alcotest.test_case "final yielded" `Quick test_computation_final_yielded
        :: qcheck [ prop_computation_seq_ordering ] );
      ( "monitor",
        [
          Alcotest.test_case "basic flow" `Quick test_monitor_basic_flow;
          Alcotest.test_case "retry refreshes pre" `Quick test_monitor_retry_refreshes_pre;
          Alcotest.test_case "blocked" `Quick test_monitor_blocked;
          Alcotest.test_case "misuse rejected" `Quick test_monitor_misuse_rejected;
          Alcotest.test_case "mutations recorded" `Quick test_monitor_mutations_recorded;
          Alcotest.test_case "judge after capture rejected" `Quick
            test_monitor_judge_after_capture_rejected;
        ] );
      ( "larch",
        [
          Alcotest.test_case "constraints" `Quick test_larch_renders_constraints;
          Alcotest.test_case "signals only pessimistic" `Quick test_larch_signals_only_pessimistic;
          Alcotest.test_case "vintages" `Quick test_larch_vintages;
          Alcotest.test_case "remembers everywhere" `Quick test_larch_remembers_everywhere;
          Alcotest.test_case "type spec procedures" `Quick test_larch_type_spec_has_procedures;
          Alcotest.test_case "render_all covers figures" `Quick test_larch_render_all_covers_figures;
          Alcotest.test_case "renderings pinned byte for byte" `Quick test_rendering_pinned;
        ] );
      ( "report",
        Alcotest.test_case "summary" `Quick test_report_summary
        :: Alcotest.test_case "timeline" `Quick test_report_timeline
        :: Alcotest.test_case "matrix: immutable run satisfies all" `Quick
             test_report_matrix_immutable_run_satisfies_all
        :: Alcotest.test_case "matrix discriminates" `Quick test_report_matrix_discriminates
        :: qcheck
             [
               prop_complete_immutable_run_conforms_to_all;
               prop_alien_yield_rejected_by_all;
               prop_duplicate_yield_rejected_by_all;
             ] );
    ]
