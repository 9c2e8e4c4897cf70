(* Checker verdict pin: the parametric visibility engine
   (Weakset_spec.Visibility, reached through Figures.check) must return,
   violation by violation, the verdicts recorded in spec_verdicts.golden.
   That file was rendered by the pre-refactor figure checker (a separate
   implementation, since retired) on every spec it could judge: the eight
   figure configs.  The lin spec postdates it and is not pinned here.

   One golden line per (item, spec):
     hand <i> <spec> <violations> <md5>        i-th hand-built trace
     vopr <seed> <k> <spec> <violations> <md5> k-th iteration of a seed
   where the md5 is over the verdict rendered as [Conforms] or as its
   violations in order, each as (where, message, state index).  For a
   fixed corpus that rendering is field-complete: the same index names
   the same state.

   Two corpora:
   - hand-built traces covering every behaviour class the checker
     discriminates (clean drains, stray/duplicate yields, failures with
     and without obligations, mid-run mutation, inaccessible members,
     early returns), each judged under all eight specs;
   - real recorded computations from the VOPR swarm, seeds 0..63 — the
     same seed range the CI smoke sweeps — re-judged by the engine.

   The golden file changes only together with a stated re-baseline of
   digest_pin.golden: a change to the simulator can change the VOPR
   corpus, never a verdict on a fixed computation.  Such a re-baseline
   re-renders the vopr lines with [verdict_line]; the hand lines stay. *)

open Weakset_spec

let e i = Elem.make i
let eset l = Elem.Set.of_list (List.map e l)

(* Trace-building DSL (same shape as test_spec's). *)

type step =
  | Yield of int
  | Ret
  | Fail
  | Mut_add of int
  | Mut_remove of int
  | Acc of int list

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

(* ------------------------------------------------------------------ *)
(* Verdict rendering                                                  *)
(* ------------------------------------------------------------------ *)

let golden_file = "spec_verdicts.golden"

let render_verdict = function
  | Figures.Conforms -> "Conforms"
  | Figures.Violates vs ->
      String.concat "\n"
        (List.map
           (fun (v : Figures.violation) ->
             Printf.sprintf "(%S, %S, %d)" v.where v.message
               (match v.state with None -> -1 | Some st -> st.Sstate.index))
           vs)

let verdict_line key spec verdict =
  Printf.sprintf "%s %s %d %s" key spec.Visibility.name
    (match verdict with Figures.Conforms -> 0 | Figures.Violates vs -> List.length vs)
    (Stdlib.Digest.to_hex (Stdlib.Digest.string (render_verdict verdict)))

(* The golden file pins the figure configs; snapshot-anchored ones (lin)
   postdate it. *)
let pinned spec = spec.Visibility.anchor <> Visibility.Snapshot
let pinned_specs = List.filter pinned Figures.all_specs

let verdict_lines ?planted key comp =
  List.map (fun spec -> verdict_line key spec (Figures.check ?planted spec comp)) pinned_specs

let read_golden prefix =
  In_channel.with_open_text golden_file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.starts_with ~prefix:(prefix ^ " ") l)

let check_lines prefix actual =
  let expected = read_golden prefix in
  Alcotest.(check int) (prefix ^ " line count") (List.length expected) (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) "pinned verdict" e a) expected actual

(* ------------------------------------------------------------------ *)
(* Hand-built corpus                                                  *)
(* ------------------------------------------------------------------ *)

let hand_traces =
  [
    ("clean full drain", build ~s0:[ 1; 2; 3 ] [ Yield 1; Yield 2; Yield 3; Ret ]);
    ("empty set immediate return", build ~s0:[] [ Ret ]);
    ("stray yield outside s", build ~s0:[ 1; 2 ] [ Yield 1; Yield 7; Ret ]);
    ("duplicate yield", build ~s0:[ 1; 2 ] [ Yield 1; Yield 1; Yield 2; Ret ]);
    ("fail with obligations accessible", build ~s0:[ 1; 2; 3 ] [ Yield 1; Fail ]);
    ( "fail only after inaccessibility",
      build ~s0:[ 1; 2; 3 ] [ Yield 1; Acc [ 1 ]; Fail ] );
    ("early return with obligations", build ~s0:[ 1; 2; 3 ] [ Yield 1; Ret ]);
    ( "return once remainder inaccessible",
      build ~s0:[ 1; 2; 3 ] [ Yield 1; Yield 2; Acc [ 1; 2 ]; Ret ] );
    ( "concurrent add observed",
      build ~s0:[ 1; 2 ] [ Yield 1; Mut_add 9; Yield 9; Yield 2; Ret ] );
    ( "concurrent add ignored",
      build ~s0:[ 1; 2 ] [ Yield 1; Mut_add 9; Yield 2; Ret ] );
    ( "yield then removed (stale window)",
      build ~s0:[ 1; 2; 3 ] [ Yield 1; Mut_remove 1; Yield 2; Yield 3; Ret ] );
    ( "removed then yielded anyway",
      build ~s0:[ 1; 2; 3 ] [ Mut_remove 3; Yield 3; Yield 1; Yield 2; Ret ] );
    ( "add and remove churn, completes",
      build ~s0:[ 1; 2 ]
        [ Yield 1; Mut_add 5; Mut_remove 2; Yield 5; Mut_add 6; Yield 6; Ret ] );
    ("suspend forever (no termination)", build ~s0:[ 1; 2; 3 ] [ Yield 1; Yield 2 ]);
    ("fails immediately", build ~s0:[ 1; 2 ] [ Fail ]);
    ( "shrinking set violates grow-only",
      build ~s0:[ 1; 2; 3 ] [ Yield 1; Mut_remove 2; Yield 3; Ret ] );
  ]

let hand_lines ?planted () =
  List.concat
    (List.mapi
       (fun i (_, comp) -> verdict_lines ?planted (Printf.sprintf "hand %d" i) comp)
       hand_traces)

let test_hand_corpus () = check_lines "hand" (hand_lines ())

(* The planted axiom mutation postdates the golden verdicts, so arming it
   must break the pin on the hand corpus, and disarming it must restore
   it: the pin is sensitive to a single axiom edit, the same property
   the VOPR mutation test checks end to end. *)
let test_planted_breaks_equivalence () =
  let golden = read_golden "hand" in
  let armed = hand_lines ~planted:{ Weakset_obs.Planted.none with axiom_flip = true } () in
  Alcotest.(check bool) "armed axiom flip diverges from the golden verdicts" false (golden = armed);
  Alcotest.(check bool) "disarmed, the golden verdicts hold again" true (golden = hand_lines ())

(* ------------------------------------------------------------------ *)
(* VOPR corpus: recorded computations from the CI seed range          *)
(* ------------------------------------------------------------------ *)

let test_vopr_corpus () =
  let judged = ref 0 in
  let lines =
    List.concat_map
      (fun seed ->
        let r = Weakset_vopr.Runner.execute (Weakset_vopr.Gen.generate (Int64.of_int seed)) in
        List.concat
          (List.mapi
             (fun k (it : Weakset_vopr.Oracle.iteration_input) ->
               if pinned it.spec then begin
                 incr judged;
                 verdict_lines (Printf.sprintf "vopr %d %d" seed k) it.computation
               end
               else [])
             r.Weakset_vopr.Runner.iterations))
      (List.init 64 Fun.id)
  in
  (* The corpus must actually exercise the checker: a swarm this size
     records hundreds of iterations. *)
  Alcotest.(check bool)
    (Printf.sprintf "corpus is non-trivial (%d computations judged)" !judged)
    true (!judged > 100);
  check_lines "vopr" lines

let () =
  Alcotest.run "weakset_equivalence"
    [
      ( "equivalence",
        [
          Alcotest.test_case "hand-built corpus, all eight specs" `Quick test_hand_corpus;
          Alcotest.test_case "planted axiom flip breaks equivalence" `Quick
            test_planted_breaks_equivalence;
          Alcotest.test_case "VOPR corpus seeds 0..63" `Slow test_vopr_corpus;
        ] );
    ]
