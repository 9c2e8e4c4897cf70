(* M1: bechamel microbenchmarks of the hot paths - one Test.make per
   component.  These measure real wall-clock cost (ns/run) of the spec
   checker, the monitor, the event engine and the supporting data
   structures, i.e. the overhead our instrumentation adds on top of the
   simulated system. *)

open Bechamel
open Toolkit

let elem i = Weakset_spec.Elem.make i

(* A synthetic conforming computation with [n] invocations. *)
let make_computation n =
  let comp = Weakset_spec.Computation.create () in
  let members = List.init n elem in
  let s = Weakset_spec.Elem.Set.of_list members in
  let yielded = ref Weakset_spec.Elem.Set.empty in
  Weakset_spec.Computation.append comp ~time:0.0 ~kind:Weakset_spec.Sstate.First ~s ~accessible:s
    ~yielded:!yielded;
  List.iteri
    (fun i e ->
      Weakset_spec.Computation.append comp ~time:(float_of_int i)
        ~kind:(Weakset_spec.Sstate.Invocation_pre i) ~s ~accessible:s ~yielded:!yielded;
      yielded := Weakset_spec.Elem.Set.add e !yielded;
      Weakset_spec.Computation.append comp ~time:(float_of_int i)
        ~kind:(Weakset_spec.Sstate.Invocation_post (i, Weakset_spec.Sstate.Suspends e))
        ~s ~accessible:s ~yielded:!yielded)
    members;
  Weakset_spec.Computation.append comp ~time:(float_of_int n)
    ~kind:(Weakset_spec.Sstate.Invocation_pre n) ~s ~accessible:s ~yielded:!yielded;
  Weakset_spec.Computation.append comp ~time:(float_of_int n)
    ~kind:(Weakset_spec.Sstate.Invocation_post (n, Weakset_spec.Sstate.Returns))
    ~s ~accessible:s ~yielded:!yielded;
  comp

let bench_spec_check n =
  let comp = make_computation n in
  Test.make
    ~name:(Printf.sprintf "figures.check fig6 (%d invocations)" n)
    (Staged.stage (fun () ->
         ignore (Weakset_spec.Figures.check Weakset_spec.Figures.fig6 comp)))

let bench_engine_fibers n =
  Test.make
    ~name:(Printf.sprintf "engine: %d fibers sleep+finish" n)
    (Staged.stage (fun () ->
         let eng = Weakset_sim.Engine.create () in
         for i = 1 to n do
           Weakset_sim.Engine.spawn eng (fun () ->
               Weakset_sim.Engine.sleep eng (float_of_int (i mod 7)))
         done;
         ignore (Weakset_sim.Engine.run eng)))

let bench_timers n =
  Test.make
    ~name:(Printf.sprintf "engine: %d timers, half cancelled, run" n)
    (Staged.stage (fun () ->
         let eng = Weakset_sim.Engine.create () in
         for i = n downto 1 do
           let tm = Weakset_sim.Engine.timer eng ~after:(float_of_int i) ignore in
           if i land 1 = 0 then Weakset_sim.Engine.cancel eng tm
         done;
         ignore (Weakset_sim.Engine.run eng)))

let bench_rng =
  let rng = Weakset_sim.Rng.create 1L in
  Test.make ~name:"rng: splitmix64 next" (Staged.stage (fun () -> ignore (Weakset_sim.Rng.next rng)))

let bench_full_iteration_instrumented =
  Test.make ~name:"end-to-end: same iteration, spec-instrumented"
    (Staged.stage (fun () ->
         let w = Scenarios.clique_world ~seed:1 ~size:8 () in
         ignore (Scenarios.run_iteration ~instrument:true w Weakset_core.Semantics.optimistic)))

let bench_full_iteration =
  (* A complete end-to-end iteration over a small simulated cluster:
     the cost of one whole scenario in host time. *)
  Test.make ~name:"end-to-end: optimistic iteration, 8 elements, 6 nodes"
    (Staged.stage (fun () ->
         let w = Scenarios.clique_world ~seed:1 ~size:8 () in
         ignore (Scenarios.run_iteration w Weakset_core.Semantics.optimistic)))

let tests =
  Test.make_grouped ~name:"micro"
    [
      bench_spec_check 10;
      bench_spec_check 100;
      bench_engine_fibers 1000;
      bench_timers 1000;
      bench_rng;
      bench_full_iteration;
      bench_full_iteration_instrumented;
    ]

let run () =
  Harness.section ~id:"M1" ~title:"microbenchmarks (host wall-clock, bechamel)"
    ~paper:"instrumentation overhead (not in the paper; validates the harness itself)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  let rows = ref [] in
  Hashtbl.iter
    (fun _instance tbl ->
      Hashtbl.iter
        (fun name ols_result ->
          let cell =
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] -> Printf.sprintf "%.1f ns" est
            | Some l ->
                String.concat ", " (List.map (fun e -> Printf.sprintf "%.1f" e) l)
            | None -> "-"
          in
          rows := [ name; cell ] :: !rows)
        tbl)
    results;
  Harness.table ~headers:[ "benchmark"; "time/run" ]
    (List.sort compare !rows)
