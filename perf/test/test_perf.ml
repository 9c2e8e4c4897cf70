(* Every workload at toy size: the metric names it emits are exactly the
   ones BENCHMARK.json lists, and its simulated metrics are the same, to
   the bit, across two runs of one seed. *)

open Perf_lib

let catalog =
  match Catalog.load "../../BENCHMARK.json" with Ok c -> c | Error e -> failwith e

let names (ms : Catalog.metric list) = List.map (fun (m : Catalog.metric) -> m.name) ms

let well_formed n =
  String.length n <= 64
  && String.length n > 0
  && (match n.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       n

let test_catalog () =
  let all = names catalog.end_to_end @ names catalog.per_layer in
  List.iter (fun n -> Alcotest.(check bool) ("well-formed " ^ n) true (well_formed n)) all;
  Alcotest.(check int)
    "names are unique" (List.length all)
    (List.length (List.sort_uniq compare all));
  Alcotest.(check (list string))
    "workloads" catalog.workloads
    (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)

let run ~trace w = Bench.run w ~seed:1 ~seconds:0.0 ~trace ~toy:true ~catalog
let bits l = List.map (fun (n, v) -> Printf.sprintf "%s=%h" n v) l

let test_workload (w : Workloads.t) () =
  let plain = run ~trace:false w in
  Alcotest.(check (list string))
    "end-to-end names" (names catalog.end_to_end) (List.map fst plain.e2e);
  let traced = run ~trace:true w in
  Alcotest.(check (list string))
    "per-layer names" (names catalog.per_layer) (List.map fst traced.layer);
  Alcotest.(check (list string))
    "simulated metrics replay bit for bit" (bits plain.sim) (bits traced.sim)

let () =
  Alcotest.run "perf"
    [
      ("catalog", [ Alcotest.test_case "names" `Quick test_catalog ]);
      ( "workloads",
        List.map
          (fun (w : Workloads.t) -> Alcotest.test_case w.name `Quick (test_workload w))
          Workloads.all
      );
    ]
