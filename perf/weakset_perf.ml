(* weakset_perf: the end-to-end and per-layer benchmark.

     weakset_perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                  [--out FILE]
     weakset_perf --merge RUN.json... --out FILE
     weakset_perf --compare A.json B.json

   Run from the repository root, where BENCHMARK.json names every
   metric with its unit, direction and bound.  Without --workload every
   workload runs.  The last line of standard output is one JSON object
   with the fields correct, attempted, failed and metrics (end-to-end
   metrics; per-layer ones with --trace 1).  A failed correctness check exits
   with the check's code: 3 wide/deep yield mismatch, 4 failover row
   failed, 5 replayed pass simulated differently, 6 overload fiber
   crash, 7 overload request accounting.  2 is a usage or input error;
   --compare exits 9 when an end-to-end metric got worse by more than
   its bound. *)

open Perf_lib

let usage_error fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("weakset_perf: " ^ s);
      exit 2)
    fmt

let () =
  let workloads = ref [] and seed = ref 0 and seconds = ref 20.0 and trace = ref 0 in
  let out = ref None in
  let merge = ref false and compare = ref false and files = ref [] in
  Arg.parse
    [
      ( "--workload",
        Arg.String (fun w -> workloads := !workloads @ [ w ]),
        "NAME run one workload (repeatable)" );
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs (default 0)");
      ("--seconds", Arg.Set_float seconds, "S measuring window per workload (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 1 reports the per-layer metrics from traced passes");
      ( "--out",
        Arg.String (fun f -> out := Some f),
        "FILE write workload -> metric -> value as JSON" );
      ("--merge", Arg.Set merge, " merge the --out files given as arguments into --out");
      ("--compare", Arg.Set compare, " compare two --out files given as arguments");
    ]
    (fun f -> files := !files @ [ f ])
    "weakset_perf [options]";
  let catalog =
    match Catalog.load "BENCHMARK.json" with Ok c -> c | Error e -> usage_error "%s" e
  in
  let read f = match Bench.read_json f with Ok j -> j | Error e -> usage_error "%s" e in
  if !compare then begin
    match !files with
    | [ a; b ] -> if Bench.compare_files ~catalog (read a) (read b) then exit 9
    | _ -> usage_error "--compare takes two files"
  end
  else if !merge then begin
    match (!files, !out) with
    | [], _ | _, None -> usage_error "--merge takes run files and --out"
    | fs, Some o ->
        Out_channel.with_open_bin o (fun oc ->
            output_string oc (Bench.merge (List.map read fs) ^ "\n"))
  end
  else begin
    if !files <> [] then usage_error "unexpected argument %s" (List.hd !files);
    if !trace <> 0 && !trace <> 1 then usage_error "--trace takes 0 or 1";
    let trace = !trace = 1 in
    let selected =
      match !workloads with
      | [] -> Workloads.all
      | names ->
          List.map
            (fun n ->
              match List.find_opt (fun (w : Workloads.t) -> w.name = n) Workloads.all with
              | Some w -> w
              | None -> usage_error "unknown workload %s" n)
            names
    in
    let results =
      List.map
        (fun w ->
          match Bench.run w ~seed:!seed ~seconds:!seconds ~trace ~toy:false ~catalog with
          | r ->
              Bench.print_report ~catalog ~seed:!seed r;
              r
          | exception Workloads.Check_failed (code, msg) ->
              Printf.printf "CHECK FAILED (%s): %s\n" w.name msg;
              print_endline {|{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}|};
              exit code)
        selected
    in
    Option.iter
      (fun o ->
        Out_channel.with_open_bin o (fun oc ->
            output_string oc (Bench.out_json ~seed:!seed ~seconds:!seconds ~trace results ^ "\n")))
      !out;
    let prefix (r : Bench.result) = if List.length results = 1 then "" else r.workload ^ "." in
    print_endline (Bench.result_line ~catalog ~prefix results)
  end
