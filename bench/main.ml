(* Benchmark/experiment driver.  Running with no arguments regenerates
   every experiment table (F1..F6, E1..E13, A1..A4); see DESIGN.md
   section 4 for the experiment index, EXPERIMENTS.md for
   paper-vs-measured commentary and [Cli.usage] for the flags.

   Exit status: 2 for a bad command line; 1 when an --e12 cell has no
   verdict or violates its spec, or when an --e13 design point finds no
   knee; --e13 --admission raises on a broken overload contract. *)

open Bench_lib

let header ?(virtual_time = true) what =
  Printf.printf "Weak sets (Wing & Steere, ICDCS 1995) - %s\n" what;
  if virtual_time then
    Printf.printf "All latencies are simulated virtual time units unless noted.\n"

let () =
  match Cli.parse (List.tl (Array.to_list Sys.argv)) with
  | `Help ->
      print_string Cli.usage;
      exit 0
  | `Error msg ->
      prerr_string ("weakset_bench: " ^ msg ^ "\n\n" ^ Cli.usage);
      exit 2
  | `Ok o ->
      let obs =
        Observer.create ?metrics_json:o.Cli.metrics_json ?trace_jsonl:o.Cli.trace_jsonl
          ~slo_report:o.Cli.slo_report ?blackbox_dir:o.Cli.blackbox_dir ()
      in
      let ok =
        match o.Cli.baseline with
        | Some path ->
            header ~virtual_time:false "baseline suite";
            let metrics = Baseline.collect ~obs () in
            Baseline.write ~path metrics;
            Printf.printf "%d tracked metrics written to %s\n" (List.length metrics) path;
            true
        | None when o.Cli.cache ->
            header "lease-cache experiment";
            Experiments.e9_cache_warm ~obs ?lease_ttl:o.Cli.lease_ttl
              ?warm_iters:o.Cli.warm_iters ();
            true
        | None when o.Cli.e12 ->
            header "five-semantics head-to-head";
            Experiments.e12_five_semantics ~obs ()
        | None when o.Cli.e13 && o.Cli.admission ->
            header "overload survival comparison";
            Experiments.e13_admission ~obs ?clients:o.Cli.load_clients
              ?duration:o.Cli.load_duration ?curves_json:o.Cli.curves_json ();
            true
        | None when o.Cli.e13 ->
            header "open-loop saturation sweep";
            Experiments.e13_open_loop ~obs ?clients:o.Cli.load_clients
              ?duration:o.Cli.load_duration ?curves_json:o.Cli.curves_json ()
        | None ->
            header "experiment suite";
            Experiments.run_all ~obs ();
            true
      in
      Observer.finish obs;
      if not ok then exit 1
