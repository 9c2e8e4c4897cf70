(* Benchmark/experiment driver.  Running with no arguments regenerates
   every experiment table (F1..F6, E1..E13, A1..A4); see DESIGN.md
   section 4 for the experiment index and EXPERIMENTS.md for
   paper-vs-measured commentary.

     dune exec bench/main.exe                     -- everything
     dune exec bench/main.exe -- --metrics-json m.json
                                                  -- also dump the metrics
                                                     registries as JSON
     dune exec bench/main.exe -- --trace-jsonl t.jsonl
                                                  -- also write the full
                                                     typed event stream
     dune exec bench/main.exe -- --baseline b.json
                                                  -- run only the seeded
                                                     baseline suite
     dune exec bench/main.exe -- --compare OLD NEW
                                                  -- regression gate
     dune exec bench/main.exe -- --cache --warm-iters 4
                                                  -- cache cold/warm only

   Exit status: 2 for a bad command line; 1 when --compare finds a
   regression, when an --e12 cell has no verdict or violates its spec,
   or when an --e13 design point finds no knee; --e13 --admission raises
   on a broken overload contract. *)

let () =
  match Bench_lib.Cli.parse (List.tl (Array.to_list Sys.argv)) with
  | `Help ->
      print_string Bench_lib.Cli.usage;
      exit 0
  | `Error msg ->
      prerr_string ("weakset_bench: " ^ msg ^ "\n\n" ^ Bench_lib.Cli.usage);
      exit 2
  | `Ok o -> (
      match o.Bench_lib.Cli.compare with
      | Some (old_path, new_path) ->
          exit
            (Bench_lib.Baseline.run_compare ~tolerance:o.Bench_lib.Cli.tolerance old_path
               new_path)
      | None ->
          Option.iter Bench_lib.Harness.set_trace_path o.Bench_lib.Cli.trace_jsonl;
          Option.iter Bench_lib.Harness.set_profile_path o.Bench_lib.Cli.profile_json;
          Option.iter Bench_lib.Harness.set_blackbox_dir o.Bench_lib.Cli.blackbox_dir;
          if o.Bench_lib.Cli.slo_report then Bench_lib.Harness.enable_slo ();
          let ok =
            match o.Bench_lib.Cli.baseline with
            | Some path ->
                Printf.printf "Weak sets (Wing & Steere, ICDCS 1995) - baseline suite\n";
                let metrics = Bench_lib.Baseline.collect () in
                Bench_lib.Baseline.write ~path metrics;
                Printf.printf "%d tracked metrics written to %s\n" (List.length metrics) path;
                true
            | None when o.Bench_lib.Cli.cache ->
                Printf.printf "Weak sets (Wing & Steere, ICDCS 1995) - lease-cache experiment\n";
                Printf.printf "All latencies are simulated virtual time units unless noted.\n";
                Bench_lib.Experiments.e9_cache_warm
                  ?lease_ttl:o.Bench_lib.Cli.lease_ttl
                  ?warm_iters:o.Bench_lib.Cli.warm_iters ();
                true
            | None when o.Bench_lib.Cli.e12 ->
                Printf.printf
                  "Weak sets (Wing & Steere, ICDCS 1995) - five-semantics head-to-head\n";
                Printf.printf "All latencies are simulated virtual time units unless noted.\n";
                Bench_lib.Experiments.e12_five_semantics ()
            | None when o.Bench_lib.Cli.e13 && o.Bench_lib.Cli.admission ->
                Printf.printf
                  "Weak sets (Wing & Steere, ICDCS 1995) - overload survival comparison\n";
                Printf.printf "All latencies are simulated virtual time units unless noted.\n";
                Bench_lib.Experiments.e13_admission
                  ?clients:o.Bench_lib.Cli.load_clients
                  ?duration:o.Bench_lib.Cli.load_duration
                  ?curves_json:o.Bench_lib.Cli.curves_json ();
                true
            | None when o.Bench_lib.Cli.e13 ->
                Printf.printf
                  "Weak sets (Wing & Steere, ICDCS 1995) - open-loop saturation sweep\n";
                Printf.printf "All latencies are simulated virtual time units unless noted.\n";
                Bench_lib.Experiments.e13_open_loop
                  ?clients:o.Bench_lib.Cli.load_clients
                  ?duration:o.Bench_lib.Cli.load_duration
                  ?curves_json:o.Bench_lib.Cli.curves_json ()
            | None ->
                Printf.printf "Weak sets (Wing & Steere, ICDCS 1995) - experiment suite\n";
                Printf.printf "All latencies are simulated virtual time units unless noted.\n";
                Bench_lib.Experiments.run_all ();
                true
          in
          Option.iter
            (fun path -> Bench_lib.Harness.export_metrics_json ~path)
            o.Bench_lib.Cli.metrics_json;
          Bench_lib.Harness.export_profiles ();
          Bench_lib.Harness.export_blackbox ();
          Bench_lib.Harness.slo_report ();
          Bench_lib.Harness.close_trace ();
          if not ok then exit 1)
