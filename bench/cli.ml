(* Command-line parsing for the bench driver, factored out of main so
   the test suite can exercise the strict-parsing rules directly.  An
   unknown or malformed argument is an [`Error] naming the offending
   flag, never silently ignored; a value-taking flag refuses another
   flag as its value (so [--metrics-json --e12] is a missing-argument
   error, not a file called "--e12").  Experiment-scoped options
   ([--lease-ttl]/[--warm-iters] for --cache, [--curves-json]/
   [--load-clients]/[--load-duration] for --e13) are rejected without
   their experiment. *)

let usage =
  "usage: weakset_bench [--metrics-json FILE] [--trace-jsonl FILE]\n\
  \                     [--profile-json FILE] [--slo-report] [--blackbox-dir DIR]\n\
  \                     [--baseline FILE]\n\
  \                     [--cache] [--lease-ttl T] [--warm-iters N]\n\
  \                     [--e12] [--e13] [--admission] [--curves-json FILE]\n\
  \                     [--load-clients N] [--load-duration T]\n\n\
  \  --metrics-json FILE  dump every world's metrics registry as JSON\n\
  \  --trace-jsonl FILE   write the full typed event stream as JSONL\n\
  \                       (analyse with weakset_trace)\n\
  \  --profile-json FILE  dump every world's simulated-time profile as JSON\n\
  \                       (deterministic; same seed => identical bytes)\n\
  \  --slo-report         attach SLO trackers to every world and print the\n\
  \                       per-world burn-rate report at the end\n\
  \  --blackbox-dir DIR   attach a flight recorder to every world; write any\n\
  \                       triggered black-box dumps to DIR (render them with\n\
  \                       weakset_trace blackbox)\n\
  \  --baseline FILE      run only the seeded baseline suite and write its\n\
  \                       tracked metrics to FILE (see BENCH_baseline.json)\n\
  \  --cache              run only the lease-cache cold/warm experiment (E9)\n\
  \  --lease-ttl T        lease TTL for --cache (positive, default 600)\n\
  \  --warm-iters N       warm passes for --cache (positive, default 2)\n\
  \  --e12                run only the five-semantics head-to-head (E12)\n\
  \  --e13                run only the open-loop saturation sweep (E13):\n\
  \                       stepped offered rates, coordinated-omission-safe\n\
  \                       intent vs send latency, knee-of-curve detection\n\
  \  --admission          with --e13: run the admission-control on/off\n\
  \                       comparison (E13b) instead of the full sweep, and\n\
  \                       assert the overload-survival contract\n\
  \  --curves-json FILE   write the E13 throughput-latency surface as JSON\n\
  \                       (deterministic; same seed => identical bytes)\n\
  \  --load-clients N     client fibers per E13 design point (positive)\n\
  \  --load-duration T    arrival horizon per E13 step, virtual time\n\
  \                       (positive)\n"

type opts = {
  mutable metrics_json : string option;
  mutable trace_jsonl : string option;
  mutable profile_json : string option;
  mutable slo_report : bool;
  mutable blackbox_dir : string option;
  mutable baseline : string option;
  mutable cache : bool;
  mutable e12 : bool;
  mutable e13 : bool;
  mutable admission : bool;
  mutable curves_json : string option;
  mutable load_clients : int option;
  mutable load_duration : float option;
  mutable lease_ttl : float option;
  mutable warm_iters : int option;
}

let defaults () =
  {
    metrics_json = None;
    trace_jsonl = None;
    profile_json = None;
    slo_report = false;
    blackbox_dir = None;
    baseline = None;
    cache = false;
    e12 = false;
    e13 = false;
    admission = false;
    curves_json = None;
    load_clients = None;
    load_duration = None;
    lease_ttl = None;
    warm_iters = None;
  }

(* A value that looks like a flag is almost certainly a forgotten
   argument, not a filename; reject it so the mistake is named. *)
let flag_like s = String.length s > 1 && s.[0] = '-'

let parse args =
  let o = defaults () in
  let error fmt = Printf.ksprintf (fun s -> `Error s) fmt in
  let rec go = function
    | [] ->
        if o.lease_ttl <> None && not o.cache then
          error "--lease-ttl only applies to the --cache experiment"
        else if o.warm_iters <> None && not o.cache then
          error "--warm-iters only applies to the --cache experiment"
        else if o.curves_json <> None && not o.e13 then
          error "--curves-json only applies to the --e13 sweep"
        else if o.load_clients <> None && not o.e13 then
          error "--load-clients only applies to the --e13 sweep"
        else if o.load_duration <> None && not o.e13 then
          error "--load-duration only applies to the --e13 sweep"
        else if o.admission && not o.e13 then
          error "--admission only applies to the --e13 sweep"
        else `Ok o
    | "--slo-report" :: rest ->
        o.slo_report <- true;
        go rest
    | "--cache" :: rest ->
        o.cache <- true;
        go rest
    | "--e12" :: rest ->
        o.e12 <- true;
        go rest
    | "--e13" :: rest ->
        o.e13 <- true;
        go rest
    | "--admission" :: rest ->
        o.admission <- true;
        go rest
    | "--metrics-json" :: v :: rest when not (flag_like v) ->
        o.metrics_json <- Some v;
        go rest
    | "--trace-jsonl" :: v :: rest when not (flag_like v) ->
        o.trace_jsonl <- Some v;
        go rest
    | "--profile-json" :: v :: rest when not (flag_like v) ->
        o.profile_json <- Some v;
        go rest
    | "--blackbox-dir" :: v :: rest when not (flag_like v) ->
        o.blackbox_dir <- Some v;
        go rest
    | "--baseline" :: v :: rest when not (flag_like v) ->
        o.baseline <- Some v;
        go rest
    | "--curves-json" :: v :: rest when not (flag_like v) ->
        o.curves_json <- Some v;
        go rest
    | "--lease-ttl" :: v :: rest when not (flag_like v) -> (
        match float_of_string_opt v with
        | Some t when t > 0.0 ->
            o.lease_ttl <- Some t;
            go rest
        | _ -> error "--lease-ttl expects a positive float, got %S" v)
    | "--warm-iters" :: v :: rest when not (flag_like v) -> (
        match int_of_string_opt v with
        | Some n when n > 0 ->
            o.warm_iters <- Some n;
            go rest
        | _ -> error "--warm-iters expects a positive integer, got %S" v)
    | "--load-clients" :: v :: rest when not (flag_like v) -> (
        match int_of_string_opt v with
        | Some n when n > 0 ->
            o.load_clients <- Some n;
            go rest
        | _ -> error "--load-clients expects a positive integer, got %S" v)
    | "--load-duration" :: v :: rest when not (flag_like v) -> (
        match float_of_string_opt v with
        | Some t when t > 0.0 ->
            o.load_duration <- Some t;
            go rest
        | _ -> error "--load-duration expects a positive float, got %S" v)
    | (("--metrics-json" | "--trace-jsonl" | "--profile-json" | "--blackbox-dir"
       | "--baseline" | "--curves-json" | "--lease-ttl" | "--warm-iters" | "--load-clients"
       | "--load-duration") as flag)
      :: rest -> (
        (* Either nothing follows, or the next token is itself a flag. *)
        match rest with
        | v :: _ -> error "%s expects a value, got flag %S" flag v
        | [] -> error "%s expects an argument" flag)
    | ("--help" | "-h") :: _ -> `Help
    | a :: _ -> error "unknown argument %S" a
  in
  go args
