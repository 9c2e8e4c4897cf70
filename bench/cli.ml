(* Command-line parsing for the bench driver, factored out of main so
   the test suite can exercise the strict-parsing rules directly.
   [flags] declares every flag once.  An unknown or malformed argument
   is an [`Error] naming the offending flag; a value-taking flag refuses
   another flag as its value (so [--metrics-json --e12] is a missing-
   argument error, not a file called "--e12"); and a flag scoped to an
   experiment is rejected without it. *)

let usage =
  "usage: weakset_bench [--metrics-json FILE] [--trace-jsonl FILE]\n\
  \                     [--slo-report] [--blackbox-dir DIR]\n\
  \                     [--baseline FILE]\n\
  \                     [--cache] [--lease-ttl T] [--warm-iters N]\n\
  \                     [--e12] [--e13] [--admission] [--curves-json FILE]\n\
  \                     [--load-clients N] [--load-duration T]\n\n\
  \  --metrics-json FILE  dump every world's metrics registry as JSON\n\
  \  --trace-jsonl FILE   write the full typed event stream as JSONL\n\
  \                       (analyse with weakset_trace, which also renders\n\
  \                       each world's simulated-time profile)\n\
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

(* What a flag takes: nothing, a path, a positive integer or a positive
   float; each kind carries the field it sets. *)
type kind =
  | Switch of (opts -> unit)
  | Path of (opts -> string -> unit)
  | Count of (opts -> int -> unit)
  | Amount of (opts -> float -> unit)

(* The experiment a scoped flag needs: how errors name it, and whether
   the parsed options select it. *)
let cache = ("the --cache experiment", fun o -> o.cache)
let e13 = ("the --e13 sweep", fun o -> o.e13)

(* Every flag once: its name, its kind and the experiment it needs. *)
let flags =
  [
    ("--metrics-json", Path (fun o v -> o.metrics_json <- Some v), None);
    ("--trace-jsonl", Path (fun o v -> o.trace_jsonl <- Some v), None);
    ("--slo-report", Switch (fun o -> o.slo_report <- true), None);
    ("--blackbox-dir", Path (fun o v -> o.blackbox_dir <- Some v), None);
    ("--baseline", Path (fun o v -> o.baseline <- Some v), None);
    ("--cache", Switch (fun o -> o.cache <- true), None);
    ("--lease-ttl", Amount (fun o t -> o.lease_ttl <- Some t), Some cache);
    ("--warm-iters", Count (fun o n -> o.warm_iters <- Some n), Some cache);
    ("--e12", Switch (fun o -> o.e12 <- true), None);
    ("--e13", Switch (fun o -> o.e13 <- true), None);
    ("--curves-json", Path (fun o v -> o.curves_json <- Some v), Some e13);
    ("--load-clients", Count (fun o n -> o.load_clients <- Some n), Some e13);
    ("--load-duration", Amount (fun o t -> o.load_duration <- Some t), Some e13);
    ("--admission", Switch (fun o -> o.admission <- true), Some e13);
  ]

let parse args =
  let o = defaults () in
  let error fmt = Printf.ksprintf (fun s -> `Error s) fmt in
  (* [given] holds the flags seen so far, for the scope checks at the
     end. *)
  let rec go given = function
    | [] -> (
        let out_of_scope (flag, _, scope) =
          match scope with
          | Some (what, selected) when List.mem flag given && not (selected o) ->
              Some (flag, what)
          | _ -> None
        in
        match List.find_map out_of_scope flags with
        | Some (flag, what) -> error "%s only applies to %s" flag what
        | None -> `Ok o)
    | ("--help" | "-h") :: _ -> `Help
    | a :: rest -> (
        match List.find_opt (fun (flag, _, _) -> flag = a) flags with
        | None -> error "unknown argument %S" a
        | Some (flag, kind, _) -> (
            let next rest = go (flag :: given) rest in
            let positive what parse zero set v rest =
              match parse v with
              | Some x when x > zero ->
                  set o x;
                  next rest
              | _ -> error "%s expects a positive %s, got %S" flag what v
            in
            match (kind, rest) with
            | Switch set, _ ->
                set o;
                next rest
            | _, [] -> error "%s expects an argument" flag
            | _, v :: _ when flag_like v -> error "%s expects a value, got flag %S" flag v
            | Path set, v :: rest ->
                set o v;
                next rest
            | Count set, v :: rest -> positive "integer" int_of_string_opt 0 set v rest
            | Amount set, v :: rest -> positive "float" float_of_string_opt 0.0 set v rest))
  in
  go [] args
