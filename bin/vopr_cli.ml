(* VOPR-style deterministic simulation fuzzer for the weak-set stack.

     weakset_vopr run --seeds 0..32          -- bounded swarm (CI smoke)
     weakset_vopr run --seed 7 --planted-bug -- one seed, bug armed
     weakset_vopr replay bundle.json         -- byte-identical reproduction
     weakset_vopr shrink bundle.json -o min.json

   Every run is a pure function of its seed: the same seed produces the
   same cluster, workload, fault schedule and — via the chained event
   digest — the same trace fingerprint.  Failing seeds are shrunk with
   delta debugging and written as JSON repro bundles. *)

module Gen = Weakset_vopr.Gen
module Oracle = Weakset_vopr.Oracle
module Runner = Weakset_vopr.Runner
module Shrink = Weakset_vopr.Shrink
module Scenario = Weakset_vopr.Scenario
module Planted = Weakset_obs.Planted

let usage =
  "usage: weakset_vopr COMMAND [options]\n\n\
   commands:\n\
  \  run        sweep seeds, judge each run, bundle (shrunk) failures\n\
  \  replay     re-execute a repro bundle and verify digest + verdict\n\
  \  shrink     minimise a repro bundle's schedule\n\
  \  scenarios  run the table-driven replication-group cluster scenarios\n\n\
   run options:\n\
  \  --seeds A..B         half-open seed range [A, B)  (e.g. 0..32)\n\
  \  --seed N             a single seed (may repeat)\n\
  \  --step-cap N         engine step budget per run (default 1000000)\n\
  \  --bundle-dir DIR     write vopr-seed-N.json for each failing seed\n\
  \  --blackbox-dir DIR   write blackbox-seed-N-K.json flight dumps for failures\n\
  \  --no-shrink          bundle the original, unshrunk schedule\n\
  \  --planted-bug        arm the planted grow-only drop (mutation test)\n\
  \  --planted-cache-bug  arm the planted cache Inval drop (mutation test)\n\
  \  --planted-spec-bug   arm the planted membership-axiom flip (mutation test)\n\
  \  --quiet              only print failures and the summary\n\n\
   replay options (the bundle's recorded step cap and planted flags apply):\n\
  \  BUNDLE               repro bundle written by run/shrink\n\n\
   shrink options (the bundle's recorded step cap and planted flags apply):\n\
  \  --max-runs N         candidate execution budget (default 200)\n\
  \  -o FILE              output bundle (default: overwrite input)\n\
  \  BUNDLE               repro bundle to minimise\n\n\
   scenarios options:\n\
  \  --only NAME          run only this scenario (may repeat)\n\
  \  --list               print the table and exit\n\
  \  --step-cap N         engine step budget per execution (default 1000000)\n\
  \  --bundle-dir DIR     write scenario-NAME.json for each failing row\n\
  \  --planted-commit-bug arm the planted view-change log drop (mutation test)\n\
  \  --planted-shed-bug   arm the planted shed-after-apply (mutation test)\n\
  \  --quiet              only print failures and the summary\n"

let usage_die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_string ("weakset_vopr: " ^ s ^ "\n\n" ^ usage);
      exit 2)
    fmt

let parse_seeds spec =
  match String.index_opt spec '.' with
  | Some i
    when i + 1 < String.length spec
         && spec.[i + 1] = '.'
         && (not (String.contains spec '-'))
         && i > 0 -> (
      let lo = String.sub spec 0 i in
      let hi = String.sub spec (i + 2) (String.length spec - i - 2) in
      match (Int64.of_string_opt lo, Int64.of_string_opt hi) with
      | Some a, Some b when b >= a ->
          List.init (Int64.to_int (Int64.sub b a)) (fun k -> Int64.add a (Int64.of_int k))
      | _ -> usage_die "--seeds expects A..B with integers B >= A, got %S" spec)
  | _ -> usage_die "--seeds expects a range A..B, got %S" spec

let int_arg flag v =
  match int_of_string_opt v with
  | Some n when n > 0 -> n
  | _ -> usage_die "%s expects a positive integer, got %S" flag v

(* Output directories are checked before any run starts, so a bad one
   cannot cost a finished sweep. *)
let is_dir v = Sys.file_exists v && Sys.is_directory v

let dir_arg flag v =
  if is_dir v then v else usage_die "%s expects an existing directory, got %S" flag v

let out_file_arg flag v =
  if is_dir (Filename.dirname v) then v
  else usage_die "%s expects a file in an existing directory, got %S" flag v

(* Every planted-bug flag, the command that takes it and the bug it arms. *)
let planted_flags =
  Planted.
    [
      ("--planted-bug", "run", fun p -> { p with grow_only_drop = true });
      ("--planted-cache-bug", "run", fun p -> { p with inval_drop = true });
      ("--planted-spec-bug", "run", fun p -> { p with axiom_flip = true });
      ("--planted-commit-bug", "scenarios", fun p -> { p with view_change_drop = true });
      ("--planted-shed-bug", "scenarios", fun p -> { p with shed_after_apply = true });
    ]

(* [arm cmd p flag] is [p] with the bug [flag] names armed; any other
   argument is unknown to [cmd]. *)
let arm cmd p flag =
  match List.find_opt (fun (f, c, _) -> f = flag && c = cmd) planted_flags with
  | Some (_, _, arm) -> arm p
  | None -> usage_die "%s: unknown argument %S" cmd flag

(* ------------------------------------------------------------------ *)
(* run                                                                *)
(* ------------------------------------------------------------------ *)

type run_opts = {
  mutable seeds : int64 list;  (** reverse accumulation order *)
  mutable step_cap : int option;
  mutable bundle_dir : string option;
  mutable blackbox_dir : string option;
  mutable no_shrink : bool;
  mutable planted : Planted.t;
  mutable quiet : bool;
}

let parse_run_args args =
  let o =
    {
      seeds = [];
      step_cap = None;
      bundle_dir = None;
      blackbox_dir = None;
      no_shrink = false;
      planted = Planted.none;
      quiet = false;
    }
  in
  let rec go = function
    | [] -> ()
    | "--seeds" :: v :: rest ->
        o.seeds <- List.rev_append (parse_seeds v) o.seeds;
        go rest
    | "--seed" :: v :: rest -> (
        match Int64.of_string_opt v with
        | Some s ->
            o.seeds <- s :: o.seeds;
            go rest
        | None -> usage_die "--seed expects an integer, got %S" v)
    | "--step-cap" :: v :: rest ->
        o.step_cap <- Some (int_arg "--step-cap" v);
        go rest
    | "--bundle-dir" :: v :: rest ->
        o.bundle_dir <- Some (dir_arg "--bundle-dir" v);
        go rest
    | "--blackbox-dir" :: v :: rest ->
        o.blackbox_dir <- Some (dir_arg "--blackbox-dir" v);
        go rest
    | "--no-shrink" :: rest ->
        o.no_shrink <- true;
        go rest
    | "--quiet" :: rest ->
        o.quiet <- true;
        go rest
    | [ (("--seeds" | "--seed" | "--step-cap" | "--bundle-dir" | "--blackbox-dir") as flag) ] ->
        usage_die "%s expects an argument" flag
    | a :: rest ->
        o.planted <- arm "run" o.planted a;
        go rest
  in
  go args;
  if o.seeds = [] then usage_die "run: no seeds given (use --seeds A..B or --seed N)";
  o.seeds <- List.rev o.seeds;
  o

let cmd_run args =
  let o = parse_run_args args in
  let failures = ref 0 in
  let progress seed (r : Runner.result) =
    if r.issues = [] then begin
      if not o.quiet then
        Printf.printf "seed %Ld: PASS  (%d events, digest %s)\n%!" seed r.events
          (String.sub r.digest 0 12)
    end
    else begin
      incr failures;
      Printf.printf "seed %Ld: FAIL  (%d events)\n%!" seed r.events;
      List.iter (fun i -> Printf.printf "  - %s\n%!" (Oracle.describe i)) r.issues;
      let bundled =
        if o.no_shrink then r
        else begin
          let execute p = Runner.execute ?step_cap:o.step_cap ~planted:o.planted p in
          let run p = (execute p).issues in
          let plan', _issues', st = Shrink.minimize ~run ~issues:r.issues r.plan in
          let r' = execute plan' in
          Printf.printf "  shrunk %d -> %d schedule events in %d runs\n%!" st.initial_events
            st.final_events st.runs;
          r'
        end
      in
      Option.iter
        (fun dir ->
          let path = Filename.concat dir (Printf.sprintf "vopr-seed-%Ld.json" seed) in
          Runner.write_bundle ~path (Runner.bundle_of_result bundled);
          Printf.printf "  bundle: %s\n%!" path)
        o.bundle_dir;
      (* Flight dumps of the original failing run, replayed from its
         seed: the incident's own forensics, before shrinking rewrote
         the schedule. *)
      Option.iter
        (fun dir ->
          List.iteri
            (fun k (d : Weakset_obs.Flight.dump) ->
              let path =
                Filename.concat dir (Printf.sprintf "blackbox-seed-%Ld-%d.json" seed k)
              in
              let oc = open_out path in
              output_string oc d.d_json;
              output_char oc '\n';
              close_out oc;
              Printf.printf "  blackbox: %s (%s)\n%!" path
                (Weakset_obs.Flight.cause_label d.d_cause))
            (Runner.blackbox r))
        o.blackbox_dir
    end
  in
  let results = Runner.sweep ?step_cap:o.step_cap ~planted:o.planted ~progress o.seeds in
  Printf.printf "vopr: %d seed(s), %d failure(s)\n%!" (List.length results) !failures;
  exit (if !failures > 0 then 1 else 0)

(* ------------------------------------------------------------------ *)
(* replay                                                             *)
(* ------------------------------------------------------------------ *)

let parse_replay_args args =
  let rec go bundle = function
    | [] -> bundle
    | a :: _ when String.length a > 0 && a.[0] = '-' -> usage_die "replay: unknown option %S" a
    | path :: rest ->
        if bundle <> None then usage_die "replay: more than one bundle given";
        go (Some path) rest
  in
  go None args

let load_bundle path =
  match Runner.read_bundle ~path with
  | Ok b -> b
  | Error m ->
      prerr_endline (Printf.sprintf "weakset_vopr: cannot load %s: %s" path m);
      exit 1

let cmd_replay args =
  let path =
    match parse_replay_args args with Some p -> p | None -> usage_die "replay: no bundle given"
  in
  let b = load_bundle path in
  match Runner.replay b with
  | Runner.Reproduced r ->
      Printf.printf "reproduced: seed %Ld, digest %s over %d events, %d issue(s)\n" b.b_plan.seed
        r.digest r.events (List.length r.issues);
      List.iter (fun i -> Printf.printf "  - %s\n" (Oracle.describe i)) r.issues;
      exit 0
  | Runner.Digest_mismatch { got; expected } ->
      Printf.printf "DIGEST MISMATCH: expected %s over %d events, got %s over %d events\n"
        expected b.b_events got.digest got.events;
      exit 1
  | Runner.Verdict_mismatch got ->
      Printf.printf "VERDICT MISMATCH: digest matches but issues differ\n";
      Printf.printf "  recorded:\n";
      List.iter (fun i -> Printf.printf "    - %s\n" (Oracle.describe i)) b.b_issues;
      Printf.printf "  replayed:\n";
      List.iter (fun i -> Printf.printf "    - %s\n" (Oracle.describe i)) got.issues;
      exit 1

(* ------------------------------------------------------------------ *)
(* shrink                                                             *)
(* ------------------------------------------------------------------ *)

type shrink_opts = {
  mutable s_max_runs : int option;
  mutable s_out : string option;
  mutable s_bundle : string option;
}

let parse_shrink_args args =
  let o = { s_max_runs = None; s_out = None; s_bundle = None } in
  let rec go = function
    | [] -> ()
    | "--max-runs" :: v :: rest ->
        o.s_max_runs <- Some (int_arg "--max-runs" v);
        go rest
    | "-o" :: v :: rest ->
        o.s_out <- Some (out_file_arg "-o" v);
        go rest
    | [ (("--max-runs" | "-o") as flag) ] -> usage_die "%s expects an argument" flag
    | a :: _ when String.length a > 0 && a.[0] = '-' -> usage_die "shrink: unknown option %S" a
    | path :: rest ->
        if o.s_bundle <> None then usage_die "shrink: more than one bundle given";
        o.s_bundle <- Some path;
        go rest
  in
  go args;
  o

let cmd_shrink args =
  let o = parse_shrink_args args in
  let path = match o.s_bundle with Some p -> p | None -> usage_die "shrink: no bundle given" in
  let b = load_bundle path in
  let issues =
    match b.b_issues with
    | [] ->
        prerr_endline "weakset_vopr: bundle records a passing run; nothing to shrink";
        exit 1
    | l -> l
  in
  (* Shrink under the recorded run's own step cap and planted bugs. *)
  let execute p = Runner.execute ~step_cap:b.b_step_cap ~planted:b.b_planted p in
  let run p = (execute p).issues in
  let plan', _, st = Shrink.minimize ?max_runs:o.s_max_runs ~run ~issues b.b_plan in
  let r' = execute plan' in
  Printf.printf "shrunk %d -> %d schedule events (%d candidate runs, %d kept)\n"
    st.initial_events st.final_events st.runs st.kept;
  let out = Option.value o.s_out ~default:path in
  Runner.write_bundle ~path:out (Runner.bundle_of_result r');
  Printf.printf "bundle: %s (%d issue(s))\n" out (List.length r'.issues);
  exit 0

(* ------------------------------------------------------------------ *)
(* scenarios                                                          *)
(* ------------------------------------------------------------------ *)

type scenario_opts = {
  mutable sc_only : string list;  (** reverse accumulation order *)
  mutable sc_list : bool;
  mutable sc_step_cap : int option;
  mutable sc_bundle_dir : string option;
  mutable sc_planted : Planted.t;
  mutable sc_quiet : bool;
}

let parse_scenario_args args =
  let o =
    {
      sc_only = [];
      sc_list = false;
      sc_step_cap = None;
      sc_bundle_dir = None;
      sc_planted = Planted.none;
      sc_quiet = false;
    }
  in
  let rec go = function
    | [] -> ()
    | "--only" :: v :: rest ->
        o.sc_only <- v :: o.sc_only;
        go rest
    | "--list" :: rest ->
        o.sc_list <- true;
        go rest
    | "--step-cap" :: v :: rest ->
        o.sc_step_cap <- Some (int_arg "--step-cap" v);
        go rest
    | "--bundle-dir" :: v :: rest ->
        o.sc_bundle_dir <- Some (dir_arg "--bundle-dir" v);
        go rest
    | "--quiet" :: rest ->
        o.sc_quiet <- true;
        go rest
    | [ (("--only" | "--step-cap" | "--bundle-dir") as flag) ] ->
        usage_die "%s expects an argument" flag
    | a :: rest ->
        o.sc_planted <- arm "scenarios" o.sc_planted a;
        go rest
  in
  go args;
  o.sc_only <- List.rev o.sc_only;
  o

(* A scenario failure's repro bundle: the row is the schedule (re-run it
   with --only and the recorded planted flags), so the bundle only needs
   the bugs it was armed with, the verdict and the fingerprint. *)
let write_scenario_bundle dir (planted : Planted.t) (o : Scenario.outcome) =
  let path = Filename.concat dir (Printf.sprintf "scenario-%s.json" o.o_name) in
  let oc = open_out path in
  Printf.fprintf oc
    "{\"version\": %d, \"scenario\": %S, \"planted_commit_bug\": %b, \
     \"planted_shed_bug\": %b, \"digest\": %S, \"events\": %d, \"deterministic\": %b, \
     \"committed\": %d, \"ops_ok\": %d, \"ops_failed\": %d, \"issues\": [%s]}\n"
    Runner.bundle_version o.o_name planted.view_change_drop planted.shed_after_apply o.o_digest
    o.o_events o.o_deterministic o.o_committed o.o_ops_ok o.o_ops_failed
    (String.concat ", " (List.map Oracle.issue_to_json o.o_issues));
  close_out oc;
  path

let cmd_scenarios args =
  let o = parse_scenario_args args in
  if o.sc_list then begin
    List.iter
      (fun (s : Scenario.t) ->
        Printf.printf "%-28s %d replicas, %.0fs, %d steps\n" s.name s.replicas s.until
          (List.length s.steps))
      Scenario.table;
    exit 0
  end;
  let rows =
    match o.sc_only with
    | [] -> Scenario.table
    | names ->
        List.map
          (fun n ->
            match Scenario.find n with
            | Some s -> s
            | None -> usage_die "scenarios: unknown scenario %S (see --list)" n)
          names
  in
  let failures = ref 0 in
  List.iter
    (fun row ->
      let outcome = Scenario.run ?step_cap:o.sc_step_cap ~planted:o.sc_planted row in
      let ok = Scenario.passed outcome in
      if not ok then incr failures;
      if (not ok) || not o.sc_quiet then
        Format.printf "%a@." Scenario.pp_outcome outcome;
      if not ok then
        Option.iter
          (fun dir ->
            let path = write_scenario_bundle dir o.sc_planted outcome in
            Printf.printf "  bundle: %s\n%!" path)
          o.sc_bundle_dir)
    rows;
  Printf.printf "scenarios: %d row(s), %d failure(s)%s\n%!" (List.length rows) !failures
    (match (o.sc_planted.view_change_drop, o.sc_planted.shed_after_apply) with
    | true, true -> " [planted commit + shed bugs armed]"
    | true, false -> " [planted commit bug armed]"
    | false, true -> " [planted shed bug armed]"
    | false, false -> "");
  exit (if !failures > 0 then 1 else 0)

let main () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest -> cmd_run rest
  | _ :: "replay" :: rest -> cmd_replay rest
  | _ :: "shrink" :: rest -> cmd_shrink rest
  | _ :: "scenarios" :: rest -> cmd_scenarios rest
  | _ :: (("--help" | "-h") :: _ | []) ->
      print_string usage;
      exit 0
  | _ :: cmd :: _ -> usage_die "unknown command %S" cmd
  | [] -> usage_die "no command"
