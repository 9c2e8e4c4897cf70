(* Tests for weakset_vopr: generator determinism and stream independence
   (qcheck), plan/bundle JSON round-trips, digest-stable re-execution,
   and the mutation test the fuzzer must pass to be trusted: with the
   planted grow-only bug armed it finds, shrinks and replays a violation
   within a bounded seed range; with the bug off the same range is clean. *)

module Gen = Weakset_vopr.Gen
module Runner = Weakset_vopr.Runner
module Oracle = Weakset_vopr.Oracle
module Shrink = Weakset_vopr.Shrink
module Planted = Weakset_obs.Planted

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let seeds first count = List.init count (fun i -> Int64.of_int (first + i))

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* [s] with its first occurrence of [a] replaced by [b]. *)
let replace_first s a b =
  let n = String.length a in
  let rec at i =
    if i + n > String.length s then Alcotest.failf "%S not found" a
    else if String.sub s i n = a then String.sub s 0 i ^ b ^ String.sub s (i + n) (String.length s - i - n)
    else at (i + 1)
  in
  at 0

(* The mutation-test seed range (§ISSUE): the planted bug must surface
   within at most 64 seeds. *)
let mutation_range = seeds 0 64

(* ------------------------------------------------------------------ *)
(* Generator                                                          *)
(* ------------------------------------------------------------------ *)

let test_gen_shape_sanity () =
  List.iter
    (fun seed ->
      let plan = Gen.generate seed in
      check_bool "nodes >= 4" true (plan.Gen.config.Gen.nodes >= 4);
      check_bool "has ops" true (plan.Gen.ops <> []);
      check_bool "has an iteration" true
        (List.exists (function Gen.Iterate _ -> true | _ -> false) plan.Gen.ops);
      (* Schedules are time-sorted and faults heal inside the budget. *)
      let sorted times = List.sort compare times = times in
      check_bool "ops time-sorted" true (sorted (List.map Gen.op_time plan.Gen.ops));
      check_bool "faults time-sorted" true (sorted (List.map Gen.fault_time plan.Gen.faults));
      List.iter
        (fun f ->
          let heal =
            match f with
            | Gen.Crash { recover_at; _ } -> Some recover_at
            | Gen.Cut { heal_at; _ } | Gen.Partition { heal_at; _ } -> Some heal_at
            | Gen.Herd _ -> None (* a spike, not a window *)
          in
          match heal with
          | None -> check_bool "herd fires inside budget" true (Gen.fault_time f < plan.Gen.budget)
          | Some heal ->
              check_bool "fault starts before heal" true (Gen.fault_time f < heal);
              check_bool "fault heals inside budget" true (heal < plan.Gen.budget))
        plan.Gen.faults)
    (seeds 0 16)

let prop_generate_deterministic =
  QCheck.Test.make ~name:"generate is a pure function of the seed" ~count:50
    QCheck.(int_bound 100_000)
    (fun n ->
      let seed = Int64.of_int n in
      Gen.plan_to_json (Gen.generate seed) = Gen.plan_to_json (Gen.generate seed))

let prop_config_stream_independent =
  QCheck.Test.make ~name:"config_of_seed equals (generate seed).config" ~count:50
    QCheck.(int_bound 100_000)
    (fun n ->
      let seed = Int64.of_int n in
      Gen.config_of_seed seed = (Gen.generate seed).Gen.config)

let prop_plan_json_roundtrip =
  QCheck.Test.make ~name:"plan JSON round-trips byte-exactly" ~count:50
    QCheck.(int_bound 100_000)
    (fun n ->
      let plan = Gen.generate (Int64.of_int n) in
      let json = Gen.plan_to_json plan in
      match Gen.plan_of_string json with
      | Error e -> QCheck.Test.fail_reportf "parse error: %s" e
      | Ok plan' -> plan' = plan && Gen.plan_to_json plan' = json)

(* ------------------------------------------------------------------ *)
(* Runner determinism                                                 *)
(* ------------------------------------------------------------------ *)

let test_execute_digest_stable () =
  let plan = Gen.generate 3L in
  let a = Runner.execute plan and b = Runner.execute plan in
  check_string "same digest" a.Runner.digest b.Runner.digest;
  check_int "same event count" a.Runner.events b.Runner.events;
  check_int "same step count" a.Runner.steps b.Runner.steps

let test_bundle_roundtrip () =
  let result = Runner.execute (Gen.generate 5L) in
  let bundle = Runner.bundle_of_result result in
  match Runner.bundle_of_string (Runner.bundle_to_json bundle) with
  | Error e -> Alcotest.failf "bundle parse error: %s" e
  | Ok bundle' ->
      check_string "re-serialization identical" (Runner.bundle_to_json bundle)
        (Runner.bundle_to_json bundle');
      check_string "digest preserved" bundle.Runner.b_digest bundle'.Runner.b_digest;
      check_bool "plan preserved" true (bundle'.Runner.b_plan = bundle.Runner.b_plan)

(* Bundles say which digest format they carry: the current version
   round-trips, and a version 1 bundle, whose text-chained digest no
   replay can match, is refused with an error naming the format instead
   of surfacing later as a digest mismatch.  A current bundle that lacks
   a field is refused naming it. *)
let test_bundle_version () =
  let json = Runner.bundle_to_json (Runner.bundle_of_result (Runner.execute (Gen.generate 5L))) in
  check_bool "written as version 2" true (contains json {|{"version":2,|});
  (match Runner.bundle_of_string json with
  | Ok b -> check_string "version 2 round-trips" json (Runner.bundle_to_json b)
  | Error e -> Alcotest.failf "version 2 refused: %s" e);
  let refused what json =
    match Runner.bundle_of_string json with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error e ->
        check_bool (what ^ " names the digest format") true (contains e "obs-trace-v2");
        e
  in
  let v1 = refused "version 1" (replace_first json {|"version":2|} {|"version":1|}) in
  check_bool "names the version" true (contains v1 "bundle version 1");
  let unversioned = refused "no version" (replace_first json {|"version":2,|} "") in
  check_bool "names the missing version" true (contains unversioned "bundle version missing");
  let digest = (Result.get_ok (Runner.bundle_of_string json)).Runner.b_digest in
  match Runner.bundle_of_string (replace_first json ({|"digest":"|} ^ digest ^ {|",|}) "") with
  | Ok _ -> Alcotest.fail "a bundle without its digest accepted"
  | Error e -> check_bool "names the missing field" true (contains e {|"digest"|})

let test_replay_reproduces () =
  let result = Runner.execute (Gen.generate 7L) in
  match Runner.replay (Runner.bundle_of_result result) with
  | Runner.Reproduced r -> check_string "replay digest" result.Runner.digest r.Runner.digest
  | Runner.Digest_mismatch _ -> Alcotest.fail "digest mismatch on replay"
  | Runner.Verdict_mismatch _ -> Alcotest.fail "verdict mismatch on replay"

(* A run cut short by a small step cap fails as a livelock; its bundle
   records the cap, so the replay runs under the same cap with none
   given and reproduces the run instead of simulating past it. *)
let test_replay_keeps_step_cap () =
  let step_cap = 400 in
  let result = Runner.execute ~step_cap (Gen.generate 1L) in
  check_bool "the cap cut the run short" true
    (List.exists (fun i -> Oracle.category i = "steps-exhausted") result.Runner.issues);
  let json = Runner.bundle_to_json (Runner.bundle_of_result result) in
  match Runner.bundle_of_string json with
  | Error e -> Alcotest.failf "bundle parse error: %s" e
  | Ok b -> (
      check_int "bundle records the cap" step_cap b.Runner.b_step_cap;
      match Runner.replay b with
      | Runner.Reproduced r ->
          check_string "replay digest" result.Runner.digest r.Runner.digest;
          check_int "replay events" result.Runner.events r.Runner.events
      | Runner.Digest_mismatch { got; _ } ->
          Alcotest.failf "digest mismatch on replay: %d events expected, %d replayed"
            result.Runner.events got.Runner.events
      | Runner.Verdict_mismatch _ -> Alcotest.fail "verdict mismatch on replay")

(* ------------------------------------------------------------------ *)
(* Mutation test                                                      *)
(* ------------------------------------------------------------------ *)

let test_swarm_clean_without_bug () =
  List.iter
    (fun (seed, r) ->
      if r.Runner.issues <> [] then
        Alcotest.failf "seed %Ld flagged a healthy build: %s" seed
          (String.concat "; " (List.map Oracle.describe r.Runner.issues)))
    (Runner.sweep mutation_range)

(* One mutation test: with [planted] armed, a seed in the 64-seed budget
   must fail with an issue of [category] (any category when [None]), its
   failure must shrink to a handful of schedule events, and the shrunk
   repro bundle must replay byte-identically with the same failure. *)
let finds_shrinks_and_replays ?category planted () =
  let convicts issues =
    match category with
    | None -> issues <> []
    | Some c -> List.exists (fun i -> Oracle.category i = c) issues
  in
  let failures =
    List.filter (fun (_, r) -> convicts r.Runner.issues) (Runner.sweep ~planted mutation_range)
  in
  check_bool "planted bug found within 64 seeds" true (failures <> []);
  let _, failing = List.hd failures in
  let execute p = Runner.execute ~planted p in
  let shrunk, issues, stats =
    Shrink.minimize
      ~run:(fun p -> (execute p).Runner.issues)
      ~issues:failing.Runner.issues failing.Runner.plan
  in
  check_bool "shrunk to at most 10 events" true (Gen.event_count shrunk <= 10);
  check_int "stats report the shrunk size" (Gen.event_count shrunk) stats.Shrink.final_events;
  check_bool "shrunk plan still fails the same way" true
    (Oracle.same_failure failing.Runner.issues issues);
  let result = execute shrunk in
  match Runner.replay (Runner.bundle_of_result result) with
  | Runner.Reproduced r ->
      check_bool "replay reports the same failure" true
        (Oracle.same_failure result.Runner.issues r.Runner.issues)
  | Runner.Digest_mismatch _ -> Alcotest.fail "digest mismatch replaying shrunk bundle"
  | Runner.Verdict_mismatch _ -> Alcotest.fail "verdict mismatch replaying shrunk bundle"

let test_swarm_finds_shrinks_and_replays_planted_bug =
  finds_shrinks_and_replays { Planted.none with grow_only_drop = true }

(* The second half of the mutation test: drop wire [Inval] callbacks on
   the floor and the cache oracle must convict the cache layer — the
   [Stale_beyond_lease] verdict, not some incidental failure. *)
let test_swarm_finds_shrinks_and_replays_planted_cache_bug =
  finds_shrinks_and_replays ~category:"stale-beyond-lease"
    { Planted.none with inval_drop = true }

(* The third mutation test aims at the checker itself: flip the shared
   membership axiom inside the parametric visibility engine and the
   swarm must convict the spec layer — a [Spec_violation], since every
   honest yield now reads as illegal.  This is what makes the one-engine
   refactor safe: a single mutated axiom cannot hide. *)
let test_swarm_finds_shrinks_and_replays_planted_spec_bug =
  finds_shrinks_and_replays ~category:"spec-violation" { Planted.none with axiom_flip = true }

(* A run reads nothing outside its own engine, so two domains sweeping
   the smoke range at once, one with the grow-only drop armed and one
   unarmed, must each reproduce the same sweep made alone: seed for seed
   the same digest, event count and issues. *)
let test_parallel_runs_match_sequential () =
  let range = seeds 0 33 in
  let armed = { Planted.none with grow_only_drop = true } in
  let sweep planted = List.map snd (Runner.sweep ~planted range) in
  let sequential = List.map sweep [ armed; Planted.none ] in
  let parallel =
    List.map (fun p -> Domain.spawn (fun () -> sweep p)) [ armed; Planted.none ]
    |> List.map Domain.join
  in
  List.iter2
    (List.iter2 (fun (s : Runner.result) (p : Runner.result) ->
         check_string "digest" s.digest p.digest;
         check_int "events" s.events p.events;
         check_bool "issues" true (s.issues = p.issues)))
    sequential parallel;
  let failing rs = List.length (List.filter (fun (r : Runner.result) -> r.issues <> []) rs) in
  check_bool "the armed sweep convicts" true (failing (List.hd parallel) > 0);
  check_int "the unarmed sweep is clean" 0 (failing (List.nth parallel 1))

(* A missing output directory is refused while the arguments are parsed:
   exit 2 with the usage on stderr, before any seed or row runs.  The
   shrink case gets a real failing bundle, so at fault it would shrink
   before failing to write. *)
let test_cli_refuses_missing_dirs () =
  let missing = "no-such-dir" in
  check_bool "the directory is missing" false (Sys.file_exists missing);
  let armed =
    Runner.execute ~planted:{ Planted.none with grow_only_drop = true } (Gen.generate 21L)
  in
  check_bool "the bundled run fails" true (armed.Runner.issues <> []);
  let bundle = Filename.temp_file "vopr" ".json" in
  Runner.write_bundle ~path:bundle (Runner.bundle_of_result armed);
  List.iter
    (fun (args, flag, value) ->
      let out = Filename.temp_file "vopr" ".out" and err = Filename.temp_file "vopr" ".err" in
      let code =
        Sys.command
          (Printf.sprintf "../bin/weakset_vopr.exe %s %s %s > %s 2> %s" args flag value
             (Filename.quote out) (Filename.quote err))
      in
      let read f = In_channel.with_open_text f In_channel.input_all in
      let stdout = read out and stderr = read err in
      Sys.remove out;
      Sys.remove err;
      check_int (flag ^ ": exit code") 2 code;
      check_string (flag ^ ": nothing ran") "" stdout;
      check_bool (flag ^ ": names the flag") true (contains stderr (flag ^ " expects"));
      check_bool (flag ^ ": prints the usage") true (contains stderr "usage: weakset_vopr"))
    [
      ("run --seeds 0..33 --planted-bug --no-shrink --quiet", "--bundle-dir", missing);
      ("run --seeds 0..33 --planted-bug --no-shrink --quiet", "--blackbox-dir", missing);
      ("scenarios --only retry-storm --planted-shed-bug --quiet", "--bundle-dir", missing);
      ("shrink " ^ Filename.quote bundle, "-o", Filename.concat missing "min.json");
    ];
  Sys.remove bundle

(* ------------------------------------------------------------------ *)
(* Shrink: unit tests against synthetic run predicates                *)
(* ------------------------------------------------------------------ *)

(* A fixed hand-written plan — [minimize] never executes it (the [run]
   callbacks below are pure predicates on the plan's shape), so what
   matters is only that it has droppable ops and shrinkable faults. *)
let shrink_plan =
  {
    Gen.seed = 42L;
    config =
      {
        Gen.shape = Gen.Clique;
        nodes = 4;
        latency = 1.0;
        replica_ixs = [];
        replica_interval = 10.0;
        initial_size = 4;
        cache = false;
        lease_ttl = 30.0;
        open_loop = None;
      };
    ops =
      [
        Gen.Add { at = 1.0 };
        Gen.Size { at = 2.0 };
        Gen.Iterate { at = 3.0; semantics = "optimistic"; think = 0.5; limit = 10; repeat = 1 };
        Gen.Add { at = 4.0 };
        Gen.Remove { at = 5.0 };
      ];
    faults =
      [
        Gen.Crash { node = 1; at = 5.0; recover_at = 25.0 };
        Gen.Cut { a = 0; b = 1; at = 6.0; heal_at = 20.0 };
      ];
    budget = 100.0;
  }

let an_issue =
  Oracle.Spec_violation { iteration = 0; semantics = "optimistic"; where = "[x]"; message = "m" }

(* Fails iff any Iterate survives: the minimum is exactly one op (that
   Iterate) and no faults — drop passes must reach it and terminate. *)
let test_shrink_minimizes_to_single_op () =
  let run p =
    if List.exists (function Gen.Iterate _ -> true | _ -> false) p.Gen.ops then [ an_issue ]
    else []
  in
  let shrunk, issues, stats = Shrink.minimize ~run ~issues:[ an_issue ] shrink_plan in
  check_int "one op left" 1 (List.length shrunk.Gen.ops);
  check_bool "the survivor is the Iterate" true
    (match shrunk.Gen.ops with [ Gen.Iterate _ ] -> true | _ -> false);
  check_int "no faults left" 0 (List.length shrunk.Gen.faults);
  check_int "final event count" 1 (Gen.event_count shrunk);
  check_int "stats agree" 1 stats.Shrink.final_events;
  check_bool "verdict preserved" true (Oracle.same_failure [ an_issue ] issues);
  check_bool "kept <= runs" true (stats.Shrink.kept <= stats.Shrink.runs)

(* Fails iff a Crash survives: pass 2 must keep the crash (dropping it
   loses the failure) while pass 3 halves its window to a fixpoint
   strictly under one time unit — the documented floor. *)
let test_shrink_halves_fault_window_to_floor () =
  let run p =
    if List.exists (function Gen.Crash _ -> true | _ -> false) p.Gen.faults then [ an_issue ]
    else []
  in
  let shrunk, _, _ = Shrink.minimize ~run ~issues:[ an_issue ] shrink_plan in
  check_int "ops all dropped" 0 (List.length shrunk.Gen.ops);
  match shrunk.Gen.faults with
  | [ Gen.Crash { at; recover_at; _ } ] ->
      let window = recover_at -. at in
      check_bool "window halved below one time unit" true (window < 1.0);
      check_bool "heal still strictly after start" true (recover_at > at)
  | _ -> Alcotest.fail "expected exactly the Crash fault to survive"

(* Every smaller candidate fails in a DIFFERENT category: same_failure
   must reject them all, so the plan comes back untouched. *)
let test_shrink_rejects_category_drift () =
  let run p = if p = shrink_plan then [ an_issue ] else [ Oracle.Lost_rpc { count = 1 } ] in
  let shrunk, issues, stats = Shrink.minimize ~run ~issues:[ an_issue ] shrink_plan in
  check_bool "plan unchanged" true (shrunk = shrink_plan);
  check_int "nothing kept" 0 stats.Shrink.kept;
  check_bool "original verdict retained" true (Oracle.same_failure [ an_issue ] issues)

(* The candidate-execution budget is a hard bound, and an empty issue
   list is a caller error. *)
let test_shrink_budget_and_validation () =
  let count = ref 0 in
  let run _ =
    incr count;
    [ an_issue ]
  in
  let _, _, stats = Shrink.minimize ~max_runs:5 ~run ~issues:[ an_issue ] shrink_plan in
  check_bool "stops at the budget" true (stats.Shrink.runs <= 5);
  check_int "callback called once per run" stats.Shrink.runs !count;
  Alcotest.check_raises "empty issues rejected"
    (Invalid_argument "Vopr.Shrink.minimize: issue list is empty") (fun () ->
      ignore (Shrink.minimize ~run ~issues:[] shrink_plan))

(* ------------------------------------------------------------------ *)
(* Oracle                                                             *)
(* ------------------------------------------------------------------ *)

let test_oracle_issue_json_roundtrip () =
  let issues =
    [
      Oracle.Stale_beyond_lease { time = 12.5; set_id = 1; served = 3; required = 5; age = 2.25 };
      Oracle.Spec_violation
        { iteration = 2; semantics = "grow-only"; where = "[x]"; message = "m" };
      Oracle.Monitor_mismatch { iteration = 0; semantics = "snapshot"; detail = "d" };
      Oracle.Fiber_crash { fiber = "f"; exn_text = "boom" };
      Oracle.Stuck_iterator { iteration = 1; semantics = "immutable" };
      Oracle.Steps_exhausted { steps = 9 };
      Oracle.Leaked_fibers { count = 2; fibers = [ "a"; "b" ] };
      Oracle.Lost_rpc { count = 3 };
    ]
  in
  List.iter
    (fun issue ->
      match Weakset_obs.Json.of_string_opt (Oracle.issue_to_json issue) with
      | None -> Alcotest.fail "issue JSON did not parse"
      | Some json -> (
          match Oracle.issue_of_json json with
          | Error e -> Alcotest.failf "issue JSON did not decode: %s" e
          | Ok issue' ->
              check_string "issue round-trips" (Oracle.describe issue) (Oracle.describe issue')))
    issues

let test_oracle_same_failure_is_category_overlap () =
  let spec i =
    Oracle.Spec_violation { iteration = i; semantics = "optimistic"; where = "[y]"; message = "n" }
  in
  check_bool "same category overlaps" true (Oracle.same_failure [ spec 0 ] [ spec 5 ]);
  check_bool "disjoint categories do not" false
    (Oracle.same_failure [ spec 0 ] [ Oracle.Lost_rpc { count = 1 } ]);
  check_bool "empty lists never overlap" false (Oracle.same_failure [] [])

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "weakset_vopr"
    [
      ( "gen",
        Alcotest.test_case "shape sanity" `Quick test_gen_shape_sanity
        :: qcheck
             [
               prop_generate_deterministic;
               prop_config_stream_independent;
               prop_plan_json_roundtrip;
             ] );
      ( "runner",
        [
          Alcotest.test_case "digest-stable re-execution" `Quick test_execute_digest_stable;
          Alcotest.test_case "bundle JSON roundtrip" `Quick test_bundle_roundtrip;
          Alcotest.test_case "bundle version" `Quick test_bundle_version;
          Alcotest.test_case "replay reproduces" `Quick test_replay_reproduces;
          Alcotest.test_case "replay keeps the step cap" `Quick test_replay_keeps_step_cap;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "clean swarm without bug" `Quick test_swarm_clean_without_bug;
          Alcotest.test_case "finds, shrinks, replays planted bug" `Quick
            test_swarm_finds_shrinks_and_replays_planted_bug;
          Alcotest.test_case "finds, shrinks, replays planted cache bug" `Quick
            test_swarm_finds_shrinks_and_replays_planted_cache_bug;
          Alcotest.test_case "finds, shrinks, replays planted spec bug" `Quick
            test_swarm_finds_shrinks_and_replays_planted_spec_bug;
          Alcotest.test_case "two domains match sequential runs" `Quick
            test_parallel_runs_match_sequential;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "minimizes to the single decisive op" `Quick
            test_shrink_minimizes_to_single_op;
          Alcotest.test_case "halves fault windows to the floor" `Quick
            test_shrink_halves_fault_window_to_floor;
          Alcotest.test_case "rejects category drift" `Quick test_shrink_rejects_category_drift;
          Alcotest.test_case "budget bound and empty-issue validation" `Quick
            test_shrink_budget_and_validation;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "issue JSON roundtrip" `Quick test_oracle_issue_json_roundtrip;
          Alcotest.test_case "same_failure = category overlap" `Quick
            test_oracle_same_failure_is_category_overlap;
        ] );
      ( "cli",
        [
          Alcotest.test_case "missing output directory refused up front" `Quick
            test_cli_refuses_missing_dirs;
        ] );
    ]
