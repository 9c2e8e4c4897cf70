(* Behavioural fingerprint pin.  Seeded runs are byte-identical, so the
   run digests of a fixed set of runs (Weakset_obs.Digest: MD5 chained
   over 4 KiB chunks of binary-encoded events) fingerprint everything
   the simulator does: routing, scheduling order, RPC timing, the spec
   engine's verdict inputs.  A change meant only to make the host faster
   must leave every line of digest_pin.golden unchanged.  A change to the
   digest's own encoding or chain rewrites the digest field of the vopr
   and scenario lines and nothing else: the event and step counts and
   the dump lines do not depend on it.

   The golden file holds one line per run, and one per black-box dump:
     vopr <seed> <digest> <events> <steps>      Runner.execute, seeds 0..63
     scenario <name> <digest> <events>          every Scenario.table row
     dump <seed> <k> <md5>                      k-th flight dump of a vopr
                                                seed (Runner.blackbox),
                                                md5 of its JSON

   A change that is meant to alter simulated behaviour regenerates it,
   and says so in its description:
     dune exec test/test_digest_pin.exe -- --print > test/digest_pin.golden *)

module Gen = Weakset_vopr.Gen
module Runner = Weakset_vopr.Runner
module Scenario = Weakset_vopr.Scenario

let golden_file = "digest_pin.golden"

(* One execution per seed yields its vopr line; its dump lines come from
   replaying that run with the recorder attached. *)
let vopr_run seed =
  let r = Runner.execute (Gen.generate (Int64.of_int seed)) in
  let vopr =
    Printf.sprintf "vopr %d %s %d %d" seed r.Runner.digest r.Runner.events r.Runner.steps
  in
  let dumps =
    List.mapi
      (fun k d ->
        Printf.sprintf "dump %d %d %s" seed k
          (Stdlib.Digest.to_hex (Stdlib.Digest.string d.Weakset_obs.Flight.d_json)))
      (Runner.blackbox r)
  in
  (vopr, dumps)

let scenario_line scn =
  let o = Scenario.run scn in
  Printf.sprintf "scenario %s %s %d" o.Scenario.o_name o.Scenario.o_digest o.Scenario.o_events

let vopr_runs = lazy (List.init 64 vopr_run)
let vopr_lines () = List.map fst (Lazy.force vopr_runs)
let dump_lines () = List.concat_map snd (Lazy.force vopr_runs)
let scenario_lines () = List.map scenario_line Scenario.table

let read_golden prefix =
  In_channel.with_open_text golden_file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.starts_with ~prefix:(prefix ^ " ") l)

let check_lines prefix actual =
  let expected = read_golden prefix in
  Alcotest.(check int) (prefix ^ " line count") (List.length expected) (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) "pinned digest" e a) expected actual

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then begin
    List.iter print_endline (vopr_lines () @ scenario_lines () @ dump_lines ());
    exit 0
  end;
  Alcotest.run "digest_pin"
    [
      ( "pin",
        [
          Alcotest.test_case "vopr seeds 0..63" `Quick (fun () ->
              check_lines "vopr" (vopr_lines ()));
          Alcotest.test_case "scenario table" `Quick (fun () ->
              check_lines "scenario" (scenario_lines ()));
          Alcotest.test_case "blackbox dumps of vopr seeds 0..63" `Quick (fun () ->
              check_lines "dump" (dump_lines ()));
        ] );
    ]
