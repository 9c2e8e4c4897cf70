(* Tests for the offline trace analyzer (Weakset_obs.Trace): Lamport
   ordering invariants of recorded streams, span-tree reconstruction for
   a seeded ls against a hand-written expectation, deterministic
   critpath/stats rendering, anomaly detection (none fault-free, some
   under a partition), and the JSONL file end-to-end path. *)

open Weakset_sim
open Weakset_net
open Weakset_store
open Weakset_dynamic
module Obs = Weakset_obs
module Trace = Obs.Trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* ------------------------------------------------------------------ *)
(* Fixtures                                                           *)
(* ------------------------------------------------------------------ *)

(* Recorded run of a full scenario world (Rng-driven workload, RPCs in
   every direction) — the stress input for the Lamport checks. *)
let record_scenario seed =
  let open Bench_lib in
  let w = Scenarios.clique_world ~seed ~size:8 () in
  let ring = Obs.Ring.create ~capacity:500_000 in
  Obs.Bus.attach (Engine.bus w.Scenarios.eng) ~name:"ring" (Obs.Ring.sink ring);
  Scenarios.set_mutator w ~add_rate:0.2 ~remove_rate:0.1 ~until:1_000.0;
  let (_ : Scenarios.run) =
    Scenarios.run_iteration ~think:2.0 ~deadline:5_000.0 w
      Weakset_core.Semantics.optimistic
  in
  let events = Obs.Ring.to_list ring in
  check_int "ring kept the whole stream" 0 (Obs.Ring.dropped ring);
  check_bool "stream is non-trivial" true (List.length events > 100);
  events

(* Line-topology FS world: client at node 0, directory coordinated by
   node 1, files homed further along the chain. *)
type fsworld = {
  eng : Engine.t;
  topo : Topology.t;
  dfs : Dfs.t;
  client : Client.t;
  ring : Obs.Ring.t;
}

let dir = Fpath.of_string "/data"

let make_fsworld () =
  let eng = Engine.create () in
  let ring = Obs.Ring.create ~capacity:100_000 in
  Obs.Bus.attach (Engine.bus eng) ~name:"ring" (Obs.Ring.sink ring);
  let topo = Topology.create () in
  let nodes = Topology.line topo 5 ~latency:1.0 in
  let rpc : Node_server.rpc = Rpc.create eng topo in
  let servers = Array.map (fun node -> Node_server.create rpc node) nodes in
  let dfs = Dfs.create rpc servers in
  Dfs.mkdir dfs dir ~coordinator:1 ();
  ignore (Dfs.create_file dfs dir ~name:"a.txt" ~home:2 "aaaa");
  ignore (Dfs.create_file dfs dir ~name:"b.txt" ~home:3 "bbbbbbbb");
  let client = Dfs.client_at dfs 0 in
  { eng; topo; dfs; client; ring }

(* ------------------------------------------------------------------ *)
(* Lamport ordering invariants                                        *)
(* ------------------------------------------------------------------ *)

let test_deliver_lamport_after_send () =
  let events = record_scenario 11 in
  let delivers = ref 0 in
  List.iter
    (fun (e : Obs.Event.t) ->
      match e.kind with
      | Obs.Event.Net_deliver { send_lc; lc; src; dst; _ } ->
          incr delivers;
          if lc <= send_lc then
            Alcotest.failf "delivery n%d->n%d has lc=%d <= send_lc=%d" src dst lc send_lc
      | _ -> ())
    events;
  check_bool "saw deliveries" true (!delivers > 10)

let test_clocks_monotone_per_node () =
  let events = record_scenario 12 in
  let last = Hashtbl.create 16 in
  let stamped = ref 0 in
  let check node lc seq =
    incr stamped;
    (match Hashtbl.find_opt last node with
    | Some prev when lc <= prev ->
        Alcotest.failf "n%d clock regressed to %d (from %d) at seq %d" node lc prev seq
    | _ -> ());
    Hashtbl.replace last node lc
  in
  List.iter
    (fun (e : Obs.Event.t) ->
      match e.kind with
      | Obs.Event.Net_send { src; lc; _ } -> check src lc e.seq
      | Obs.Event.Net_deliver { dst; lc; _ } -> check dst lc e.seq
      | Obs.Event.Rpc_call { src; lc; _ } -> check src lc e.seq
      | Obs.Event.Rpc_done { src; lc; _ } -> check src lc e.seq
      | _ -> ())
    events;
  check_bool "saw stamped events" true (!stamped > 50);
  (* The analyzer agrees: its Lamport anomaly classes are empty too. *)
  let anoms = Trace.anomalies (Trace.build events) in
  List.iter
    (fun a ->
      match a with
      | Trace.Lamport_regression _ | Trace.Deliver_not_after_send _ ->
          Alcotest.failf "analyzer flagged: %s" (Format.asprintf "%a" Trace.pp_anomaly a)
      | _ -> ())
    anoms

(* ------------------------------------------------------------------ *)
(* Span-tree reconstruction for a seeded ls                           *)
(* ------------------------------------------------------------------ *)

let test_strict_ls_span_tree () =
  let w = make_fsworld () in
  let result = ref None in
  Engine.spawn w.eng ~name:"ls" (fun () ->
      result := Some (Ls.ls w.dfs ~client:w.client dir Ls.Strict));
  let (_ : int) = Engine.run w.eng in
  (match !result with
  | Some (Ok l) -> check_int "both files listed" 2 (List.length l.Ls.entries)
  | _ -> Alcotest.fail "strict ls failed");
  let tr = Trace.build (Obs.Ring.to_list w.ring) in
  (* One request = one tree: the ls span is the only root, reaching
     through the client spans and the wire into each server's store op. *)
  let expected =
    "ls.strict @n0\n\
    \  client.dir-read @n0\n\
    \    rpc n0->n1 ok\n\
    \    rpc.serve.dir-read @n1\n\
    \      op dir-read\n\
    \  client.fetch @n0\n\
    \    rpc n0->n2 ok\n\
    \    rpc.serve.fetch @n2\n\
    \      op fetch\n\
    \  client.fetch @n0\n\
    \    rpc n0->n3 ok\n\
    \    rpc.serve.fetch @n3\n\
    \      op fetch\n"
  in
  check_string "reconstructed tree" expected (Trace.render_tree ~times:false tr);
  check_int "single root" 1 (List.length (Trace.roots tr));
  check_string "no anomalies" "no anomalies\n" (Trace.render_anomalies tr)

let test_weak_ls_parents_prefetch () =
  let w = make_fsworld () in
  Engine.spawn w.eng ~name:"ls" (fun () ->
      ignore (Ls.ls w.dfs ~client:w.client dir (Ls.Weak { parallelism = 2 })));
  let (_ : int) = Engine.run w.eng in
  let tr = Trace.build (Obs.Ring.to_list w.ring) in
  match Trace.roots tr with
  | [ root ] ->
      check_string "root is the weak ls" "ls.weak" root.Trace.name;
      let children =
        List.map (fun id -> (Option.get (Trace.span tr id)).Trace.name) root.Trace.children
      in
      Alcotest.(check (list string)) "prefetch hangs under the request" [ "prefetch" ] children;
      check_string "fault-free run has no anomalies" "no anomalies\n"
        (Trace.render_anomalies tr)
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

(* ------------------------------------------------------------------ *)
(* Determinism: same seed, byte-identical renderings                  *)
(* ------------------------------------------------------------------ *)

let test_same_seed_identical_renderings () =
  let render events =
    let tr = Trace.build events in
    (Trace.render_critpath tr, Trace.render_stats tr, Trace.render_tree tr)
  in
  let c1, s1, t1 = render (record_scenario 42) in
  let c2, s2, t2 = render (record_scenario 42) in
  check_string "critpath output byte-identical" c1 c2;
  check_string "stats output byte-identical" s1 s2;
  check_string "tree output byte-identical" t1 t2;
  let c3, s3, _ = render (record_scenario 43) in
  check_bool "different seed differs somewhere" true (c1 <> c3 || s1 <> s3)

(* ------------------------------------------------------------------ *)
(* Anomalies under partition                                          *)
(* ------------------------------------------------------------------ *)

let test_partition_yields_anomalies () =
  let w = make_fsworld () in
  Engine.spawn w.eng ~name:"ls" (fun () ->
      ignore (Ls.ls w.dfs ~client:w.client dir Ls.Strict));
  (* Sever the chain while the fetch RPC is in flight: both endpoints
     stay up, so the failure detector cannot fire and the call hangs
     until its 30s timeout — which the cut-off run below never reaches. *)
  Engine.schedule w.eng ~after:2.5 (fun () -> Topology.set_link_up w.topo
    (Nodeid.of_int 1) (Nodeid.of_int 2) false);
  let (_ : int) = Engine.run ~until:10.0 w.eng in
  let tr = Trace.build (Obs.Ring.to_list w.ring) in
  let anoms = Trace.anomalies tr in
  check_bool "at least one anomaly" true (List.length anoms >= 1);
  check_bool "an unclosed span is flagged" true
    (List.exists (function Trace.Unclosed_span _ -> true | _ -> false) anoms);
  check_bool "an unfinished rpc is flagged" true
    (List.exists (function Trace.Unfinished_rpc _ -> true | _ -> false) anoms)

(* ------------------------------------------------------------------ *)
(* JSONL file end-to-end                                              *)
(* ------------------------------------------------------------------ *)

let test_jsonl_file_roundtrip () =
  let events = record_scenario 7 in
  let path = Filename.temp_file "trace" ".jsonl" in
  let jw = Obs.Jsonl.open_file path in
  Obs.Jsonl.note jw "world-7";
  List.iter (Obs.Jsonl.write jw) events;
  Obs.Jsonl.close jw;
  let segs = List.of_seq (Trace.segments path) in
  Sys.remove path;
  match segs with
  | [ seg ] ->
      check_string "segment named by the note" "world-7" seg.Trace.sname;
      check_int "every event survived" (List.length events) (List.length seg.Trace.events);
      (* Chained digests only agree if every field of every event
         round-tripped exactly. *)
      check_string "digest identical after file round trip"
        (Obs.Digest.of_events events)
        (Obs.Digest.of_events seg.Trace.events)
  | segs -> Alcotest.failf "expected one segment, got %d" (List.length segs)

(* [events] with the [i]-th event passed through [f]. *)
let change_at i f events = List.mapi (fun j e -> if j = i then f e else e) events

let test_diff_detects_divergence () =
  let ea = record_scenario 5 in
  let eb = record_scenario 5 in
  (match Trace.diff_events ea eb with
  | Trace.Identical { events; _ } -> check_int "same length" (List.length ea) events
  | Trace.Diverged _ -> Alcotest.fail "same seed must not diverge");
  (match Trace.diff_events ea (record_scenario 6) with
  | Trace.Diverged _ -> ()
  | Trace.Identical _ -> Alcotest.fail "different seeds must diverge");
  (* One field of one event: a time one ulp later, or a Lamport clock
     one tick ahead.  The diff stops exactly there and shows both sides
     as JSON. *)
  let mid = List.length ea / 2 in
  let is_send (e : Obs.Event.t) = match e.kind with Obs.Event.Net_send _ -> true | _ -> false in
  let send_ix = Option.get (List.find_index is_send ea) in
  List.iter
    (fun (what, ix, f) ->
      let eb = change_at ix f ea in
      let result = Trace.diff_events ea eb in
      (match result with
      | Trace.Diverged { common_prefix; left = Some l; right = Some r; _ } ->
          check_int (what ^ ": diverges at the changed event") ix common_prefix;
          check_bool (what ^ ": left is the original") true (l == List.nth ea ix);
          check_bool (what ^ ": right is the changed one") true (r == List.nth eb ix)
      | _ -> Alcotest.failf "%s: one changed field must diverge" what);
      let out = Trace.render_diff ~left_name:"a" ~right_name:"b" result in
      check_bool (what ^ ": prints the common prefix") true
        (contains out (Printf.sprintf "diverged after %d common events" ix));
      check_bool (what ^ ": prints the left event as JSON") true
        (contains out ("  a: " ^ Obs.Event.to_json (List.nth ea ix) ^ "\n"));
      check_bool (what ^ ": prints the right event as JSON") true
        (contains out ("  b: " ^ Obs.Event.to_json (List.nth eb ix) ^ "\n")))
    [
      ("time one ulp apart", mid, fun e -> { e with Obs.Event.time = Float.succ e.Obs.Event.time });
      ( "lc one tick ahead",
        send_ix,
        fun e ->
          match e.Obs.Event.kind with
          | Obs.Event.Net_send s -> { e with kind = Obs.Event.Net_send { s with lc = s.lc + 1 } }
          | _ -> e );
    ]

(* The diff command's exit status: 0 for identical traces, 1 when they
   differ by an event, by an extra world or by a world's name.  Files
   are read one segment at a time, so a divergence in a later world is
   reported under that world's header after the earlier ones. *)
let test_diff_cli_exit_status () =
  let events = List.filteri (fun i _ -> i < 200) (record_scenario 5) in
  let file segments =
    let path = Filename.temp_file "trace" ".jsonl" in
    let w = Obs.Jsonl.open_file path in
    List.iter
      (fun (name, evs) ->
        Obs.Jsonl.note w name;
        List.iter (Obs.Jsonl.write w) evs)
      segments;
    Obs.Jsonl.close w;
    path
  in
  let late = change_at 150 (fun e -> { e with Obs.Event.time = Float.succ e.Obs.Event.time }) in
  let one = [ ("w", events) ] and two = [ ("w", events); ("x", events) ] in
  List.iter
    (fun (what, left, right, code, expect) ->
      let base = file left and other = file right and out = Filename.temp_file "trace" ".out" in
      let got =
        Sys.command
          (Printf.sprintf "../bin/weakset_trace.exe diff %s %s > %s" (Filename.quote base)
             (Filename.quote other) (Filename.quote out))
      in
      let stdout = In_channel.with_open_text out In_channel.input_all in
      List.iter Sys.remove [ base; other; out ];
      check_int (what ^ ": exit code") code got;
      check_bool (what ^ ": says so") true (contains stdout expect))
    [
      ("identical", one, [ ("w", events) ], 0, "identical: 200 events");
      ("one event differs", one, [ ("w", late events) ], 1, "diverged after 150 common events");
      ("an extra world", one, two, 1, "has 1 extra world(s)");
      ("a world renamed", one, [ ("v", events) ], 1, "names differ");
      ( "a later world differs",
        two,
        [ ("w", events); ("x", late events) ],
        1,
        "== world: w ==\nidentical: 200 events" );
      ( "a later world differs, shown",
        two,
        [ ("w", events); ("x", late events) ],
        1,
        "== world: x ==\ndiverged after 150 common events" );
    ]

let () =
  Alcotest.run "weakset_trace"
    [
      ( "lamport",
        [
          Alcotest.test_case "deliver is lamport-after send" `Quick
            test_deliver_lamport_after_send;
          Alcotest.test_case "clocks monotone per node" `Quick test_clocks_monotone_per_node;
        ] );
      ( "span-tree",
        [
          Alcotest.test_case "strict ls matches expectation" `Quick test_strict_ls_span_tree;
          Alcotest.test_case "weak ls parents prefetch" `Quick test_weak_ls_parents_prefetch;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, identical renderings" `Quick
            test_same_seed_identical_renderings;
        ] );
      ( "anomalies",
        [
          Alcotest.test_case "partition yields anomalies" `Quick
            test_partition_yields_anomalies;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "file round trip" `Quick test_jsonl_file_roundtrip;
          Alcotest.test_case "diff detects divergence" `Quick test_diff_detects_divergence;
          Alcotest.test_case "diff exit status" `Quick test_diff_cli_exit_status;
        ] );
    ]
