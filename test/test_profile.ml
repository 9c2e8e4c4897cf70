(* Acceptance tests for the online-observability layer (profiler, SLO
   burn-rate tracker, online spec monitor, bench baseline file):

   - same-seed runs produce byte-identical folded stacks and top
     tables, and another seed changes both (the determinism contract
     behind weakset_trace profile/flame);
   - per-fiber attributed wait time sums to the fiber's lifetime under
     the profiler's accounting rules (sleep + blocked + rpc + runnable
     = end - spawn);
   - a seeded network-brownout scenario fires at least one SLO
     burn-rate Alert, published back onto the bus;
   - a judged spec monitor latches every violation a post-run check of
     its computation finds, publishes each once as a Spec_violation
     event, and catches constraint violations before the final check;
   - the baseline file format round-trips. *)

open Weakset_sim
open Weakset_net
open Weakset_store
module Obs = Weakset_obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Profile determinism and accounting                                 *)
(* ------------------------------------------------------------------ *)

(* A seeded distributed run with Rng-driven sleeps, RPC traffic and a
   crash/recover fault, profiled from its own bus. *)
let profiled_run seed =
  let eng = Engine.create ~seed:(Int64.of_int seed) () in
  let profile = Obs.Profile.create () in
  Obs.Bus.attach (Engine.bus eng) ~name:"profile" (Obs.Profile.sink profile);
  let topo = Topology.create () in
  let nodes = Topology.clique topo 5 ~latency:1.0 in
  let rpc = Rpc.create eng topo in
  let servers = Array.map (fun n -> Node_server.create rpc n) nodes in
  Node_server.host_directory servers.(0) ~set_id:1 ~policy:Node_server.Immediate;
  let client = Client.create rpc nodes.(4) in
  let sref = { Protocol.set_id = 1; coordinator = nodes.(0); replicas = [] } in
  let fault = Fault.create eng topo in
  let wrng = Rng.split (Engine.rng eng) in
  Engine.spawn eng ~name:"workload" (fun () ->
      for i = 1 to 10 do
        Engine.sleep eng (Rng.exponential wrng ~mean:2.0);
        let home_ix = 1 + (i mod 3) in
        let oid = Oid.make ~num:i ~home:nodes.(home_ix) in
        Node_server.put_object servers.(home_ix) oid (Svalue.make (Printf.sprintf "v%d" i));
        (match Client.dir_add client sref oid with Ok () | Error _ -> ());
        match Client.fetch client oid with Ok _ | Error _ -> ()
      done);
  Fault.schedule_crash fault ~at:8.0 nodes.(2);
  Fault.schedule_recover fault ~at:14.0 nodes.(2);
  let (_ : int) = Engine.run eng in
  Obs.Profile.finish profile;
  profile

let test_profile_views_deterministic () =
  let p1 = profiled_run 42 and p2 = profiled_run 42 in
  check_bool "profile is non-trivial" true (Obs.Profile.events p1 > 50);
  check_string "byte-identical folded stacks" (Obs.Profile.folded p1) (Obs.Profile.folded p2);
  check_string "byte-identical top tables" (Obs.Profile.render_top p1)
    (Obs.Profile.render_top p2);
  let p3 = profiled_run 43 in
  check_bool "different seed, different folded stacks" true
    (Obs.Profile.folded p1 <> Obs.Profile.folded p3);
  check_bool "different seed, different top tables" true
    (Obs.Profile.render_top p1 <> Obs.Profile.render_top p3)

let test_profile_accounting_invariant () =
  let p = profiled_run 42 in
  let _, stop = Obs.Profile.span p in
  let fibers = Obs.Profile.fiber_infos p in
  check_bool "several fibers profiled" true (List.length fibers > 5);
  List.iter
    (fun f ->
      let open Obs.Profile in
      let lifetime = (match f.i_ended with Some e -> e | None -> stop) -. f.i_spawned in
      let attributed = f.i_sleep +. f.i_blocked +. f.i_rpc +. f.i_runnable in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "fiber %d (%s): waits sum to lifetime" f.i_fid f.i_name)
        lifetime attributed;
      check_bool
        (Printf.sprintf "fiber %d: no negative category" f.i_fid)
        true
        (f.i_sleep >= 0.0 && f.i_blocked >= 0.0 && f.i_rpc >= 0.0 && f.i_runnable >= 0.0))
    fibers;
  (* The workload fiber spends real time waiting on its RPCs. *)
  let w = List.find (fun f -> f.Obs.Profile.i_name = "workload") fibers in
  check_bool "workload fiber attributes rpc wait" true (w.Obs.Profile.i_rpc > 0.0)

(* ------------------------------------------------------------------ *)
(* SLO burn-rate alerts under network brownout                        *)
(* ------------------------------------------------------------------ *)

let test_brownout_fires_slo_alert () =
  let eng = Engine.create ~seed:11L () in
  let ring = Obs.Ring.create ~capacity:100_000 in
  Obs.Bus.attach (Engine.bus eng) ~name:"ring" (Obs.Ring.sink ring);
  let slo =
    Obs.Slo.create ~bus:(Engine.bus eng)
      [ { Obs.Slo.op = "client.fetch"; max_latency = 5.0; target = 0.9; window = 500.0 } ]
  in
  Obs.Bus.attach (Engine.bus eng) ~name:"slo" (Obs.Slo.sink slo);
  let topo = Topology.create () in
  let nodes = Topology.clique topo 4 ~latency:1.0 in
  let rpc = Rpc.create eng topo in
  let servers = Array.map (fun n -> Node_server.create rpc n) nodes in
  let client = Client.create ~timeout:10.0 rpc nodes.(3) in
  let oid = Oid.make ~num:1 ~home:nodes.(1) in
  Node_server.put_object servers.(1) oid (Svalue.make "v");
  (* Healthy fetches complete in ~2 time units; the transport routes
     around single cut links, so a brownout degrading every link out of
     the client node is what pushes round trips past the 5.0 SLO. *)
  Engine.spawn eng ~name:"prober" (fun () ->
      for _ = 1 to 20 do
        (match Client.fetch client oid with Ok _ | Error _ -> ());
        Engine.sleep eng 3.0
      done);
  let set_client_latency l =
    for i = 0 to 2 do
      Topology.add_link topo nodes.(3) nodes.(i) ~latency:l
    done
  in
  Engine.spawn eng ~name:"brownout" (fun () ->
      Engine.sleep eng 20.0;
      set_client_latency 4.0;
      Engine.sleep eng 100.0;
      set_client_latency 1.0);
  let (_ : int) = Engine.run eng in
  check_bool "at least one burn-rate alert" true (Obs.Slo.alert_count slo >= 1);
  let bus_alerts =
    List.filter
      (fun e -> match e.Obs.Event.kind with Obs.Event.Alert _ -> true | _ -> false)
      (Obs.Ring.to_list ring)
  in
  check_int "alerts were published on the bus" (Obs.Slo.alert_count slo)
    (List.length bus_alerts);
  List.iter
    (fun e ->
      match e.Obs.Event.kind with
      | Obs.Event.Alert { source; op; burn; _ } ->
          check_string "alert source" "slo" source;
          check_string "alert op" "client.fetch" op;
          check_bool "burn at or above warn threshold" true (burn >= 1.0)
      | _ -> ())
    bus_alerts

(* Regression for the documented empty-window semantics: when the window
   empties mid-run, [tick] carries the last burn forward — a latched
   alert stays latched instead of "no data" reading as "no errors" —
   and recovery is only observed through completed requests. *)
let test_slo_empty_window_carries_burn_forward () =
  let objective =
    { Obs.Slo.op = "load.request"; max_latency = 1.0; target = 0.9; window = 10.0 }
  in
  let slo = Obs.Slo.create ~min_samples:5 [ objective ] in
  let span_end ~time dur =
    Obs.Slo.handle slo
      {
        Obs.Event.seq = 0;
        time;
        kind = Obs.Event.Span_end { span = 0; name = "load.request"; node = None; dur };
      }
  in
  (* Six all-bad samples: burn = (6/6) / 0.1 = 10, over warn and crit. *)
  for i = 1 to 6 do
    span_end ~time:(float_of_int i) 5.0
  done;
  let burn_near x =
    match Obs.Slo.burn_rate slo ~op:"load.request" with
    | Some b -> Float.abs (b -. x) < 1e-9
    | None -> false
  in
  check_bool "burn 10 after the bad window" true (burn_near 10.0);
  check_int "one latched alert" 1 (Obs.Slo.alert_count slo);
  (* Overload starves completions entirely and the window drains; ticks
     far past it keep the carried burn and the latch, without re-firing. *)
  Obs.Slo.tick slo ~time:100.0;
  check_bool "burn carried over the empty window" true (burn_near 10.0);
  check_int "still exactly one alert" 1 (Obs.Slo.alert_count slo);
  Obs.Slo.tick slo ~time:200.0;
  check_int "repeated ticks do not re-fire" 1 (Obs.Slo.alert_count slo);
  (* Recovery comes only from real completions: fresh good samples refill
     the window and burn is recomputed from live data, re-arming the
     latch. *)
  for i = 0 to 5 do
    span_end ~time:(300.0 +. float_of_int i) 0.5
  done;
  check_bool "burn recomputed from fresh samples" true (burn_near 0.0);
  (* And before any window ever reached min_samples, the carried value is
     not judged: a metronome ticking over an idle system cannot page. *)
  let idle = Obs.Slo.create ~min_samples:5 [ objective ] in
  Obs.Slo.tick idle ~time:50.0;
  check_int "idle ticks fire nothing" 0 (Obs.Slo.alert_count idle)

(* ------------------------------------------------------------------ *)
(* Online monitor vs post-run check                                   *)
(* ------------------------------------------------------------------ *)

let viol_key (v : Weakset_spec.Figures.violation) =
  Printf.sprintf "%s|%s|%d" v.Weakset_spec.Figures.where v.Weakset_spec.Figures.message
    (match v.Weakset_spec.Figures.state with
    | Some st -> st.Weakset_spec.Sstate.index
    | None -> -1)

let test_online_monitor_latches_post_run_violations () =
  let open Bench_lib in
  let module Monitor = Weakset_spec.Monitor in
  (* A mutating optimistic run violates the immutable fig1 spec, so the
     computation carries real violations for both checks to find. *)
  let w = Scenarios.clique_world ~seed:7 ~size:6 () in
  let eng = w.Scenarios.eng in
  let bus = Engine.bus eng in
  let published = ref [] in
  Obs.Bus.attach bus ~name:"count" (fun e ->
      match e.Obs.Event.kind with
      | Obs.Event.Spec_violation { where; message; _ } ->
          published := (where, message) :: !published
      | _ -> ());
  Scenarios.set_mutator w ~add_rate:0.2 ~remove_rate:0.1 ~until:1_000.0;
  let spec = Weakset_spec.Figures.fig1 in
  let set =
    Weakset_core.Weak_set.make ~heal_signal:(Fault.signal w.Scenarios.fault)
      ~coordinator_server:w.Scenarios.servers.(0) w.Scenarios.client w.Scenarios.sref
      Weakset_core.Semantics.optimistic
  in
  let monitor = ref None in
  Engine.spawn eng ~name:"judged-query" (fun () ->
      let iter, inst = Weakset_core.Weak_set.elements ~instrument:true set in
      let m = Weakset_core.Instrument.monitor (Option.get inst) in
      Monitor.judge m ~bus ~set_id:1 spec;
      monitor := Some m;
      let rec loop () =
        match Weakset_core.Iterator.next iter with
        | Weakset_core.Iterator.Yield _ ->
            Engine.sleep eng 2.0;
            loop ()
        | Weakset_core.Iterator.Done | Weakset_core.Iterator.Failed _ -> ()
      in
      loop ();
      Weakset_core.Iterator.close iter);
  let (_ : int) = Engine.run ~until:5_000.0 eng in
  let m = Option.get !monitor in
  check_bool "constraint violations caught before the final check" true
    (Monitor.violations m <> []);
  let (_ : Weakset_spec.Figures.verdict) = Monitor.finish m ~time:(Engine.now eng) in
  let post_run =
    match Weakset_spec.Figures.check spec (Monitor.computation m) with
    | Weakset_spec.Figures.Conforms -> []
    | Weakset_spec.Figures.Violates vs -> vs
  in
  check_bool "scenario produces real violations" true (post_run <> []);
  let latched = Monitor.violations m in
  let latched_keys = List.map viol_key latched in
  List.iter
    (fun v ->
      check_bool
        (Printf.sprintf "post-run violation latched online: %s" (viol_key v))
        true
        (List.mem (viol_key v) latched_keys))
    post_run;
  let where_message (v : Weakset_spec.Figures.violation) =
    (v.Weakset_spec.Figures.where, v.Weakset_spec.Figures.message)
  in
  Alcotest.(check (list (pair string string)))
    "each latched violation published exactly once"
    (List.sort compare (List.map where_message latched))
    (List.sort compare !published);
  check_bool "full checks were sampled, not run per capture" true
    (Monitor.full_checks m < Monitor.observes m)

(* ------------------------------------------------------------------ *)
(* Baseline file                                                      *)
(* ------------------------------------------------------------------ *)

let test_baseline_file_roundtrip () =
  let open Bench_lib in
  let path = Filename.temp_file "baseline" ".json" in
  let metrics = [ ("iter.x.n16.first", 6.0901800000000001); ("iter.x.n16.msgs", 38.0) ] in
  Baseline.write ~path metrics;
  (match Baseline.read path with
  | Error m -> Alcotest.fail m
  | Ok read_back ->
      check_int "metric count survives" (List.length metrics) (List.length read_back);
      List.iter2
        (fun (k1, v1) (k2, v2) ->
          check_string "key order preserved" k1 k2;
          check_bool "value exact after %.17g roundtrip" true (v1 = v2))
        metrics read_back);
  Sys.remove path;
  match Baseline.read "/nonexistent/baseline.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reading a missing file must error"

let () =
  Alcotest.run "weakset_profile"
    [
      ( "profile",
        [
          Alcotest.test_case "same seed, byte-identical views" `Quick
            test_profile_views_deterministic;
          Alcotest.test_case "waits sum to fiber lifetime" `Quick
            test_profile_accounting_invariant;
        ] );
      ( "slo",
        [
          Alcotest.test_case "network brownout fires burn-rate alert" `Quick
            test_brownout_fires_slo_alert;
          Alcotest.test_case "empty window carries burn forward" `Quick
            test_slo_empty_window_carries_burn_forward;
        ] );
      ( "online-monitor",
        [
          Alcotest.test_case "latches every post-run violation" `Quick
            test_online_monitor_latches_post_run_violations;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "file roundtrip" `Quick test_baseline_file_roundtrip;
        ] );
    ]
