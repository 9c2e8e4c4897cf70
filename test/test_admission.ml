(* Overload-survival battery: server-side admission control (bounded
   queue, class-ordered shedding, Overloaded replies) and client-side
   retry budgets (token bucket, jittered deterministic backoff).

   Everything runs in the DES, so the saturation schedules are exact:
   with latency 1.0 and dir_service 10.0, seven Iter-class fillers
   launched at t=0 all arrive at t=1 and hold the node's queue at depth
   7 until the backlog drains — probes sent against that plateau see
   known depths and known [retry_after] hints. *)

open Weakset_sim
open Weakset_net
open Weakset_store
open Weakset_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let set_id = 1

type cluster = {
  eng : Engine.t;
  rpc : Node_server.rpc;
  nodes : Nodeid.t array;
  servers : Node_server.t array;
}

(* n-node clique, node 0 the admission-controlled coordinator.  [host]
   installs the directory directly; pass [false] when the test
   provisions through {!Weak_set.provision} instead. *)
let make_cluster ?(seed = 77L) ?(n = 3) ?(capacity = 8) ?(dir_service = 10.0)
    ?(host = true) ?planted () =
  let eng = Engine.create ~seed ?planted () in
  let topo = Topology.create () in
  let nodes = Topology.clique topo n ~latency:1.0 in
  let rpc = Rpc.create eng topo in
  let servers =
    Array.map
      (fun node ->
        Node_server.create ~dir_service ~admission:{ Node_server.capacity } rpc node)
      nodes
  in
  if host then Node_server.host_directory servers.(0) ~set_id ~policy:Node_server.Immediate;
  { eng; rpc; nodes; servers }

(* [k] concurrent Iter-class requests (threshold = capacity, so they
   fill the queue right up to the bound without shedding each other as
   Read-class traffic would at capacity/2). *)
let iter_fillers cl k =
  for i = 1 to k do
    Engine.spawn cl.eng ~name:(Printf.sprintf "filler-%d" i) (fun () ->
        ignore
          (Rpc.call cl.rpc ~src:cl.nodes.(1) ~dst:cl.nodes.(0) ~timeout:10_000.0
             (Protocol.Dir_read_at { set_id; version = Version.zero })))
  done

let probe cl ~at req cell =
  Engine.spawn cl.eng ~name:"probe" (fun () ->
      Engine.sleep cl.eng at;
      match
        Rpc.call cl.rpc ~src:cl.nodes.(1) ~dst:cl.nodes.(0) ~timeout:10_000.0 req
      with
      | Ok resp -> cell := Some resp
      | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Bounded queue                                                      *)
(* ------------------------------------------------------------------ *)

let test_queue_depth_bounded () =
  let capacity = 8 in
  let cl = make_cluster ~capacity ~dir_service:5.0 () in
  iter_fillers cl 20;
  let peak = ref 0 in
  Engine.spawn cl.eng ~name:"sampler" (fun () ->
      for _ = 1 to 100 do
        Engine.sleep cl.eng 0.5;
        peak := max !peak (Rpc.queue_depth cl.rpc cl.nodes.(0))
      done);
  Engine.run_and_check cl.eng;
  (* 20 offered, the queue admits exactly [capacity] and sheds the rest:
     the depth plateaus at the bound and never exceeds it. *)
  check_int "queue fills exactly to capacity" capacity !peak;
  check_int "queue drains back to zero" 0 (Rpc.queue_depth cl.rpc cl.nodes.(0))

(* ------------------------------------------------------------------ *)
(* Class-ordered shedding                                             *)
(* ------------------------------------------------------------------ *)

let test_shed_order_by_class () =
  (* capacity 8: Read sheds at depth >= 4, Mutate at >= 6, Iter at >= 8,
     Control never.  Seven fillers pin the depth at 7. *)
  let cl = make_cluster ~capacity:8 ~dir_service:10.0 () in
  iter_fillers cl 7;
  let read_r = ref None and mut_r = ref None in
  let iter_ok = ref None and iter_shed = ref None and ctl_r = ref None in
  probe cl ~at:0.3 (Protocol.Dir_read { set_id }) read_r;
  probe cl ~at:0.6
    (Protocol.Dir_add { set_id; oid = Oid.make ~num:9001 ~home:cl.nodes.(1) })
    mut_r;
  probe cl ~at:0.9 (Protocol.Dir_read_at { set_id; version = Version.zero }) iter_ok;
  (* by now the 8th Iter request was admitted, so depth = 8 = capacity *)
  probe cl ~at:1.2 (Protocol.Dir_read_at { set_id; version = Version.zero }) iter_shed;
  probe cl ~at:1.4 (Protocol.Iter_close { set_id }) ctl_r;
  Engine.run_and_check cl.eng;
  (match !read_r with
  | Some (Protocol.Overloaded { retry_after }) ->
      (* deterministic hint: dir_service * (depth + 1) = 10 * 8 *)
      check_float "read retry_after" 80.0 retry_after
  | r -> Alcotest.failf "read at depth 7 not shed: %s" (if r = None then "lost" else "served"))
  ;
  (match !mut_r with
  | Some (Protocol.Overloaded _) -> ()
  | r -> Alcotest.failf "mutate at depth 7 not shed: %s" (if r = None then "lost" else "served"));
  (match !iter_ok with
  | Some (Protocol.Members _) -> ()
  | _ -> Alcotest.fail "iter-class request below capacity must be served");
  (match !iter_shed with
  | Some (Protocol.Overloaded { retry_after }) ->
      check_float "iter retry_after at full depth" 90.0 retry_after
  | _ -> Alcotest.fail "iter-class request at capacity must shed");
  match !ctl_r with
  | Some Protocol.Ack -> ()
  | _ -> Alcotest.fail "control traffic must never shed"

(* ------------------------------------------------------------------ *)
(* Wire round trip through the client                                 *)
(* ------------------------------------------------------------------ *)

let test_overloaded_roundtrip_without_retry () =
  let cl = make_cluster () in
  iter_fillers cl 7;
  let result = ref None in
  Engine.spawn cl.eng ~name:"reader" (fun () ->
      let c = Client.create cl.rpc cl.nodes.(2) in
      Engine.sleep cl.eng 0.5;
      result := Some (Client.dir_read c ~from:cl.nodes.(0) ~set_id));
  Engine.run_and_check cl.eng;
  match !result with
  | Some (Error Client.Overloaded) -> ()
  | Some (Ok _) -> Alcotest.fail "read served through a saturated queue"
  | Some (Error e) -> Alcotest.failf "wrong error: %s" (Client.error_to_string e)
  | None -> Alcotest.fail "reader never finished"

(* ------------------------------------------------------------------ *)
(* Retry budget: exhaustion vs refill                                 *)
(* ------------------------------------------------------------------ *)

(* Sustained 3.3x overload: one Iter-class arrival every 3.0 against a
   10.0 service keeps the depth pinned at 7..8 for the whole window, so
   every retry of a Read lands back in an overloaded queue. *)
let sustained_storm cl ~arrivals =
  for i = 0 to arrivals - 1 do
    Engine.spawn cl.eng ~name:(Printf.sprintf "storm-%d" i) (fun () ->
        Engine.sleep cl.eng (float_of_int i *. 3.0);
        ignore
          (Rpc.call cl.rpc ~src:cl.nodes.(1) ~dst:cl.nodes.(0) ~timeout:100_000.0
             (Protocol.Dir_read_at { set_id; version = Version.zero })))
  done

let test_budget_exhaustion () =
  let cl = make_cluster () in
  sustained_storm cl ~arrivals:100;
  let result = ref None and tokens_after = ref None in
  Engine.spawn cl.eng ~name:"victim" (fun () ->
      let retry =
        {
          Client.retry_rng = Rng.split (Engine.rng cl.eng);
          retry_burst = 2;
          retry_refill = 0.0;
          retry_backoff = 0.1;
          retry_backoff_max = 0.5;
          retry_attempts = 10;
        }
      in
      let c = Client.with_timeout (Client.create ~retry cl.rpc cl.nodes.(2)) 100_000.0 in
      Engine.sleep cl.eng 30.0;
      result := Some (Client.dir_read c ~from:cl.nodes.(0) ~set_id);
      tokens_after := Client.retry_tokens c);
  Engine.run_and_check cl.eng;
  (match !result with
  | Some (Error Client.Budget_exhausted) -> ()
  | Some (Ok _) -> Alcotest.fail "expected the budget to run dry under sustained overload"
  | Some (Error e) -> Alcotest.failf "wrong error: %s" (Client.error_to_string e)
  | None -> Alcotest.fail "victim never finished");
  match !tokens_after with
  | Some t -> check_bool "bucket empty" true (t < 1.0)
  | None -> Alcotest.fail "retry client must expose its token balance"

let test_budget_refill () =
  (* A finite backlog (7 fillers, drained by t=81): the first attempt
     sheds, the retry waits out [retry_after] and succeeds against an
     idle server.  With refill 0 the spent token stays spent; with a
     positive refill the bucket is back at burst by then. *)
  let run_one ~refill =
    let cl = make_cluster () in
    iter_fillers cl 7;
    let result = ref None and tokens = ref None in
    Engine.spawn cl.eng ~name:"retrier" (fun () ->
        let retry =
          {
            Client.retry_rng = Rng.split (Engine.rng cl.eng);
            retry_burst = 2;
            retry_refill = refill;
            retry_backoff = 0.1;
            retry_backoff_max = 0.5;
            retry_attempts = 5;
          }
        in
        let c = Client.with_timeout (Client.create ~retry cl.rpc cl.nodes.(2)) 100_000.0 in
        Engine.sleep cl.eng 0.5;
        result := Some (Client.dir_read c ~from:cl.nodes.(0) ~set_id);
        tokens := Client.retry_tokens c);
    Engine.run_and_check cl.eng;
    match (!result, !tokens) with
    | Some (Ok _), Some t -> t
    | Some (Error e), _ -> Alcotest.failf "retry did not recover: %s" (Client.error_to_string e)
    | _ -> Alcotest.fail "retrier never finished"
  in
  check_float "no refill: one token stays spent" 1.0 (run_one ~refill:0.0);
  check_float "refill: bucket back at burst" 2.0 (run_one ~refill:0.05)

(* ------------------------------------------------------------------ *)
(* Backoff determinism                                                *)
(* ------------------------------------------------------------------ *)

(* Three retry-budgeted clients against a draining backlog; the whole
   completion schedule (jittered backoffs included) must be a pure
   function of the engine seed. *)
let storm_schedule seed =
  let cl = make_cluster ~seed () in
  iter_fillers cl 7;
  let events = ref [] in
  for i = 0 to 2 do
    Engine.spawn cl.eng ~name:(Printf.sprintf "client-%d" i) (fun () ->
        let retry =
          {
            Client.retry_rng = Rng.split (Engine.rng cl.eng);
            retry_burst = 4;
            retry_refill = 0.1;
            retry_backoff = 0.5;
            retry_backoff_max = 4.0;
            retry_attempts = 5;
          }
        in
        let c = Client.with_timeout (Client.create ~retry cl.rpc cl.nodes.(2)) 100_000.0 in
        Engine.sleep cl.eng (0.2 *. float_of_int (i + 1));
        let r = Client.dir_read c ~from:cl.nodes.(0) ~set_id in
        let tag = match r with Ok _ -> "ok" | Error e -> Client.error_to_string e in
        events := (i, Engine.now cl.eng, tag) :: !events)
  done;
  Engine.run_and_check cl.eng;
  List.rev !events

let test_backoff_deterministic () =
  let a = storm_schedule 42L and b = storm_schedule 42L in
  check_int "all clients reported" 3 (List.length a);
  check_bool "same seed, byte-identical schedule" true (a = b);
  check_bool "every client recovered" true
    (List.for_all (fun (_, _, tag) -> tag = "ok") a);
  check_bool "retries actually waited (backoff engaged)" true
    (List.for_all (fun (_, t, _) -> t > 50.0) a);
  let c = storm_schedule 43L in
  check_bool "different seed, different jitter schedule" true (a <> c)

(* ------------------------------------------------------------------ *)
(* A shed mutation is a clean no-op                                   *)
(* ------------------------------------------------------------------ *)

(* The Overloaded reply promises the request executed no part of its
   effect.  Against a saturated coordinator a shed Dir_add must leave
   membership and version untouched, and a subsequent instrumented
   iteration must still conform to its spec.  With the planted bug armed
   the same schedule leaks the add — proving this test (and the VOPR
   shed-divergence oracle built on the same premise) can convict. *)
let shed_add_run ~planted =
  let planted = { Weakset_obs.Planted.none with shed_after_apply = planted } in
  let cl = make_cluster ~planted ~host:false () in
  let sref =
    Weak_set.provision ~set_id ~coordinator_server:cl.servers.(0)
      ~semantics:Semantics.snapshot ()
  in
  for num = 1 to 5 do
    let oid = Oid.make ~num ~home:cl.nodes.(1) in
    Node_server.put_object cl.servers.(1) oid (Svalue.make (Printf.sprintf "m%d" num));
    ignore
      (Directory.apply
         (Node_server.directory_truth cl.servers.(0) ~set_id)
         (Directory.Add oid))
  done;
  let truth = Node_server.directory_truth cl.servers.(0) ~set_id in
  let v0 = Directory.version truth in
  iter_fillers cl 7;
  let straggler = Oid.make ~num:9002 ~home:cl.nodes.(1) in
  let shed_result = ref None in
  Engine.spawn cl.eng ~name:"shed-adder" (fun () ->
      let c = Client.create cl.rpc cl.nodes.(2) in
      Engine.sleep cl.eng 0.5;
      shed_result := Some (Client.dir_add c sref straggler));
  let verdict = ref None in
  Engine.spawn cl.eng ~name:"reader" (fun () ->
      Engine.sleep cl.eng 150.0;
      let c = Client.with_timeout (Client.create cl.rpc cl.nodes.(2)) 1_000.0 in
      let handle =
        Weak_set.make ~coordinator_server:cl.servers.(0) c sref Semantics.snapshot
      in
      let iter, inst = Weak_set.elements ~instrument:true handle in
      let _yields, _ending = Iterator.drain ~limit:100 iter in
      verdict :=
        Option.map
          (fun i ->
            Weakset_spec.Figures.verdict_ok
              (Weakset_spec.Figures.check Weakset_spec.Figures.fig4
                 (Instrument.computation i)))
          inst);
  Engine.run_and_check cl.eng;
  (match !shed_result with
  | Some (Error Client.Overloaded) -> ()
  | _ -> Alcotest.fail "the probe Dir_add must be shed at depth 7");
  (Oid.Set.mem straggler (Directory.members truth), Directory.version truth, v0, !verdict)

let test_shed_mutation_clean_noop () =
  let leaked, v_after, v0, verdict = shed_add_run ~planted:false in
  check_bool "shed add left no trace in membership" false leaked;
  check_bool "shed add did not advance the directory version" true
    (Version.compare v_after v0 = 0);
  match verdict with
  | Some ok -> check_bool "post-shed iteration conforms to its spec" true ok
  | None -> Alcotest.fail "instrumented iteration produced no computation"

let test_planted_shed_bug_leaks () =
  let leaked, _, _, _ = shed_add_run ~planted:true in
  check_bool "planted bug applies the shed mutation" true leaked

(* ------------------------------------------------------------------ *)
(* Observability regressions                                          *)
(* ------------------------------------------------------------------ *)

let test_h_percentile_opt_empty () =
  let m = Weakset_obs.Metrics.create () in
  let h = Weakset_obs.Metrics.histogram m "x" in
  (* An all-shed load step records nothing: the total-function percentile
     must answer None, never a phantom number. *)
  List.iter
    (fun p ->
      check_bool
        (Printf.sprintf "empty histogram has no p%g" p)
        true
        (Weakset_obs.Metrics.h_percentile_opt h p = None))
    [ 0.0; 50.0; 99.9; 100.0 ];
  Weakset_obs.Metrics.observe h 5.0;
  check_bool "one sample answers" true
    (Weakset_obs.Metrics.h_percentile_opt h 99.0 = Some 5.0)

let test_openloop_error_latency_gate () =
  let run_errs ~record =
    let eng = Engine.create ~seed:3L () in
    let cfg =
      {
        Weakset_load.Openloop.clients = 2;
        arrival = Weakset_load.Arrival.Poisson { rate = 0.5 };
        duration = 50.0;
        drain = 50.0;
        span_name = "toy.request";
      }
    in
    Weakset_load.Openloop.run ~eng ~rng:(Rng.create 4L) ~record_error_latency:record
      ~exec:(fun ~client:_ ~parent:_ ->
        Engine.sleep eng 0.1;
        Error "shed")
      cfg
  in
  let o = run_errs ~record:false in
  check_bool "requests arrived" true (o.Weakset_load.Openloop.intended > 0);
  check_int "every request errored" o.Weakset_load.Openloop.intended
    o.Weakset_load.Openloop.errors;
  (* record_error_latency:false — shed completions leave the latency
     surfaces honestly empty instead of reporting near-zero percentiles. *)
  check_int "no intent samples from errors" 0 (Stats.count o.Weakset_load.Openloop.intent);
  check_int "no send samples from errors" 0 (Stats.count o.Weakset_load.Openloop.send);
  let o' = run_errs ~record:true in
  check_int "default records error latency" o'.Weakset_load.Openloop.errors
    (Stats.count o'.Weakset_load.Openloop.intent)

let () =
  Alcotest.run "admission"
    [
      ( "queue",
        [
          Alcotest.test_case "depth bounded by capacity" `Quick test_queue_depth_bounded;
          Alcotest.test_case "shed order by class" `Quick test_shed_order_by_class;
          Alcotest.test_case "Overloaded round trip" `Quick
            test_overloaded_roundtrip_without_retry;
        ] );
      ( "retry",
        [
          Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
          Alcotest.test_case "budget refill" `Quick test_budget_refill;
          Alcotest.test_case "backoff determinism" `Quick test_backoff_deterministic;
        ] );
      ( "safety",
        [
          Alcotest.test_case "shed mutation is a clean no-op" `Quick
            test_shed_mutation_clean_noop;
          Alcotest.test_case "planted shed bug leaks" `Quick test_planted_shed_bug_leaks;
        ] );
      ( "obs",
        [
          Alcotest.test_case "empty-histogram percentiles" `Quick test_h_percentile_opt_empty;
          Alcotest.test_case "error-latency gate" `Quick test_openloop_error_latency_gate;
        ] );
    ]
