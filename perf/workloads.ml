(* The five benchmark workloads.

   [setup ~seed ~toy] builds one pass's inputs from the seed and returns
   the pass itself, so set-up and pass are timed apart.  A pass is
   deterministic in everything simulated: running the same inputs twice
   must give the same [fingerprint] and [sim] metrics, which is how the
   benchmark checks replay determinism.

   A traced pass attaches bench-side bus sinks and times public calls
   from outside the library; nothing here changes library code. *)

open Weakset_sim
open Weakset_net
open Weakset_store
open Weakset_core
module Bus = Weakset_obs.Bus
module Event = Weakset_obs.Event
module Metrics = Weakset_obs.Metrics
module Gen = Weakset_vopr.Gen
module Runner = Weakset_vopr.Runner
module Scenario = Weakset_vopr.Scenario
module Oracle = Weakset_vopr.Oracle
module Openloop = Weakset_load.Openloop
module Arrival = Weakset_load.Arrival

(* A failed correctness check; the exit code names the check. *)
exception Check_failed of int * string

let fail code fmt = Printf.ksprintf (fun s -> raise (Check_failed (code, s))) fmt

let code_yields = 3
let code_failover = 4
let code_replay = 5
let code_crash = 6
let code_accounting = 7

type pass = {
  ops : int;  (** completed operations: the denominator of every per-op metric *)
  attempted : int;
  failed : int;
  steps : int;  (** simulated events processed *)
  run_s : float;  (** CPU seconds spent simulating, without the pass's own analysis *)
  host_op_ms : float list;
      (** host CPU milliseconds per op: one sample per op, per row on failover *)
  fingerprint : string;  (** digest of everything simulated *)
  sim : (string * float) list;  (** deterministic per-layer metrics *)
  host : (string * float) list;  (** host per-layer metrics *)
  notes : string list;  (** findings printed with the report *)
}

(* [Warmup] passes are discarded for timing but count what untimed
   passes cannot see; [Traced] passes attach the bench-side tracer. *)
type mode = Warmup | Timed | Traced

type t = { name : string; setup : seed:int -> toy:bool -> mode:mode -> pass }

let fingerprint parts = Digest.to_hex (Digest.string (String.concat "\n" parts))
let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let per num den = Measure.ratio (float_of_int num) (float_of_int den)

(* ------------------------------------------------------------------ *)
(* Bench-side tracing                                                  *)

(* Host CPU inside fiber run slices, bucketed by fiber class; whatever a
   pass spends outside every slice is scheduler and engine-callback
   time.  [events] keeps a bounded sample of the stream for the digest
   replay and the critical-path analysis. *)
type tracer = {
  buckets : (string, float) Hashtbl.t;
  mutable open_at : float;
  mutable open_class : string;
  mutable events : Event.t list;
  mutable captured : int;
  mutable count : int;
}

let capture_cap = 200_000

let tracer () =
  {
    buckets = Hashtbl.create 8;
    open_at = 0.0;
    open_class = "";
    events = [];
    captured = 0;
    count = 0;
  }

let fiber_class name =
  let starts p = String.starts_with ~prefix:p name in
  if starts "rpc-handler" then "rpc_handler"
  else if starts "rpc-demux" then "rpc_demux"
  else if starts "perf-iter" || starts "load.client" then "iter"
  else "other"

let attach ?(capture = true) tr bus =
  Bus.attach bus ~name:"perf-tracer" (fun ev ->
      tr.count <- tr.count + 1;
      if capture && tr.captured < capture_cap then begin
        tr.captured <- tr.captured + 1;
        tr.events <- ev :: tr.events
      end;
      match ev.Event.kind with
      | Event.Run_begin { fiber; _ } ->
          tr.open_class <- fiber_class fiber;
          tr.open_at <- Measure.cpu ()
      | Event.Run_end _ ->
          let d = Measure.cpu () -. tr.open_at in
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt tr.buckets tr.open_class) in
          Hashtbl.replace tr.buckets tr.open_class (prev +. d)
      | _ -> ())

(* Per-layer host numbers of a traced pass that spent [total] CPU
   seconds over [ops] operations. *)
let tracer_metrics tr ~total ~ops =
  let bucket c = Option.value ~default:0.0 (Hashtbl.find_opt tr.buckets c) in
  let in_slices = Hashtbl.fold (fun _ v acc -> acc +. v) tr.buckets 0.0 in
  let events = List.rev tr.events in
  let d = Weakset_obs.Digest.create () in
  let (), digest_s = Measure.timed (fun () -> List.iter (Weakset_obs.Digest.feed d) events) in
  [
    ("sim.sched_host_share", Measure.ratio (total -. in_slices) total);
    ("host.fiber.iter_share", Measure.ratio (bucket "iter") total);
    ("host.fiber.rpc_handler_share", Measure.ratio (bucket "rpc_handler") total);
    ("host.fiber.rpc_demux_share", Measure.ratio (bucket "rpc_demux") total);
    ("obs.events_per_op", per tr.count ops);
    ("obs.digest.host_ns_per_event", Measure.ratio (digest_s *. 1e9) (float_of_int tr.captured));
  ]

(* Share of the load requests' critical paths spent as self time of
   server-side [rpc.serve*] spans, over the captured stream. *)
let serve_self_share tr =
  let module Trace = Weakset_obs.Trace in
  let trace = Trace.build (List.rev tr.events) in
  let serve = ref 0.0 and total = ref 0.0 in
  List.iter
    (fun (root : Trace.span) ->
      if root.name = "load.request" then
        List.iter
          (fun (item : Trace.cp_item) ->
            total := !total +. item.cp_self;
            if String.starts_with ~prefix:"rpc.serve" item.cp_name then
              serve := !serve +. item.cp_self)
          (Trace.critical_path trace root))
    (Trace.roots trace);
  Measure.ratio !serve !total

(* Median CPU microseconds of one [Topology.path_latency] call over
   [pairs], each pair timed over a batch long enough to read reliably. *)
let route_us pairs =
  let per_call (topo, a, b) =
    let rec batch k =
      let (), s =
        Measure.timed (fun () ->
            for _ = 1 to k do
              ignore (Topology.path_latency topo a b)
            done)
      in
      if s >= 2e-4 || k >= 1 lsl 20 then s /. float_of_int k *. 1e6 else batch (k * 4)
    in
    batch 1
  in
  Measure.median (List.map per_call pairs)

(* (client node, member home) pairs of a world. *)
let client_homes (w : World.t) =
  Oid.Set.fold
    (fun oid acc -> Nodeid.Set.add (Oid.home oid) acc)
    (Directory.members (World.truth w))
    Nodeid.Set.empty
  |> Nodeid.Set.elements
  |> List.map (fun h -> (w.World.topo, World.client_node w, h))

(* Registry reads of one world. *)
let hist_p (w : World.t) ?(labels = []) name p =
  let h = Metrics.histogram (Engine.metrics w.World.eng) ~labels name in
  Option.value ~default:0.0 (Metrics.h_percentile_opt h p)

let rpc_latency w =
  let labels = Netstat.labels ~instance:0 in
  [
    ("rpc.latency_p50", hist_p w ~labels "rpc.latency" 50.0);
    ("rpc.latency_p95", hist_p w ~labels "rpc.latency" 95.0);
  ]

let client_latency w =
  List.map
    (fun (metric, op) ->
      ( Printf.sprintf "client.latency.%s_p50" metric,
        hist_p w ~labels:[ ("op", op) ] "client.latency" 50.0 ))
    [ ("dir-read", "dir-read"); ("fetch", "fetch"); ("add", "dir-add"); ("remove", "dir-remove") ]

(* Metric lists measured once per world, combined across worlds by
   their median. *)
let median_by_name lists =
  match lists with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (name, _) -> (name, Measure.median (List.map (fun l -> List.assoc name l) lists)))
        first

(* ------------------------------------------------------------------ *)
(* swarm: VOPR seeds with faults and full spec instrumentation         *)

let issue_categories =
  [
    "stale-beyond-lease";
    "spec-violation";
    "monitor-mismatch";
    "fiber-crash";
    "stuck-iterator";
    "steps-exhausted";
    "leaked-fibers";
    "lost-rpc";
    "commit-lost";
    "commit-reordered";
    "election-overdue";
    "shed-divergence";
  ]

(* Simulated latency of every completed [Iterator.next], from the
   recorded computation. *)
let invocation_latencies (it : Oracle.iteration_input) =
  List.map
    (fun ((pre : Weakset_spec.Sstate.t), (post : Weakset_spec.Sstate.t)) -> post.time -. pre.time)
    (Weakset_spec.Computation.invocations it.Oracle.computation)

let plan_routes plan =
  let c = plan.Gen.config in
  let topo = Topology.create () in
  let nodes =
    match c.Gen.shape with
    | Gen.Clique -> Topology.clique topo c.Gen.nodes ~latency:c.Gen.latency
    | Gen.Star ->
        let hub, leaves = Topology.star topo (c.Gen.nodes - 1) ~latency:c.Gen.latency in
        Array.append [| hub |] leaves
    | Gen.Line -> Topology.line topo c.Gen.nodes ~latency:c.Gen.latency
  in
  let n = Array.length nodes in
  List.init (n - 2) (fun i -> (topo, nodes.(n - 1), nodes.(i + 1)))

let swarm_setup ~seed ~toy =
  let count = if toy then 4 else 400 in
  let first = 1000 * seed in
  let plans, gen_s =
    Measure.timed (fun () -> List.init count (fun i -> Gen.generate (Int64.of_int (first + i))))
  in
  fun ~mode ->
    let results = List.map (fun plan -> Measure.timed (fun () -> Runner.execute plan)) plans in
    let rs : Runner.result list = List.map fst results in
    let failing = List.filter (fun (r : Runner.result) -> r.issues <> []) rs in
    let iterations = List.concat_map (fun (r : Runner.result) -> r.iterations) rs in
    let states =
      sum
        (fun (it : Oracle.iteration_input) -> Weakset_spec.Computation.length it.computation)
        iterations
    in
    let lat = List.concat_map invocation_latencies iterations in
    let seeds_with cat =
      List.length
        (List.filter
           (fun (r : Runner.result) -> List.exists (fun i -> Oracle.category i = cat) r.issues)
           rs)
    in
    let steps = sum (fun (r : Runner.result) -> r.steps) rs in
    let host =
      if mode <> Traced then []
      else
        let (), check_s =
          Measure.timed (fun () ->
              List.iter
                (fun (it : Oracle.iteration_input) ->
                  ignore (Weakset_spec.Figures.check it.spec it.computation))
                iterations)
        in
        [
          ("vopr.gen.host_ms_per_seed", gen_s *. 1e3 /. float_of_int count);
          ("spec.check.host_ms_per_seed", check_s *. 1e3 /. float_of_int count);
          ("spec.check.host_us_per_state", Measure.ratio (check_s *. 1e6) (float_of_int states));
          ("net.route.host_us", route_us (List.concat_map plan_routes plans));
        ]
    in
    {
      ops = count;
      attempted = count;
      failed = List.length failing;
      steps;
      run_s = sumf snd results;
      host_op_ms = List.map (fun (_, s) -> s *. 1e3) results;
      fingerprint = fingerprint (List.map (fun (r : Runner.result) -> r.digest) rs);
      sim =
        [
          ("fail_ratio", per (List.length failing) count);
          ("sim_op_p50", Measure.percentile lat 50.0);
          ("sim_op_p95", Measure.percentile lat 95.0);
          ("obs.events_per_op", per (sum (fun (r : Runner.result) -> r.events) rs) count);
          ("spec.states_per_seed", per states count);
        ]
        @ List.map
            (fun cat -> ("vopr.issues." ^ cat, float_of_int (seeds_with cat)))
            issue_categories;
      host;
      notes =
        [
          Printf.sprintf "seeds %d..%d: %d with oracle issues%s" first (first + count - 1)
            (List.length failing)
            (String.concat ""
               (List.map
                  (fun (r : Runner.result) ->
                    let cats = List.sort_uniq compare (List.map Oracle.category r.issues) in
                    Printf.sprintf " %Ld[%s]" r.plan.Gen.seed (String.concat "," cats))
                  failing));
        ];
    }

(* ------------------------------------------------------------------ *)
(* wide / deep: one fault-free iteration per semantics                 *)

let semantics =
  [
    ("immutable", Semantics.immutable);
    ("snapshot", Semantics.snapshot);
    ("grow-only", Semantics.grow_only);
    ("optimistic", Semantics.optimistic);
    ("lin", Semantics.lin);
  ]

let think = 1.0

type iteration = {
  i_yields : int;
  i_distinct : int;
  i_outcome : string;
  i_first : float;
  i_total : float;
  i_next : float list;  (** simulated latency of every [Iterator.next] *)
  i_host : float list;  (** host ms between consecutive yields *)
  i_host_s : float;
  i_steps : int;
}

let iterate (w : World.t) sem =
  let set = Weak_set.make ~heal_signal:(Fault.signal w.fault) (World.client w) w.sref sem in
  let eng = w.eng in
  let yields = ref 0 and seen = Hashtbl.create 64 and outcome = ref "unfinished" in
  let first = ref 0.0 and total = ref 0.0 and next = ref [] and host = ref [] in
  Engine.spawn eng ~name:"perf-iter" (fun () ->
      let t0 = Engine.now eng in
      let iter, _ = Weak_set.elements set in
      let last = ref (Measure.cpu ()) in
      let rec loop () =
        let inv = Engine.now eng in
        let o = Iterator.next iter in
        let now = Engine.now eng in
        next := (now -. inv) :: !next;
        match o with
        | Iterator.Yield (oid, _) ->
            let c = Measure.cpu () in
            host := ((c -. !last) *. 1e3) :: !host;
            last := c;
            if !yields = 0 then first := now -. t0;
            incr yields;
            Hashtbl.replace seen (Oid.num oid) ();
            Engine.sleep eng think;
            loop ()
        | Iterator.Done ->
            outcome := "done";
            total := now -. t0
        | Iterator.Failed e ->
            outcome := "failed: " ^ Client.error_to_string e;
            total := now -. t0
      in
      loop ());
  let steps, host_s = Measure.timed (fun () -> Engine.run ~until:1e7 eng) in
  {
    i_yields = !yields;
    i_distinct = Hashtbl.length seen;
    i_outcome = !outcome;
    i_first = !first;
    i_total = !total;
    i_next = !next;
    i_host = !host;
    i_host_s = host_s;
    i_steps = steps;
  }

let iterate_setup ~nodes ~members ~seed =
  let worlds =
    List.mapi
      (fun i (name, sem) ->
        (name, sem, World.clique ~seed:((seed * 16) + i) ~nodes ~members ~semantics:sem))
      semantics
  in
  fun ~mode ->
    let tracer = tracer () in
    let runs =
      List.map
        (fun (name, sem, (w : World.t)) ->
          if mode = Traced then attach tracer (Engine.bus w.eng);
          let it = iterate w sem in
          if it.i_outcome <> "done" || it.i_yields <> members || it.i_distinct <> members then
            fail code_yields "%s iteration ended %s after %d yields (%d distinct) of %d members"
              name it.i_outcome it.i_yields it.i_distinct members;
          (name, w, it))
        worlds
    in
    let its = List.map (fun (_, _, it) -> it) runs in
    let ops = sum (fun it -> it.i_yields) its in
    let steps = sum (fun it -> it.i_steps) its in
    let stats (_, w, _) = Rpc.stats w.World.rpc in
    let sent = sum (fun r -> (stats r).Netstat.sent) runs in
    let calls = sum (fun r -> (stats r).Netstat.rpc_calls) runs in
    let rpc_ok = sum (fun r -> (stats r).Netstat.rpc_ok) runs in
    let next = List.concat_map (fun it -> it.i_next) its in
    let total_s = sumf (fun it -> it.i_host_s) its in
    let per_sem =
      List.concat_map
        (fun (name, w, it) ->
          [
            (Printf.sprintf "core.%s.first" name, it.i_first);
            (Printf.sprintf "core.%s.total" name, it.i_total);
            (Printf.sprintf "core.%s.msgs" name, float_of_int (Rpc.stats w.World.rpc).Netstat.sent);
          ])
        runs
    in
    let host =
      List.map (fun (name, _, it) -> (Printf.sprintf "core.%s.host_s" name, it.i_host_s)) runs
      @
      if mode <> Traced then []
      else
        ("net.route.host_us", route_us (List.concat_map (fun (_, w, _) -> client_homes w) runs))
        :: tracer_metrics tracer ~total:total_s ~ops
    in
    {
      ops;
      attempted = List.length runs * members;
      failed = 0;
      steps;
      run_s = total_s;
      host_op_ms = List.concat_map (fun it -> it.i_host) its;
      fingerprint =
        fingerprint
          (List.map
             (fun it ->
               String.concat " " (List.map (Printf.sprintf "%h") (it.i_total :: it.i_next)))
             its);
      sim =
        [
          ("msgs_per_op", per sent ops);
          ("sim_op_p50", Measure.percentile next 50.0);
          ("sim_op_p95", Measure.percentile next 95.0);
          ("rpc.calls_per_op", per calls ops);
          ("rpc.ok_ratio", per rpc_ok calls);
        ]
        @ median_by_name (List.map (fun (_, w, _) -> rpc_latency w @ client_latency w) runs)
        @ per_sem;
      host;
      notes = [];
    }

(* ------------------------------------------------------------------ *)
(* overload: open-loop Poisson traffic up a rate ladder                *)

let rates = [ 0.05; 0.1; 0.2; 0.4; 0.8; 1.6 ]
let ref_rate = 0.1
let load_clients = 16

(* Intent-latency limit of [rate_at_slo], in virtual time units: about
   twice the p95 of an unloaded request, most of which are 16-member
   optimistic iterations. *)
let slo_limit = 150.0

type rung = {
  r_rate : float;
  r_world : World.t;
  r_outcome : Openloop.outcome;
  r_lateness : float list;  (** send time minus intended tick, per request *)
  r_host : float list;  (** host ms between consecutive request completions *)
}

(* One rung of the ladder on a fresh world: [load_clients] client fibers
   issue 80% optimistic iterations and 20% churn, adds and removes in
   turn, so the set changes while its size stays put. *)
let run_rung (w : World.t) ~target ~rate ~duration =
  let eng = w.eng in
  let sem = Semantics.optimistic in
  let clients = Array.init load_clients (fun _ -> World.client w) in
  let mix = Rng.split w.inputs in
  let arrival = Arrival.Poisson { rate } in
  let arrival_rng = Rng.split w.inputs in
  (* Openloop's schedule, recomputed from a copy of its stream and dealt
     round-robin as Openloop deals it: the bench's own count of intended
     requests, and each request's intended tick. *)
  let ticks = Arrival.ticks arrival ~rng:(Rng.copy arrival_rng) ~until:duration in
  let dealt = Array.make load_clients [] in
  List.iteri (fun i t -> dealt.(i mod load_clients) <- t :: dealt.(i mod load_clients)) ticks;
  let pending = Array.map List.rev dealt in
  let finished = ref 0 and lateness = ref [] and host = ref [] in
  let last = ref (Measure.cpu ()) in
  let iterate c =
    let set = Weak_set.make ~heal_signal:(Fault.signal w.fault) c w.sref sem in
    let iter, _ = Weak_set.elements set in
    let rec loop n =
      match Iterator.next iter with
      | Iterator.Yield _ when n < 10_000 -> loop (n + 1)
      | Iterator.Yield _ ->
          Iterator.close iter;
          Error "yield limit"
      | Iterator.Done -> Ok ()
      | Iterator.Failed e -> Error (Client.error_to_string e)
    in
    loop 0
  in
  let unit_result = function Ok _ -> Ok () | Error e -> Error (Client.error_to_string e) in
  let exec ~client ~parent =
    (match pending.(client) with
    | tick :: rest ->
        pending.(client) <- rest;
        lateness := (Engine.now eng -. tick) :: !lateness
    | [] -> ());
    let c = Client.with_span_parent clients.(client) parent in
    let u = Rng.float mix 1.0 in
    let res =
      if u < 0.8 then iterate c
      else
        (* Adding below the target size and removing at or above it
           keeps adds and removes balanced, so every iteration walks a
           set of about [target] members. *)
        let handle = Weak_set.make c w.sref sem in
        let members = Directory.members (World.truth w) in
        if Oid.Set.cardinal members < target then
          unit_result (Weak_set.add handle (World.fresh_object w))
        else unit_result (Weak_set.remove handle (Rng.pick_list mix (Oid.Set.elements members)))
    in
    incr finished;
    let now = Measure.cpu () in
    host := ((now -. !last) *. 1e3) :: !host;
    last := now;
    res
  in
  let o =
    Openloop.run ~eng ~rng:arrival_rng ~exec
      {
        Openloop.clients = load_clients;
        arrival;
        duration;
        drain = duration /. 2.0;
        span_name = "load.request";
      }
  in
  (match Engine.crashes eng with
  | [] -> ()
  | c :: _ ->
      fail code_crash "overload rate %g: fiber %s crashed: %s" rate c.Engine.crash_fiber
        (Printexc.to_string c.Engine.crash_exn));
  let scheduled = List.length ticks in
  if
    o.Openloop.intended <> scheduled
    || o.completed + o.errors <> !finished
    || o.intended <> o.completed + o.errors + o.abandoned
  then
    fail code_accounting
      "overload rate %g: intended %d (bench schedule %d) <> completed %d + errors %d + \
       abandoned %d (bench counted %d finished)"
      rate o.intended scheduled o.completed o.errors o.abandoned !finished;
  { r_rate = rate; r_world = w; r_outcome = o; r_lateness = !lateness; r_host = !host }

let intent_p (o : Openloop.outcome) p =
  if Stats.count o.intent = 0 then 0.0 else Stats.percentile_linear o.intent p

let rung_ok r =
  let o = r.r_outcome in
  Stats.count o.Openloop.intent > 0
  && intent_p o 95.0 <= slo_limit
  && o.achieved_rate >= 0.9 *. o.realized_rate

(* Engine steps of a run that ends at [horizon]: every scheduled event
   due by then is processed. *)
let count_steps bus ~horizon =
  let n = ref 0 in
  Bus.attach bus ~name:"perf-steps" (fun ev ->
      match ev.Event.kind with Event.Sched { at } when at <= horizon -> incr n | _ -> ());
  n

let overload_setup ~seed ~toy =
  let duration = if toy then 200.0 else 3000.0 in
  let members = 16 in
  let worlds =
    List.mapi
      (fun i rate ->
        let w =
          World.clique ~seed:((seed * 16) + i) ~nodes:8 ~members ~semantics:Semantics.optimistic
        in
        (rate, w))
      rates
  in
  fun ~mode ->
    let tracer = tracer () in
    let counted =
      List.map
        (fun (rate, (w : World.t)) ->
          let bus = Engine.bus w.eng in
          let steps =
            if mode = Timed then None else Some (count_steps bus ~horizon:(duration *. 1.5))
          in
          if mode = Traced then attach tracer bus ~capture:(rate = ref_rate);
          let r, s = Measure.timed (fun () -> run_rung w ~target:members ~rate ~duration) in
          (r, s, steps))
        worlds
    in
    let rungs = List.map (fun (r, _, _) -> r) counted in
    let reference = List.find (fun r -> r.r_rate = ref_rate) rungs in
    let outcomes = List.map (fun r -> r.r_outcome) rungs in
    let completed = sum (fun (o : Openloop.outcome) -> o.completed) outcomes in
    let errors = sum (fun (o : Openloop.outcome) -> o.errors) outcomes in
    let stats = List.map (fun r -> Rpc.stats r.r_world.World.rpc) rungs in
    let calls = sum (fun s -> s.Netstat.rpc_calls) stats in
    let rate_at_slo =
      let rec climb best = function
        | r :: rest when rung_ok r -> climb r.r_rate rest
        | _ -> best
      in
      climb 0.0 rungs
    in
    let ro = reference.r_outcome in
    let per_rung =
      List.concat_map
        (fun r ->
          let o = r.r_outcome in
          let key m = Printf.sprintf "load.r%g.%s" r.r_rate m in
          [
            (key "achieved_ratio", Measure.ratio o.achieved_rate o.realized_rate);
            (key "abandoned_ratio", per o.abandoned o.intended);
            (key "p95_intent", intent_p o 95.0);
          ])
        rungs
    in
    let total_s = sumf (fun (_, s, _) -> s) counted in
    let host =
      if mode <> Traced then []
      else
        ("net.route.host_us", route_us (client_homes reference.r_world))
        :: ("cp.rpc_serve_self_share", serve_self_share tracer)
        :: tracer_metrics tracer ~total:total_s ~ops:completed
    in
    {
      ops = completed;
      attempted = completed + errors;
      failed = errors;
      steps = sum (fun (_, _, n) -> Option.fold ~none:0 ~some:( ! ) n) counted;
      run_s = total_s;
      host_op_ms = List.concat_map (fun r -> r.r_host) rungs;
      fingerprint =
        fingerprint
          (List.map
             (fun r -> String.concat " " (List.map (Printf.sprintf "%h") r.r_lateness))
             rungs);
      sim =
        [
          ("msgs_per_op", per (sum (fun s -> s.Netstat.sent) stats) completed);
          ("sim_op_p50", intent_p ro 50.0);
          ("sim_op_p95", intent_p ro 95.0);
          ("fail_ratio", per (ro.errors + ro.abandoned) ro.intended);
          ("rate_at_slo", rate_at_slo);
          ("load.lateness_p95", Measure.percentile reference.r_lateness 95.0);
          ("rpc.calls_per_op", per calls completed);
          ("rpc.ok_ratio", per (sum (fun s -> s.Netstat.rpc_ok) stats) calls);
        ]
        @ rpc_latency reference.r_world
        @ client_latency reference.r_world
        @ per_rung;
      host;
      notes =
        [
          Printf.sprintf
            "rate %g: %d intended, %d completed, p95 intent %.1f (limit %.0f); rate_at_slo %g"
            ref_rate ro.intended ro.completed (intent_p ro 95.0) slo_limit rate_at_slo;
        ];
    }

(* ------------------------------------------------------------------ *)
(* failover: the replicated-directory scenario table                   *)

let failover_setup ~seed ~toy =
  let rows = if toy then [ List.hd Scenario.table ] else Scenario.table in
  let rows =
    List.map (fun (s : Scenario.t) -> { s with name = Printf.sprintf "%s@%d" s.name seed }) rows
  in
  List.iter Scenario.validate rows;
  fun ~mode ->
    let outcomes =
      List.map
        (fun (row : Scenario.t) ->
          let o, s = Measure.timed (fun () -> Scenario.run row) in
          if not (Scenario.passed o) then
            fail code_failover "failover row %s failed: %s" row.name
              (Format.asprintf "%a" Scenario.pp_outcome o);
          (row, o, s))
        rows
    in
    (* [Scenario.run] executes every row twice and compares the digests;
       both executions count. *)
    let acked = sum (fun (_, (o : Scenario.outcome), _) -> 2 * o.o_ops_ok) outcomes in
    let failed = sum (fun (_, (o : Scenario.outcome), _) -> 2 * o.o_ops_failed) outcomes in
    let events = sum (fun (_, (o : Scenario.outcome), _) -> 2 * o.o_events) outcomes in
    let base (row : Scenario.t) = List.hd (String.split_on_char '@' row.name) in
    {
      ops = acked;
      attempted = acked + failed;
      failed;
      steps = events;
      run_s = sumf (fun (_, _, s) -> s) outcomes;
      host_op_ms =
        List.map
          (fun (_, (o : Scenario.outcome), s) -> s *. 1e3 /. float_of_int (max 1 (2 * o.o_ops_ok)))
          outcomes;
      fingerprint =
        fingerprint (List.map (fun (_, (o : Scenario.outcome), _) -> o.o_digest) outcomes);
      sim =
        [
          ("fail_ratio", per failed (acked + failed));
          ("obs.events_per_op", per events acked);
          ( "repl.committed",
            float_of_int (sum (fun (_, (o : Scenario.outcome), _) -> o.o_committed) outcomes) );
        ];
      host =
        List.map
          (fun (row, _, s) -> (Printf.sprintf "failover.%s.host_ms" (base row), s *. 1e3))
          outcomes
        @
        if mode <> Traced then []
        else
          (* Each row runs on a clique of its replicas plus a client
             node, with links of latency 0.5. *)
          [
            ( "net.route.host_us",
              route_us
                (List.concat_map
                   (fun ((row : Scenario.t), _, _) ->
                     let topo = Topology.create () in
                     let nodes = Topology.clique topo (row.replicas + 1) ~latency:0.5 in
                     List.init row.replicas (fun i -> (topo, nodes.(row.replicas), nodes.(i))))
                   outcomes) );
          ];
      notes = [];
    }

let all =
  [
    { name = "swarm"; setup = swarm_setup };
    {
      name = "wide";
      setup =
        (fun ~seed ~toy ->
          if toy then iterate_setup ~nodes:12 ~members:8 ~seed
          else iterate_setup ~nodes:48 ~members:64 ~seed);
    };
    {
      name = "deep";
      setup =
        (fun ~seed ~toy ->
          iterate_setup ~nodes:8 ~members:(if toy then 32 else 1024) ~seed);
    };
    { name = "overload"; setup = overload_setup };
    { name = "failover"; setup = failover_setup };
  ]
