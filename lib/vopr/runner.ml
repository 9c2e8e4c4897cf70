module Engine = Weakset_sim.Engine
module Rng = Weakset_sim.Rng
module Arrival = Weakset_load.Arrival
module Fault = Weakset_net.Fault
module Node_server = Weakset_store.Node_server
module Directory = Weakset_store.Directory
module Version = Weakset_store.Version
module Client = Weakset_store.Client
module Cache = Weakset_store.Cache
module Oid = Weakset_store.Oid
module World = Weakset_store.Sim_world
module Semantics = Weakset_core.Semantics
module Weak_set = Weakset_core.Weak_set
module Iterator = Weakset_core.Iterator
module Instrument = Weakset_core.Instrument
module Monitor = Weakset_spec.Monitor
module Figures = Weakset_spec.Figures
module Bus = Weakset_obs.Bus
module Event = Weakset_obs.Event
module Json = Weakset_obs.Json
module Flight = Weakset_obs.Flight
module Planted = Weakset_obs.Planted

type result = {
  plan : Gen.plan;
  digest : string;
  events : int;
  steps : int;
  issues : Oracle.issue list;
  iterations : Oracle.iteration_input list;
  step_cap : int;
  planted : Planted.t;
}

let default_step_cap = 1_000_000
let set_id = World.set_id

(* ------------------------------------------------------------------ *)
(* Plan validation (fail fast with a message instead of mid-sim)       *)
(* ------------------------------------------------------------------ *)

let link_exists shape n a b =
  a <> b && a >= 0 && b >= 0 && a < n && b < n
  &&
  match shape with
  | Gen.Clique -> true
  | Gen.Star -> a = 0 || b = 0
  | Gen.Line -> abs (a - b) = 1

let validate plan =
  let c = plan.Gen.config in
  let n = c.Gen.nodes in
  if n < 4 then invalid_arg "Vopr.Runner: config.nodes must be >= 4";
  List.iter
    (fun ix ->
      if ix < 1 || ix > n - 2 then
        invalid_arg (Printf.sprintf "Vopr.Runner: replica index %d is not a home node" ix))
    c.Gen.replica_ixs;
  List.iter
    (function
      | Gen.Iterate { semantics; _ } when not (List.mem_assoc semantics Semantics.all) ->
          invalid_arg (Printf.sprintf "Vopr.Runner: unknown semantics %S" semantics)
      | _ -> ())
    plan.Gen.ops;
  List.iter
    (function
      | Gen.Crash { node; _ } ->
          if node < 1 || node > n - 2 then
            invalid_arg (Printf.sprintf "Vopr.Runner: crash target %d is not a home node" node)
      | Gen.Cut { a; b; _ } ->
          if not (link_exists c.Gen.shape n a b) then
            invalid_arg (Printf.sprintf "Vopr.Runner: no link %d-%d in this topology" a b)
      | Gen.Partition { groups; _ } ->
          List.iter
            (List.iter (fun ix ->
                 if ix < 0 || ix >= n then
                   invalid_arg (Printf.sprintf "Vopr.Runner: partition node %d out of range" ix)))
            groups
      | Gen.Herd { clients; burst; _ } ->
          if clients < 1 || burst < 1 then
            invalid_arg "Vopr.Runner: herd clients and burst must be >= 1")
    plan.Gen.faults;
  (match c.Gen.open_loop with
  | Some { Gen.ol_rate; ol_clients; _ } ->
      if ol_rate <= 0.0 || ol_clients < 1 then
        invalid_arg "Vopr.Runner: open_loop rate must be positive and clients >= 1"
  | None -> ())

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)
(* ------------------------------------------------------------------ *)

type iter_record = {
  ir_index : int;
  ir_semantics : string;
  ir_spec : Figures.spec;
  ir_monitor : Monitor.t;
  mutable ir_outcome : [ `Done | `Failed of string | `Limit | `Unfinished ];
}

(* The spec each iteration is judged against: the paper figure of its
   semantics; Figure 1 when the plan injects no faults at all; the §3.4
   window relaxation when reading possibly-stale replicas (ablation A1
   showed literal Figure 6 is the wrong judge for those) — and likewise
   for any optimistic run racing removals, where a remove landing between
   the membership read an invocation linearises on and its yield makes
   literal Figure 6's current-vintage clause unsatisfiable (the repo's
   own integration suite judges that combination against the window
   spec). *)
let spec_for plan sem =
  let has_removes = List.exists (function Gen.Remove _ -> true | _ -> false) plan.Gen.ops in
  (* The linearizable iterator pins its snapshot with uncached
     authoritative reads, so neither the lease cache nor stale replicas
     weaken what it promises: always judge it against the lin spec. *)
  if sem.Semantics.linearizable then Figures.lin
  (* A lease cache makes every membership read potentially (boundedly)
     stale — exactly the situation the §3.4 window relaxation models, so
     cache-enabled plans are always judged against it.  Whether the
     staleness stayed within its lease is the cache oracle's separate,
     stricter question. *)
  else if plan.Gen.config.Gen.cache then Semantics.window_spec_of sem
  else if sem.Semantics.read_nearest_replica then Semantics.window_spec_of sem
  else if sem.Semantics.failure_handling = Semantics.Optimistic && has_removes then
    Semantics.window_spec_of sem
  else Semantics.spec_of ~no_failures:(plan.Gen.faults = []) sem

(* One body for {!execute} and {!blackbox}.  With [~record] a flight
   recorder rides along: it triggers itself on spec violations and node
   crashes during the run, and the oracle adds a post-run verdict
   trigger.  The recorder only listens, so the run's digest, events and
   steps are the same either way.  Ring capacity is modest — dumps ride
   inside repro bundles. *)
let run_plan ~record ~step_cap ~planted plan =
  validate plan;
  let c = plan.Gen.config in
  let n = c.Gen.nodes in
  let eng = Engine.create ~seed:plan.Gen.seed ~planted () in
  let bus = Engine.bus eng in
  let watch = Oracle.watch eng in
  let flight =
    if record then Some (Flight.create ~capacity:256 ~debounce:100.0 bus) else None
  in
  (* Ghost-copy policy unconditionally: it only defers removals while
     grow-only iterators are registered, and without it a grow-only run
     concurrent with removals violates its own type constraint — an
     environment bug, not an implementation bug.  The iterating client is
     the (only) lease-cache holder when the plan enables caching. *)
  let w =
    World.create ~shape:c.Gen.shape ~lease_ttl:c.Gen.lease_ttl
      ~policy:Node_server.Defer_removes_while_iterating ~replica_ixs:c.Gen.replica_ixs
      ~replica_interval:c.Gen.replica_interval ~replica_until:plan.Gen.budget
      ?cache:
        (if c.Gen.cache then Some { Cache.capacity = 256; ttl = c.Gen.lease_ttl } else None)
      ~size:c.Gen.initial_size eng ~nodes:n ~latency:c.Gen.latency ()
  in
  let nodes = w.World.nodes and servers = w.World.servers and sref = w.World.sref in
  let client = w.World.client and fault = w.World.fault in
  (* The mutator gets its own uncached client: sharing would let
     read-your-writes self-invalidation mask a broken wire callback —
     exactly the bug class the cache oracle exists to catch. *)
  let mut_client = Client.create w.World.rpc nodes.(n - 1) in
  (* Cache-coherence evidence: the coordinator's mutation log (time and
     resulting version) and every directory cache hit the bus carries.
     Both feed the oracle's stale-beyond-lease rule. *)
  let mutation_log = ref [] in
  let cache_hits = ref [] in
  if c.Gen.cache then begin
    let truth = World.truth w in
    let (_ : unit -> unit) =
      Node_server.on_directory_mutation servers.(0) ~set_id (fun _op ->
          mutation_log :=
            (Engine.now eng, Version.to_int (Directory.version truth)) :: !mutation_log)
    in
    Bus.attach bus ~name:"vopr-cache" (fun ev ->
        match ev.Event.kind with
        | Event.Cache_hit { ckind = Event.Cache_dir; id; version; age; _ } ->
            cache_hits :=
              { Oracle.h_time = ev.Event.time; h_set = id; h_version = version; h_age = age }
              :: !cache_hits
        | _ -> ())
  end;
  (* Background-load traffic (open-loop arrivals and thundering herds)
     reads through its own uncached client: authoritative size queries
     that stress the coordinator without touching the lease cache the
     oracle is watching.  Lazy so plans without either knob build the
     exact same world as before. *)
  let bg_handle =
    lazy (Weak_set.make (Client.create w.World.rpc nodes.(n - 1)) sref Semantics.optimistic)
  in
  (* Fault schedule, through the Fault scheduled API (the code path
     hand-written scenarios use). *)
  List.iter
    (function
      | Gen.Crash { node; at; recover_at } ->
          Fault.schedule_crash fault ~at nodes.(node);
          Fault.schedule_recover fault ~at:recover_at nodes.(node)
      | Gen.Cut { a; b; at; heal_at } ->
          Engine.schedule eng ~after:at (fun () -> Fault.cut_link fault nodes.(a) nodes.(b));
          Engine.schedule eng ~after:heal_at (fun () ->
              Fault.heal_link fault nodes.(a) nodes.(b))
      | Gen.Partition { groups; at; heal_at } ->
          Fault.schedule_partition fault ~at ~heal_at
            (List.map (List.map (fun ix -> nodes.(ix))) groups)
      | Gen.Herd { at; clients; burst } ->
          (* A load spike, not a topology fault: [clients] fibers wake
             together and each fires [burst] back-to-back size queries.
             Every query completes once links heal, so the run still
             quiesces. *)
          for h = 0 to clients - 1 do
            Engine.spawn eng ~name:(Printf.sprintf "vopr-herd.%d" h) (fun () ->
                let now = Engine.now eng in
                if at > now then Engine.sleep eng (at -. now);
                for _ = 1 to burst do
                  ignore (Weak_set.size (Lazy.force bg_handle))
                done)
          done)
    plan.Gen.faults;
  (* Open-loop background arrivals: size queries on their own clock,
     dealt round-robin across [ol_clients] fibers.  The tick stream is
     the fourth split of the plan seed — independent of the config,
     workload and fault streams, so a bundle replay reproduces it
     exactly without storing the ticks. *)
  (match c.Gen.open_loop with
  | None -> ()
  | Some { Gen.ol_rate; ol_clients; ol_bursty } ->
      let olrng =
        let root = Rng.create plan.Gen.seed in
        let (_ : Rng.t) = Rng.split root in
        let (_ : Rng.t) = Rng.split root in
        let (_ : Rng.t) = Rng.split root in
        Rng.split root
      in
      let arrival =
        if ol_bursty then Arrival.Bursty { rate = ol_rate; burst_mean = 4.0 }
        else Arrival.Poisson { rate = ol_rate }
      in
      (* budget = workload horizon + 60 by construction: stop arrivals
         at the horizon so the tail drains well inside the budget. *)
      let until = Float.max 1.0 (plan.Gen.budget -. 60.0) in
      let ticks = Arrival.ticks arrival ~rng:olrng ~until in
      let qs = Array.make ol_clients [] in
      List.iteri (fun i t -> qs.(i mod ol_clients) <- t :: qs.(i mod ol_clients)) ticks;
      Array.iteri
        (fun i q ->
          let schedule = List.rev q in
          if schedule <> [] then
            Engine.spawn eng ~name:(Printf.sprintf "vopr-openloop.%d" i) (fun () ->
                List.iter
                  (fun tick ->
                    let now = Engine.now eng in
                    if tick > now then Engine.sleep eng (tick -. now);
                    ignore (Weak_set.size (Lazy.force bg_handle)))
                  schedule))
        qs);
  (* Mutator driver: add/remove/size at their scheduled times.  When the
     plan contains an immutable iteration, every mutation must honour the
     write lock (§3.1) — the handle's semantics enforces that. *)
  let mutator_ops =
    List.filter (function Gen.Iterate _ -> false | _ -> true) plan.Gen.ops
  in
  let has_immutable =
    List.exists
      (function Gen.Iterate { semantics = "immutable"; _ } -> true | _ -> false)
      plan.Gen.ops
  in
  let mutator_sem = if has_immutable then Semantics.immutable else Semantics.optimistic in
  if mutator_ops <> [] then begin
    let handle = Weak_set.make mut_client sref mutator_sem in
    Engine.spawn eng ~name:"vopr-mutator" (fun () ->
        List.iter
          (fun op ->
            let at = Gen.op_time op in
            let now = Engine.now eng in
            if at > now then Engine.sleep eng (at -. now);
            match op with
            | Gen.Add _ ->
                ignore (Weak_set.add handle (World.fresh_member w))
            | Gen.Remove _ -> (
                match Oid.Set.min_elt_opt (Directory.members (World.truth w)) with
                | Some victim -> ignore (Weak_set.remove handle victim)
                | None -> ())
            | Gen.Size _ -> ignore (Weak_set.size handle)
            | Gen.Iterate _ -> ())
          mutator_ops)
  end;
  (* Iteration driver: every Iterate runs sequentially, instrumented,
     with the instrument's monitor judging it online. *)
  let iter_ops =
    List.filter (function Gen.Iterate _ -> true | _ -> false) plan.Gen.ops
  in
  let records = ref [] in
  if iter_ops <> [] then
    Engine.spawn eng ~name:"vopr-iter" (fun () ->
        List.iteri
          (fun i op ->
            match op with
            | Gen.Iterate { at; semantics; think; limit; repeat } ->
                let now = Engine.now eng in
                if at > now then Engine.sleep eng (at -. now);
                let sem = List.assoc semantics Semantics.all in
                let spec = spec_for plan sem in
                (* [repeat] > 1 re-runs the same iteration back to back:
                   on cache-enabled plans the later passes read leased
                   state warm, which is the path the cache oracle wants
                   to see exercised under faults. *)
                for rep = 1 to max 1 repeat do
                  if rep > 1 then Engine.sleep eng (Float.max 1.0 think);
                  let set =
                    Weak_set.make ~heal_signal:(Fault.signal fault)
                      ~coordinator_server:servers.(0) client sref sem
                  in
                  let iter, inst = Weak_set.elements ~instrument:true set in
                  (* Iterators open lazily, so nothing has been captured
                     yet: the judge sees the whole computation. *)
                  let monitor = Instrument.monitor (Option.get inst) in
                  Monitor.judge monitor ~planted ~bus ~set_id spec;
                  let r =
                    {
                      ir_index = i;
                      ir_semantics = semantics;
                      ir_spec = spec;
                      ir_monitor = monitor;
                      ir_outcome = `Unfinished;
                    }
                  in
                  records := r :: !records;
                  let rec loop yields =
                    if yields >= limit then `Limit
                    else
                      match Iterator.next iter with
                      | Iterator.Yield _ ->
                          if think > 0.0 then Engine.sleep eng think;
                          loop (yields + 1)
                      | Iterator.Done -> `Done
                      | Iterator.Failed e -> `Failed (Client.error_to_string e)
                  in
                  let outcome = loop 0 in
                  Iterator.close iter;
                  let (_ : Figures.verdict) = Monitor.finish monitor ~time:(Engine.now eng) in
                  r.ir_outcome <- outcome
                done
            | _ -> ())
          iter_ops)
  ;
  let run =
    Oracle.run watch ~step_cap (fun () ->
        (* Iterations still open (stuck or cut off by the step cap): close the
           books so the oracle can judge what was recorded. *)
        List.iter
          (fun r ->
            if r.ir_outcome = `Unfinished then
              ignore (Monitor.finish r.ir_monitor ~time:(Engine.now eng) : Figures.verdict))
          !records;
        let iterations =
          List.rev_map
            (fun r ->
              {
                Oracle.index = r.ir_index;
                semantics = r.ir_semantics;
                faulty = plan.Gen.faults <> [];
                spec = r.ir_spec;
                outcome = r.ir_outcome;
                computation = Monitor.computation r.ir_monitor;
                online_violations = Monitor.violations r.ir_monitor;
              })
            !records
        in
        let cache_evidence =
          if not c.Gen.cache then None
          else
            (* How long an Inval can legitimately be in flight: the topology
               diameter's worth of link latency with headroom, plus a constant
               for service time on either end. *)
            let hops =
              match c.Gen.shape with Gen.Clique -> 1 | Gen.Star -> 2 | Gen.Line -> n - 1
            in
            let inval_grace = (float_of_int hops *. c.Gen.latency *. 1.5) +. 1.0 in
            let fault_windows =
              List.filter_map
                (function
                  | Gen.Crash { at; recover_at; _ } -> Some (at, recover_at)
                  | Gen.Cut { at; heal_at; _ } -> Some (at, heal_at)
                  | Gen.Partition { at; heal_at; _ } -> Some (at, heal_at)
                  (* A herd delays invals by queueing, it never severs links —
                     the stale-beyond-lease rule gets no grace window for it. *)
                  | Gen.Herd _ -> None)
                plan.Gen.faults
            in
            Some
              {
                Oracle.hits = List.rev !cache_hits;
                mutations = List.rev !mutation_log;
                lease_ttl = c.Gen.lease_ttl;
                inval_grace;
                fault_windows;
              }
        in
        (* Random VOPR plans do not deploy a replication group; the
           table-driven cluster scenarios (Scenario) build that evidence. *)
        { Oracle.ev_iterations = iterations; ev_cache = cache_evidence; ev_repl = None })
  in
  (* One post-run trigger for the whole verdict (the first issue names
     the incident); mid-run violations already dumped with hot rings, and
     the debounce keeps this from double-dumping the same incident. *)
  (match (flight, run.Oracle.issues) with
  | None, _ | _, [] -> ()
  | Some flight, issue :: _ ->
      Flight.trigger flight ~time:(Engine.now eng)
        (Flight.Oracle_verdict
           { category = Oracle.category issue; detail = Oracle.describe issue }));
  ( {
      plan;
      digest = run.Oracle.digest;
      events = run.Oracle.events;
      steps = run.Oracle.steps;
      issues = run.Oracle.issues;
      iterations = run.Oracle.evidence.Oracle.ev_iterations;
      step_cap;
      planted;
    },
    match flight with Some f -> Flight.dumps f | None -> [] )

let execute ?(step_cap = default_step_cap) ?(planted = Planted.none) plan =
  fst (run_plan ~record:false ~step_cap ~planted plan)

(* Runs are deterministic, so the seed is the black box: re-execute the
   plan under the run's own step cap and planted bugs with the recorder
   attached, and refuse dumps from a replay that simulated anything
   else. *)
let blackbox r =
  let got, dumps = run_plan ~record:true ~step_cap:r.step_cap ~planted:r.planted r.plan in
  if got.digest <> r.digest || got.events <> r.events then
    failwith
      (Printf.sprintf
         "Vopr.Runner.blackbox: replay of seed %Ld diverged: digest %s over %d events, \
          expected %s over %d"
         r.plan.Gen.seed got.digest got.events r.digest r.events);
  dumps

let sweep ?step_cap ?planted ?(progress = fun _ _ -> ()) seeds =
  List.map
    (fun seed ->
      let r = execute ?step_cap ?planted (Gen.generate seed) in
      progress seed r;
      (seed, r))
    seeds

(* ------------------------------------------------------------------ *)
(* Repro bundles                                                      *)
(* ------------------------------------------------------------------ *)

type bundle = {
  b_plan : Gen.plan;
  b_planted : Planted.t;
  b_step_cap : int;
  b_digest : string;
  b_events : int;
  b_issues : Oracle.issue list;
  b_blackbox : string list;
}

let bundle_of_result r =
  {
    b_plan = r.plan;
    b_planted = r.planted;
    b_step_cap = r.step_cap;
    b_digest = r.digest;
    b_events = r.events;
    b_issues = r.issues;
    b_blackbox = List.map (fun d -> d.Flight.d_json) (blackbox r);
  }

let bundle_version = 2

(* Dumps are embedded as JSON *strings* (escaped), not nested documents,
   so a bundle round-trips them byte-exactly through our writer-less
   JSON reader. *)
let bundle_to_json b =
  Printf.sprintf
    {|{"version":%d,"planted_bug":%b,"planted_cache_bug":%b,"planted_spec_bug":%b,"step_cap":%d,"plan":%s,"digest":"%s","events":%d,"issues":[%s],"blackbox":[%s]}|}
    bundle_version b.b_planted.grow_only_drop b.b_planted.inval_drop b.b_planted.axiom_flip b.b_step_cap
    (Gen.plan_to_json b.b_plan)
    b.b_digest b.b_events
    (String.concat "," (List.map Oracle.issue_to_json b.b_issues))
    (String.concat ","
       (List.map
          (fun d -> Printf.sprintf {|"%s"|} (Event.json_escape d))
          b.b_blackbox))

let ( let* ) = Result.bind

(* Version 1 bundles hold digests of the text chain that preceded the
   binary one, so no replay can match them. *)
let check_version j =
  match Option.bind (Json.member "version" j) Json.to_int with
  | Some v when v = bundle_version -> Ok ()
  | v ->
      Error
        (Printf.sprintf
           "bundle version %s: this build reads version %d, whose digest is of the binary \
            event chain (obs-trace-v2), so an older bundle's digest can never match a replay"
           (Option.fold ~none:"missing" ~some:string_of_int v)
           bundle_version)

let bundle_of_string s =
  match Json.of_string_opt s with
  | None -> Error "malformed JSON"
  | Some j ->
      let* () = check_version j in
      let field k conv = Json.field k conv j in
      let* plan = field "plan" Option.some in
      let* plan = Gen.plan_of_json plan in
      let* digest = field "digest" Json.to_string in
      let* events = field "events" Json.to_int in
      let* issues = field "issues" Json.to_list in
      let* issues = Json.map Oracle.issue_of_json issues in
      let* grow_only_drop = field "planted_bug" Json.to_bool in
      let* inval_drop = field "planted_cache_bug" Json.to_bool in
      let* axiom_flip = field "planted_spec_bug" Json.to_bool in
      let* step_cap = field "step_cap" Json.to_int in
      let* blackbox = field "blackbox" Json.to_list in
      Ok
        {
          b_plan = plan;
          b_planted = { Planted.none with grow_only_drop; inval_drop; axiom_flip };
          b_step_cap = step_cap;
          b_digest = digest;
          b_events = events;
          b_issues = issues;
          b_blackbox = List.filter_map Json.to_string blackbox;
        }

let write_bundle ~path b =
  let oc = open_out path in
  output_string oc (bundle_to_json b);
  output_char oc '\n';
  close_out oc

let read_bundle ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m -> Error m
  | s -> bundle_of_string s

type replay_outcome =
  | Reproduced of result
  | Digest_mismatch of { got : result; expected : string }
  | Verdict_mismatch of result

(* The bundle records the step cap and the planted bugs the run was
   armed with, so a replay in a fresh process reproduces the same binary
   behaviour. *)
let replay b =
  let got = execute ~step_cap:b.b_step_cap ~planted:b.b_planted b.b_plan in
  if got.digest <> b.b_digest || got.events <> b.b_events then
    Digest_mismatch { got; expected = b.b_digest }
  else
    let matches =
      match (b.b_issues, got.issues) with
      | [], [] -> true
      | recorded, now -> Oracle.same_failure recorded now
    in
    if matches then Reproduced got else Verdict_mismatch got
