(* The experiment suite: every figure of the paper re-run as an executable
   conformance scenario (F1..F6), every qualitative performance/consistency
   claim as a parameter sweep (E1..E7), and three ablations (A1..A3).
   DESIGN.md §4 is the index; EXPERIMENTS.md records paper-vs-measured. *)

open Weakset_sim
open Weakset_net
open Weakset_store
open Weakset_core
open Scenarios

(* The figures' churn: a fresh member added at t=6 and the seventh
   member removed at t=9, each by its own client on node 1. *)
let schedule_churn w =
  let at t (f : Client.t -> unit) =
    let mclient = Client.create w.rpc w.nodes.(1) in
    Engine.schedule w.eng ~after:t (fun () ->
        Engine.spawn w.eng ~name:"scheduled-mutation" (fun () -> f mclient))
  in
  at 6.0 (fun c -> ignore (Client.dir_add c w.sref (fresh_member w)));
  at 9.0 (fun c ->
      let members = Oid.Set.elements (Directory.members (Sim_world.truth w)) in
      match List.nth_opt members (min 6 (List.length members - 1)) with
      | Some victim -> ignore (Client.dir_remove c w.sref victim)
      | None -> ())

(* Partition the client+coordinator away from every object home. *)
let partition_homes w =
  let n = Array.length w.nodes in
  let homes = Array.to_list (Array.sub w.nodes 1 (n - 2)) in
  Fault.partition w.fault [ [ w.nodes.(0); w.nodes.(n - 1) ]; homes ]

let outcome_cell = function
  | `Done -> "returns"
  | `Failed e -> "fails(" ^ Client.error_to_string e ^ ")"
  | `Deadline -> "blocked"

let check_inst run spec =
  match run.inst with
  | Some inst -> Harness.verdict_cell (Instrument.check inst spec)
  | None -> "-"

(* ------------------------------------------------------------------ *)
(* F1..F6: figure conformance scenarios                               *)
(* ------------------------------------------------------------------ *)

let figures ?obs () =
  Harness.section ~id:"F1-F6" ~title:"figure-by-figure conformance of the four implementations"
    ~paper:"Figures 1, 3, 4, 5, 6 (the design points themselves)";
  let open Weakset_spec.Figures in
  let rows = ref [] in
  let verdict run spec = spec.Weakset_spec.Visibility.name ^ ": " ^ check_inst run spec in
  let row ?think name scenario w sem spec alt_spec =
    let run = run_iteration ~instrument:true ?think w sem in
    rows :=
      [
        name;
        scenario;
        string_of_int run.yields;
        outcome_cell run.outcome;
        verdict run spec;
        verdict run alt_spec;
      ]
      :: !rows
  in

  (* F1: immutable, no failures. *)
  let w = clique_world ?obs ~seed:101 ~size:8 () in
  row "F1 immutable" "quiet network" w Semantics.immutable fig1 fig3;

  (* F3: immutable, partition mid-run -> pessimistic failure. *)
  let w = clique_world ?obs ~seed:103 ~size:8 () in
  Engine.schedule w.eng ~after:8.0 (fun () -> partition_homes w);
  row "F3 immutable+fail" "partition at t=8" w Semantics.immutable fig3 fig1;

  (* F4: snapshot with concurrent add & remove. *)
  let w = clique_world ?obs ~seed:104 ~size:8 () in
  schedule_churn w;
  row ~think:1.0 "F4 snapshot" "add@6, remove@9" w Semantics.snapshot fig4 fig5;

  (* F5: grow-only with ghosts, concurrent add & (deferred) remove. *)
  let w = clique_world ?obs ~seed:105 ~ghost_policy:true ~size:8 () in
  schedule_churn w;
  row ~think:1.0 "F5 grow-only" "add@6, remove@9 (ghosted)" w Semantics.grow_only fig5 fig4;

  (* F6: optimistic through mutation and a healed partition. *)
  let w = clique_world ?obs ~seed:106 ~size:8 () in
  schedule_churn w;
  Engine.schedule w.eng ~after:12.0 (fun () -> partition_homes w);
  Engine.schedule w.eng ~after:60.0 (fun () -> Fault.heal_all w.fault);
  row ~think:1.0 "F6 optimistic" "mutations + partition healed@60" w Semantics.optimistic fig6
    fig3;

  Harness.table
    ~headers:[ "figure"; "scenario"; "yields"; "outcome"; "own spec"; "cross-check" ]
    (List.rev !rows);
  Harness.note
    "Each implementation conforms to its own figure; the cross-check column shows a";
  Harness.note "neighbouring spec rejecting the same run, so the design points are distinct."

(* ------------------------------------------------------------------ *)
(* E1: time-to-first-element and completion time                      *)
(* ------------------------------------------------------------------ *)

let e1_latency ?obs () =
  Harness.section ~id:"E1" ~title:"latency: time-to-first-element / completion vs set size"
    ~paper:"§1.1 (early partial results), §3.4 (cheap weak semantics)";
  let sizes = [ 8; 16; 32; 64; 128; 256 ] in
  let rows =
    List.map
      (fun size ->
        let cells =
          List.map
            (fun (_, sem) ->
              let w =
                clique_world ?obs ~seed:(200 + size) ~ghost_policy:(sem = Semantics.grow_only)
                  ~size ()
              in
              let r = run_iteration w sem in
              Printf.sprintf "%s/%s" (Harness.fopt r.first_at) (Harness.fopt r.total))
            named_semantics
        in
        (* Dynamic sets: same collection, 8 parallel fetchers. *)
        let w = clique_world ?obs ~seed:(200 + size) ~size () in
        let first = ref None and fin = ref None in
        Engine.spawn w.eng (fun () ->
            let pf = Weakset_dynamic.Prefetch.start ~parallelism:8 w.client w.sref in
            let (_ : (Oid.t * Svalue.t) list) = Weakset_dynamic.Prefetch.drain pf in
            let st = Weakset_dynamic.Prefetch.stats pf in
            first := st.Weakset_dynamic.Prefetch.first_result_at;
            fin := st.Weakset_dynamic.Prefetch.finished_at);
        let (_ : int) = Engine.run ~until:1.0e6 w.eng in
        string_of_int size
        :: (cells @ [ Printf.sprintf "%s/%s" (Harness.fopt !first) (Harness.fopt !fin) ]))
      sizes
  in
  Harness.table
    ~headers:
      [ "size"; "immutable"; "snapshot"; "grow-only"; "optimistic"; "lin"; "dynamic(p=8)" ]
    rows;
  Harness.note "cells are first-yield/completion in virtual time units";
  Harness.note
    "first yield is O(1) for every semantics; completion is O(n); the parallel dynamic-set";
  Harness.note "fetch divides completion by the fan-out, as §1.1 claims."

(* ------------------------------------------------------------------ *)
(* E2: writer blocking under concurrent iteration                     *)
(* ------------------------------------------------------------------ *)

let e2_locking ?obs () =
  Harness.section ~id:"E2" ~title:"mutator stall time while an iterator runs"
    ~paper:"§3.1 (locking cost of the immutable semantics)";
  let rows =
    List.map
      (fun (name, sem) ->
        let w = clique_world ?obs ~seed:300 ~ghost_policy:(sem = Semantics.grow_only) ~size:24 () in
        (* Writer: five adds through the same-semantics handle (so the
           immutable handle takes the write lock), spaced 3 time units. *)
        let wclient = Client.create w.rpc w.nodes.(1) in
        let whandle =
          Weak_set.make ~coordinator_server:w.servers.(0)
            (Client.with_timeout wclient 5_000.0)
            w.sref sem
        in
        let stalls = Stats.create () in
        Engine.spawn w.eng ~name:"writer" (fun () ->
            Engine.sleep w.eng 2.0;
            for _ = 1 to 5 do
              let t0 = Engine.now w.eng in
              (match Weak_set.add whandle (fresh_member w) with Ok () | Error _ -> ());
              Stats.add stalls (Engine.now w.eng -. t0);
              Engine.sleep w.eng 3.0
            done);
        let r = run_iteration ~think:1.0 w sem in
        [
          name;
          Harness.f2 (Stats.mean stalls);
          Harness.f2 (Stats.max stalls);
          Harness.fopt r.total;
          string_of_int r.yields;
        ])
      named_semantics
  in
  Harness.table ~headers:[ "semantics"; "mean add stall"; "max add stall"; "iter total"; "yields" ]
    rows;
  Harness.note
    "under the immutable semantics a writer stalls for (nearly) the whole iteration; the";
  Harness.note "weak semantics admit writers at RPC cost (~4 time units round trip + queueing)."

(* ------------------------------------------------------------------ *)
(* E3: availability under node failures                               *)
(* ------------------------------------------------------------------ *)

let e3_availability ?obs () =
  Harness.section ~id:"E3" ~title:"query availability vs failure rate"
    ~paper:"§3 (pessimistic fails vs optimistic blocks and finishes)";
  let trials = 8 in
  let deadline = 3_000.0 in
  let mttfs = [ 400.0; 100.0; 40.0 ] in
  let rows =
    List.concat_map
      (fun mttf ->
        List.map
          (fun (name, sem) ->
            let done_ = ref 0 and failed = ref 0 and blocked = ref 0 in
            let totals = Stats.create () in
            for trial = 1 to trials do
              let w =
                clique_world ?obs
                  ~seed:(1000 + (trial * 17) + int_of_float mttf)
                  ~ghost_policy:(sem = Semantics.grow_only) ~size:16 ()
              in
              home_fault_processes w ~mttf ~mttr:15.0 ~until:deadline;
              let r = run_iteration ~deadline w sem in
              match r.outcome with
              | `Done ->
                  incr done_;
                  Option.iter (Stats.add totals) r.total
              | `Failed _ -> incr failed
              | `Deadline -> incr blocked
            done;
            [
              Printf.sprintf "%.0f" mttf;
              name;
              Harness.pct !done_ trials;
              Harness.pct !failed trials;
              Harness.pct !blocked trials;
              (if Stats.count totals = 0 then "-" else Harness.f1 (Stats.mean totals));
            ])
          named_semantics)
      mttfs
  in
  Harness.table
    ~headers:[ "MTTF"; "semantics"; "completed"; "failed"; "blocked@ddl"; "mean time (done)" ]
    rows;
  Harness.note "MTTR = 15; per-home crash/repair processes; 8 trials per cell.";
  Harness.note
    "as failures become frequent the pessimistic semantics fail more queries, while the";
  Harness.note "optimistic iterator never signals failure - it finishes late or is still blocked."

(* ------------------------------------------------------------------ *)
(* E4: consistency - what each semantics observes under mutation      *)
(* ------------------------------------------------------------------ *)

let e4_staleness ?obs () =
  Harness.section ~id:"E4" ~title:"observed mutations vs semantics, mutation-rate sweep"
    ~paper:"§3.2 (lost mutations), §3.3 (sees additions), §3.4 (may yield deleted)";
  let rates = [ 0.05; 0.2 ] in
  let rows =
    List.concat_map
      (fun rate ->
        List.map
          (fun (name, sem) ->
            let w =
              clique_world ?obs
                ~seed:(2000 + int_of_float (rate *. 1000.))
                ~ghost_policy:(sem = Semantics.grow_only) ~size:24 ()
            in
            set_mutator ~via:sem w ~add_rate:rate ~remove_rate:(rate /. 2.0) ~until:5_000.0;
            let r = run_iteration ~instrument:true ~think:1.0 ~deadline:8_000.0 w sem in
            let st = run_staleness r in
            let own = Semantics.window_spec_of sem in
            [
              Printf.sprintf "%.2f" rate;
              name;
              Printf.sprintf "%d/%d" st.adds_yielded st.adds_during;
              string_of_int st.removes_during;
              string_of_int st.stale_yields;
              outcome_cell r.outcome;
              check_inst r own;
            ])
          named_semantics)
      rates
  in
  Harness.table
    ~headers:
      [ "add rate"; "semantics"; "adds seen/total"; "removes"; "stale yields"; "outcome"; "own spec" ]
    rows;
  Harness.note "mutator adds at the given rate and removes at half of it during the run.";
  Harness.note
    "snapshot sees 0 concurrent adds (lost mutations); grow-only and optimistic see them;";
  Harness.note
    "grow-only's removes are deferred (ghosts), so its stale-yield count reflects members";
  Harness.note "removed only after the run; optimistic may yield then lose an element.";
  Harness.note
    "a rare VIOLATES(1) on optimistic at high rates is the honest residual of checking an";
  Harness.note
    "atomic-invocation spec against a networked implementation: a mutation that lands while";
  Harness.note "the decisive membership read is in flight falls outside any linearisation."

(* ------------------------------------------------------------------ *)
(* E5: dynamic-sets ls - fan-out and claim-order sweep                *)
(* ------------------------------------------------------------------ *)

let e5_dynamic_ls () =
  Harness.section ~id:"E5" ~title:"weak ls: parallel fetch and closest-first ordering"
    ~paper:"§1.1 (parallel fetch, closer files first, partial results)";
  let build seed =
    let eng = Engine.create ~seed:(Int64.of_int seed) () in
    let rng = Rng.split (Engine.rng eng) in
    let topo = Topology.create () in
    let nodes = Topology.wan topo ~rng ~nodes:16 ~extra_links:8 in
    let rpc : Node_server.rpc = Rpc.create eng topo in
    let servers = Array.map (fun n -> Node_server.create rpc n) nodes in
    let dfs = Weakset_dynamic.Dfs.create rpc servers in
    let dir = Weakset_dynamic.Fpath.of_string "/data" in
    let homes = List.init 14 (fun i -> i + 2) in
    let (_ : Oid.t array) =
      Weakset_dynamic.Workload.spread_tree dfs ~rng ~dir ~coordinator:1 ~files:64 ~homes
        ~mean_size:2000 ()
    in
    let client = Client.with_timeout (Weakset_dynamic.Dfs.client_at dfs 0) 500.0 in
    (eng, topo, nodes, dfs, dir, client)
  in
  let measure ?(kill = 0) ~parallelism ~order () =
    let eng, topo, nodes, dfs, dir, client = build 77 in
    for i = 0 to kill - 1 do
      Topology.set_node_up topo nodes.(2 + i) false
    done;
    let first = ref None and fin = ref None and got = ref 0 and missed = ref 0 in
    Engine.spawn eng (fun () ->
        let pf =
          Weakset_dynamic.Prefetch.start ~parallelism ~order client
            (Weakset_dynamic.Dfs.dir_sref dfs dir)
        in
        let results = Weakset_dynamic.Prefetch.drain pf in
        let st = Weakset_dynamic.Prefetch.stats pf in
        got := List.length results;
        missed := st.Weakset_dynamic.Prefetch.missed;
        first := st.Weakset_dynamic.Prefetch.first_result_at;
        fin := st.Weakset_dynamic.Prefetch.finished_at);
    let (_ : int) = Engine.run ~until:1.0e7 eng in
    (!first, !fin, !got, !missed)
  in
  let rows =
    List.map
      (fun p ->
        let first, fin, got, missed = measure ~parallelism:p ~order:`Closest_first () in
        let first_b, fin_b, _, _ = measure ~parallelism:p ~order:`By_id () in
        [
          string_of_int p;
          Harness.fopt first;
          Harness.fopt fin;
          Printf.sprintf "%d/%d" got (got + missed);
          Harness.fopt first_b;
          Harness.fopt fin_b;
        ])
      [ 1; 2; 4; 8; 16 ]
  in
  Harness.table
    ~headers:
      [ "fan-out"; "first (closest)"; "done (closest)"; "fetched"; "first (by-id)"; "done (by-id)" ]
    rows;
  let first, fin, got, missed = measure ~kill:3 ~parallelism:8 ~order:`Closest_first () in
  Harness.note "with 3 content servers crashed (fan-out 8, closest-first):";
  Harness.note "  first=%s done=%s fetched=%d missed=%d - partial results, no failure"
    (Harness.fopt first) (Harness.fopt fin) got missed;
  Harness.note
    "closest-first cuts time-to-first-result; fan-out divides completion time (§1.1)."

(* ------------------------------------------------------------------ *)
(* E6: grow-only termination race                                     *)
(* ------------------------------------------------------------------ *)

let e6_growth_race ?obs () =
  Harness.section ~id:"E6" ~title:"grow-only non-termination when production outpaces consumption"
    ~paper:"§3.3 ('an iterator satisfying this specification may never terminate')";
  let deadline = 2_000.0 in
  let think = 2.0 in
  (* Consumption interval ~ think + fetch round trip (~2.05+2) per yield. *)
  let rows =
    List.map
      (fun add_interval ->
        let w = clique_world ?obs ~seed:4000 ~ghost_policy:true ~size:10 () in
        let rng = Rng.split w.rng in
        let mclient = Client.create w.rpc w.nodes.(1) in
        Engine.spawn w.eng ~name:"producer" (fun () ->
            let rec loop () =
              Engine.sleep w.eng (Rng.exponential rng ~mean:add_interval);
              if Engine.now w.eng < deadline *. 0.9 then begin
                ignore (Client.dir_add mclient w.sref (fresh_member w));
                loop ()
              end
            in
            loop ());
        let r = run_iteration ~think ~deadline w Semantics.grow_only in
        let backlog = Directory.size (Sim_world.truth w) - r.yields in
        [
          Harness.f1 add_interval;
          Harness.f2 (6.0 /. add_interval);
          string_of_int r.yields;
          outcome_cell r.outcome;
          string_of_int (max 0 backlog);
        ])
      [ 24.0; 12.0; 6.0; 3.0; 1.5 ]
  in
  Harness.table
    ~headers:[ "add interval"; "prod/cons ratio"; "yields"; "outcome"; "backlog at end" ]
    rows;
  Harness.note "consumer spends ~6 time units per element (2 RPC + think 2).";
  Harness.note
    "below ratio 1 the iterator returns; above it, it is still running at the deadline with";
  Harness.note "a growing backlog - the non-termination the paper warns about."

(* ------------------------------------------------------------------ *)
(* E8: message cost of each semantics                                 *)
(* ------------------------------------------------------------------ *)

let e8_message_cost ?obs () =
  Harness.section ~id:"E8" ~title:"network messages per completed iteration"
    ~paper:"§3 (implementation cost of each design point; 'distributed locking', snapshots)";
  let sizes = [ 16; 64 ] in
  let rows =
    List.concat_map
      (fun size ->
        List.map
          (fun (name, sem) ->
            let w =
              clique_world ?obs ~seed:(9500 + size) ~ghost_policy:(sem = Semantics.grow_only)
                ~size ()
            in
            let before = sent_messages w in
            let r = run_iteration w sem in
            let sent = sent_messages w - before in
            [
              string_of_int size;
              name;
              string_of_int r.yields;
              string_of_int sent;
              Printf.sprintf "%.1f" (float_of_int sent /. float_of_int (max 1 r.yields));
            ])
          named_semantics)
      sizes
  in
  Harness.table ~headers:[ "size"; "semantics"; "yields"; "messages"; "msgs/element" ] rows;
  Harness.note
    "first-vintage semantics cost ~2 msgs/element (one fetch round trip, one amortised";
  Harness.note
    "membership read); current-vintage semantics re-read the membership each invocation";
  Harness.note
    "(~4 msgs/element); the immutable point adds lock acquire/release round trips on top."

(* ------------------------------------------------------------------ *)
(* E9: lease cache — cold vs warm re-iteration                        *)
(* ------------------------------------------------------------------ *)

let e9_cache_warm ?obs ?(lease_ttl = 600.0) ?(warm_iters = 2) () =
  Harness.section ~id:"E9" ~title:"lease cache: cold vs warm re-iteration"
    ~paper:"§3 ('cached data may be stale'): Coda-style callback leases on the fetch path";
  let measure label w =
    List.init (1 + warm_iters) (fun pass ->
      let before = sent_messages w in
      let cb = Option.map Cache.stats (Client.lease_cache w.client) in
      let r = run_iteration w Semantics.optimistic in
      let sent = sent_messages w - before in
      let hits, misses =
        match (cb, Option.map Cache.stats (Client.lease_cache w.client)) with
        | Some b, Some a ->
            ( Printf.sprintf "%d/%d" (a.Cache.hit_dir - b.Cache.hit_dir)
                (a.Cache.hit_obj - b.Cache.hit_obj),
              Printf.sprintf "%d/%d" (a.Cache.miss_dir - b.Cache.miss_dir)
                (a.Cache.miss_obj - b.Cache.miss_obj) )
        | _ -> ("-", "-")
      in
      [
        label;
        (if pass = 0 then "cold" else Printf.sprintf "warm %d" pass);
        string_of_int r.yields;
        string_of_int sent;
        hits;
        misses;
      ])
  in
  let wc = clique_world ?obs ~seed:9100 ~size:24 () in
  let ww =
    clique_world ?obs ~seed:9100 ~cache:{ Cache.capacity = 256; ttl = lease_ttl } ~lease_ttl
      ~size:24 ()
  in
  Harness.table
    ~headers:[ "client"; "pass"; "yields"; "RPC msgs"; "hits dir/obj"; "misses dir/obj" ]
    (measure "uncached" wc @ measure "cached" ww);
  Harness.note
    "same seed, one cold plus %d warm pass(es) over a 24-member set (optimistic semantics)."
    warm_iters;
  Harness.note
    "the cold pass fills the cache at full RPC cost; warm passes serve memberships and";
  Harness.note "values from leases and coalesce any residual misses into per-home batches."

(* ------------------------------------------------------------------ *)
(* E12: all five design points head to head                           *)
(* ------------------------------------------------------------------ *)

(* True when every cell carries a verdict and every verdict conforms:
   the exit status of [--e12]. *)
let e12_five_semantics ?obs () =
  Harness.section ~id:"E12" ~title:"all five design points head to head, quiet and churning"
    ~paper:"Figures 1-6 plus the linearizable snapshot iterator (arXiv:1705.08885)";
  let sizes = [ 16; 64 ] in
  let workloads = [ ("quiet", 0.0); ("churn", 0.1) ] in
  let verdicts = ref [] in
  let rows =
    List.concat_map
      (fun (wname, add_rate) ->
        List.concat_map
          (fun size ->
            List.map
              (fun (name, sem) ->
                let w =
                  clique_world ?obs ~seed:(9000 + size)
                    ~ghost_policy:(sem = Semantics.grow_only) ~size ()
                in
                if add_rate > 0.0 then
                  set_mutator ~via:sem w ~add_rate ~remove_rate:(add_rate /. 2.0)
                    ~until:5_000.0;
                let before = sent_messages w in
                let r = run_iteration ~instrument:true ~think:1.0 ~deadline:8_000.0 w sem in
                let sent = sent_messages w - before in
                let st = run_staleness r in
                (* Every run is judged by the one parametric checker, through
                   the spec appropriate to its workload: the exact figure on a
                   quiet fault-free world, the §3.4 window relaxation once
                   concurrent mutation makes bounded staleness legitimate —
                   and always the lin spec for the linearizable point, which
                   no amount of churn is allowed to weaken. *)
                let spec =
                  if add_rate > 0.0 then Semantics.window_spec_of sem
                  else Semantics.spec_of ~no_failures:true sem
                in
                let verdict = Option.map (fun inst -> Instrument.check inst spec) r.inst in
                verdicts := verdict :: !verdicts;
                [
                  wname;
                  string_of_int size;
                  name;
                  string_of_int r.yields;
                  Harness.fopt r.first_at;
                  Harness.fopt r.total;
                  string_of_int sent;
                  string_of_int st.stale_yields;
                  outcome_cell r.outcome;
                  spec.Weakset_spec.Visibility.name ^ ": "
                  ^ Option.fold ~none:"-" ~some:Harness.verdict_cell verdict;
                ])
              named_semantics)
          sizes)
      workloads
  in
  Harness.table
    ~headers:
      [
        "workload"; "size"; "semantics"; "yields"; "first"; "total"; "msgs"; "stale"; "outcome";
        "spec verdict";
      ]
    rows;
  Harness.note
    "one table, one checker: every row's verdict comes from the same parametric";
  Harness.note
    "visibility engine, configured per design point.  lin's 'stale' yields are";
  Harness.note
    "members removed after its pin - snapshot staleness, never inconsistency: its";
  Harness.note
    "yields always equal one directory state.  The weak points trade anchored";
  Harness.note
    "consistency for fewer messages and the mid-run adds/removes they observe,";
  Harness.note "which is the paper's design-space argument end to end.";
  !verdicts <> []
  && List.for_all (function Some Weakset_spec.Figures.Conforms -> true | _ -> false) !verdicts

(* ------------------------------------------------------------------ *)
(* E13: open-loop saturation sweep with knee-of-curve detection       *)
(* ------------------------------------------------------------------ *)

module Load = Weakset_load

(* Intent-latency SLO judged over the request spans (virtual units). *)
let e13_slo = 25.0

(* An open-loop ladder: one curve of stepped offered rates, each rung a
   fresh seeded world with an SLO tracker over the request spans and an
   open-loop pool driving [workload]'s requests.  Latency is
   coordinated-omission-safe: each request's span starts at its
   *intended* arrival tick, so the latency the SLO and histograms see
   includes any time the request spent waiting for a free client.  What
   differs between E13's design points and E13b's admission
   configurations is data: the rates and seeds, the world options, the
   op mix and the count behind the table's extra column. *)
type ladder = {
  id : string;  (* world tags and crash messages *)
  label : string;
  rates : float list;
  seed_base : int;  (* rung [i] builds its world from seed [seed_base + i] *)
  arrival : float -> Load.Arrival.process;
  build : Observer.t option -> tag:string -> seed:int -> world;
  (* Set up once the world is built, before the SLO tracker attaches;
     returns the body of each request. *)
  workload : world -> duration:float -> client:int -> parent:int -> (unit, string) result;
  record_error_latency : bool;
  extra : world -> Weakset_obs.Slo.t -> int;
}

let ladder_step ?obs l ~clients ~duration rate_ix rate =
  let seed = l.seed_base + rate_ix in
  let w = l.build obs ~tag:(Printf.sprintf "%s %s rate=%g seed=%d" l.id l.label rate seed) ~seed in
  let exec = l.workload w ~duration in
  let bus = Engine.bus w.eng in
  let objective =
    { Weakset_obs.Slo.op = "load.request"; max_latency = e13_slo; target = 0.9; window = 50.0 }
  in
  let slo = Weakset_obs.Slo.create ~bus [ objective ] in
  Weakset_obs.Bus.attach bus ~name:"load-slo" (Weakset_obs.Slo.sink slo);
  let outcome =
    Load.Openloop.run ~eng:w.eng ~rng:(Rng.split w.rng) ~slo ~tick_every:5.0
      ~record_error_latency:l.record_error_latency ~exec
      {
        Load.Openloop.clients;
        arrival = l.arrival rate;
        duration;
        drain = duration /. 2.0;
        span_name = "load.request";
      }
  in
  fail_on_crash ~what:l.id w;
  (Load.Sweep.point_of_outcome outcome, l.extra w slo)

(* The curve and each rung's extra count. *)
let ladder_curve ?obs ?(clients = 32) ?(duration = 400.0) l =
  let steps = List.mapi (ladder_step ?obs l ~clients ~duration) l.rates in
  let points = List.map fst steps in
  ( { Load.Sweep.label = l.label; points; knee = Load.Sweep.detect_knee ~slo:e13_slo points },
    List.map snd steps )

(* One row per rung: the curve's label, [cells] of the rung and its
   extra count, and the knee column rendered by [knee] from the curve's
   extra counts. *)
let ladder_table ~headers ~cells ~knee curves =
  Harness.table ~headers
    (List.concat_map
       (fun ((c : Load.Sweep.curve), extras) ->
         List.mapi
           (fun i (p, extra) ->
             (c.Load.Sweep.label :: cells p extra)
             @ [ (if c.Load.Sweep.knee = Some i then knee extras else "") ])
           (List.combine c.Load.Sweep.points extras))
       curves)

let latency_cells (p : Load.Sweep.point) =
  List.map Harness.fopt Load.Sweep.[ p.p50_intent; p.p99_intent; p.p999_intent; p.p999_send ]

(* An operation's outcome as an open-loop request's. *)
let as_unit = function Ok _ -> Ok () | Error e -> Error (Client.error_to_string e)

let write_curves ~seed curves path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Load.Sweep.curves_to_json ~seed ~slo:e13_slo curves));
  Printf.printf "  curves written to %s\n" path

(* Stepped offered rates.  Capacity of the default design point (32
   serial clients, ~20-40 virtual units per request) sits under one
   request per unit, so the ladder starts deep in the keeping-up regime
   and ends well past saturation. *)
let e13_rates = [ 0.05; 0.1; 0.2; 0.4; 0.8; 1.6; 3.2 ]

(* One design point of the sweep: background churn and requests drawn
   from a weighted op mix (ls-everything / add / remove, the same shape
   [set_mutator] offers); the extra column counts SLO burn-rate alerts. *)
let design_point ~seed_base ~label ~sem ~bursty =
  let workload w ~duration =
    set_mutator ~via:sem w ~add_rate:0.02 ~remove_rate:0.01
      ~until:(duration +. (duration /. 2.0));
    let mix_rng = Rng.split w.rng in
    let yield_limit = 64 in
    let run_ls set =
      let iter, _ = Weak_set.elements set in
      let rec loop n =
        if n >= yield_limit then Error "yield-limit"
        else
          match Iterator.next iter with
          | Iterator.Yield _ -> loop (n + 1)
          | Iterator.Done -> Ok ()
          | Iterator.Failed e -> Error (Client.error_to_string e)
      in
      let r = loop 0 in
      Iterator.close iter;
      r
    in
    fun ~client:_ ~parent ->
      let c = Client.with_span_parent w.client parent in
      let set = Weak_set.make ~heal_signal:(Fault.signal w.fault) c w.sref sem in
      let u = Rng.float mix_rng 1.0 in
      if u < 0.8 then run_ls set
      else if u < 0.93 then as_unit (Weak_set.add set (fresh_member w))
      else
        match Oid.Set.choose_opt (Directory.members (Sim_world.truth w)) with
        | Some victim -> as_unit (Weak_set.remove set victim)
        | None -> Ok ()
  in
  {
    id = "e13";
    label;
    rates = e13_rates;
    seed_base;
    arrival =
      (fun rate ->
        if bursty then Load.Arrival.Bursty { rate; burst_mean = 8.0 }
        else Load.Arrival.Poisson { rate });
    build =
      (fun obs ~tag ~seed ->
        clique_world ?obs ~tag ~seed ~ghost_policy:(sem = Semantics.grow_only) ~size:8 ());
    workload;
    record_error_latency = true;
    extra = (fun _ slo -> Weakset_obs.Slo.alert_count slo);
  }

(* The design points the sweep compares: all five semantics under
   Poisson arrivals, plus the optimistic point under x8 bursts (the
   thundering-herd shape) to show what batching does to the knee.
   [seed_base] spaces the per-step seeds so every (curve, rate) pair
   builds a world nothing else in the suite reuses. *)
let e13_design_points =
  List.mapi
    (fun i (label, sem) -> design_point ~seed_base:(13_000 + (100 * i)) ~label ~sem ~bursty:false)
    named_semantics
  @ [
      design_point ~seed_base:13_900 ~label:"optimistic/bursty-x8" ~sem:Semantics.optimistic
        ~bursty:true;
    ]

(* True when every design point finds its knee: the exit status of
   [--e13]. *)
let e13_open_loop ?obs ?clients ?duration ?curves_json () =
  Harness.section ~id:"E13"
    ~title:"open-loop saturation: throughput-latency surfaces and the knee"
    ~paper:"\xc2\xa75 (performance discussion) under explicit overload";
  let curves = List.map (ladder_curve ?obs ?clients ?duration) e13_design_points in
  ladder_table
    ~headers:
      [
        "design point"; "offered"; "realized"; "achieved"; "done"; "err"; "abandoned";
        "p50i"; "p99i"; "p999i"; "p999s"; "knee";
      ]
    ~cells:(fun p _ ->
      Load.Sweep.
        [
          Harness.f2 p.offered;
          Harness.f2 p.realized;
          Harness.f2 p.achieved;
          string_of_int p.completed;
          string_of_int p.errors;
          string_of_int p.abandoned;
        ]
      @ latency_cells p)
    ~knee:(fun alerts ->
      Printf.sprintf "KNEE (%d slo alerts)" (List.fold_left ( + ) 0 alerts))
    curves;
  Option.iter (write_curves ~seed:13_000 (List.map fst curves)) curves_json;
  Harness.note
    "latency columns are virtual units from the *intended* arrival tick (i) vs the";
  Harness.note
    "actual send (s): past the knee the two surfaces tear apart, which is exactly the";
  Harness.note
    "tail a closed-loop (coordinated-omission) harness would have hidden.  The knee is";
  Harness.note
    "the first step where achieved throughput diverges from offered or p99 intent";
  Harness.note
    "latency blows through 4x the SLO; render its anatomy with weakset_trace saturation.";
  List.for_all (fun ((c : Load.Sweep.curve), _) -> c.Load.Sweep.knee <> None) curves

(* ------------------------------------------------------------------ *)
(* E13b: admission control on/off under the same saturation ladder    *)
(* ------------------------------------------------------------------ *)

(* A deliberately narrow design point that isolates the admission
   question: direct directory ops (no iterators) against one
   coordinator whose directory service time is 1 unit, so server
   capacity is exactly 1 req/unit and the knee must sit at offered
   rate 1.0.  Both configurations serialise through the server's
   admission CPU queue — "off" is a queue with effectively infinite
   capacity (nothing ever sheds), "on" sheds by op class at
   [e13_adm_capacity].  Capacity 8 keeps a shed's [retry_after] hint (~
   queue-drain time, <= capacity service units) small enough that a
   retried-then-served request still beats the admission-off queue tail.
   The ladder deliberately skips the 1.0-2.0 near-knee band: sub-knee
   rungs sit at utilisation <= 0.15, far below where the queue plausibly
   reaches the Read threshold of capacity/2, and saturated rungs at
   >= 2x capacity, where knee detection is unambiguous at every smoke
   size. *)
let e13_adm_rates = [ 0.05; 0.15; 2.0; 3.2 ]
let e13_adm_capacity = 8
let e13_adm_dir_service = 1.0
let e13_adm_seed_base = 13_950

(* One configuration of the comparison.  Both use the same seed at each
   rung, so the arrival schedule and op mix are identical and capacity
   is the only difference; the extra column counts sheds. *)
let admission_config admission =
  let capacity = if admission then e13_adm_capacity else 1_000_000 in
  let workload w ~duration:_ =
    (* One retry-budgeted client shared by the pool: the token bucket is
       per-client state, so a storm of sheds drains one shared budget the
       way the model intends.  The budget is only exercised when sheds
       happen, so carrying it on both configurations keeps the curves'
       only difference the capacity. *)
    let retry =
      {
        Client.retry_rng = Rng.split w.rng;
        retry_burst = 16;
        retry_refill = 2.0;
        retry_backoff = 0.5;
        retry_backoff_max = 2.0;
        retry_attempts = 2;
      }
    in
    let rclient =
      Client.with_timeout
        (Client.create ~retry w.rpc w.nodes.(Array.length w.nodes - 1))
        1000.0
    in
    let mix_rng = Rng.split w.rng in
    fun ~client:_ ~parent ->
      let c = Client.with_span_parent rclient parent in
      if Rng.float mix_rng 1.0 < 0.9 then
        as_unit (Client.dir_read_direct c ~from:w.nodes.(0) ~set_id)
      else as_unit (Client.dir_add c w.sref (fresh_member w))
  in
  let sheds w _ =
    let m = Engine.metrics w.eng in
    Array.fold_left
      (fun acc node ->
        List.fold_left
          (fun acc cls ->
            acc
            + Weakset_obs.Metrics.peek_counter m
                ~labels:[ ("class", cls); ("node", Weakset_net.Nodeid.to_string node) ]
                "srv.shed")
          acc [ "control"; "iter"; "mutate"; "read" ])
      0 w.nodes
  in
  {
    id = "e13b";
    label = (if admission then "admission-on" else "admission-off");
    rates = e13_adm_rates;
    seed_base = e13_adm_seed_base;
    arrival = (fun rate -> Load.Arrival.Poisson { rate });
    build =
      (fun obs ~tag ~seed ->
        clique_world ?obs ~tag ~seed ~size:8 ~dir_service:e13_adm_dir_service
          ~admission:{ Node_server.capacity } ());
    workload;
    (* A shed completes in near-zero time; recording it would report a
       phantom low percentile at exactly the saturated step.  Only
       served requests feed the surfaces. *)
    record_error_latency = false;
    extra = sheds;
  }

let e13_admission ?obs ?clients ?duration ?curves_json () =
  Harness.section ~id:"E13b"
    ~title:"overload survival: admission control and retry budgets at saturation"
    ~paper:"\xc2\xa75 (performance discussion) under explicit overload";
  let ((off, off_sheds) as off_curve) =
    ladder_curve ?obs ?clients ?duration (admission_config false)
  in
  let ((on_, on_sheds) as on_curve) =
    ladder_curve ?obs ?clients ?duration (admission_config true)
  in
  ladder_table
    ~headers:
      [
        "config"; "offered"; "achieved"; "served"; "err"; "shed";
        "p50i"; "p99i"; "p999i"; "p999s"; "knee";
      ]
    ~cells:(fun p shed ->
      Load.Sweep.
        [
          Harness.f2 p.offered;
          Harness.f2 p.achieved;
          string_of_int p.completed;
          string_of_int p.errors;
          string_of_int shed;
        ]
      @ latency_cells p)
    ~knee:(fun _ -> "KNEE")
    [ off_curve; on_curve ];
  (* The contract this experiment exists to enforce, asserted here: a
     broken contract raises, so [--e13 --admission] exits nonzero. *)
  let fail fmt = Printf.ksprintf failwith fmt in
  let knee_off =
    match off.Load.Sweep.knee with
    | Some i -> i
    | None -> fail "e13b: admission-off curve has no knee inside the ladder"
  in
  (match on_.Load.Sweep.knee with
  | Some i when i < knee_off ->
      fail "e13b: admission-on knee (step %d) earlier than admission-off (step %d)" i
        knee_off
  | _ -> ());
  List.iteri
    (fun i shed ->
      if i < knee_off && shed > 0 then
        fail "e13b: %d shed(s) below the knee (step %d, offered %g)" shed i
          (List.nth e13_adm_rates i))
    on_sheds;
  List.iter
    (fun shed -> if shed > 0 then fail "e13b: admission-off configuration shed %d" shed)
    off_sheds;
  (* The tail comparison runs at the deepest rung, not the knee rung:
     right at the knee a retried-then-served request still carries its
     [retry_after] waits, while the off-curve backlog is only starting
     to build — deep saturation is where shedding must pay off, and it
     must pay off on both surfaces. *)
  let deepest (c : Load.Sweep.curve) what sel =
    match Option.bind (List.nth_opt c.Load.Sweep.points (List.length e13_adm_rates - 1)) sel with
    | Some v -> v
    | None -> fail "e13b: %s has no %s samples at the saturated step" c.Load.Sweep.label what
  in
  let intent p = p.Load.Sweep.p999_intent and send p = p.Load.Sweep.p999_send in
  let p999i_off = deepest off "intent" intent and p999i_on = deepest on_ "intent" intent in
  let p999s_off = deepest off "send" send and p999s_on = deepest on_ "send" send in
  if p999i_on >= p999i_off then
    fail "e13b: p999 intent not improved at saturation (on %.2f vs off %.2f)" p999i_on
      p999i_off;
  if p999s_on >= p999s_off then
    fail "e13b: p999 send not improved at saturation (on %.2f vs off %.2f)" p999s_on
      p999s_off;
  Printf.printf
    "  ADMISSION PASS: knee %s >= %s, p999 intent %.2f < %.2f, p999 send %.2f < %.2f, 0 \
     sheds below knee\n"
    (match on_.Load.Sweep.knee with
    | Some i -> Printf.sprintf "step %d" i
    | None -> "past ladder")
    (Printf.sprintf "step %d" knee_off)
    p999i_on p999i_off p999s_on p999s_off;
  Option.iter (write_curves ~seed:e13_adm_seed_base [ off; on_ ]) curves_json;
  Harness.note
    "same seeds, same arrival schedules, same op mix: capacity is the only difference.";
  Harness.note
    "past the knee the admission-off tail is the queue (p999 intent tracks the backlog),";
  Harness.note
    "while admission-on converts queueing into Overloaded sheds the retry budget paces;";
  Harness.note
    "served-request latency stays pinned near the shed threshold.  Render the overload";
  Harness.note "anatomy with weakset_trace saturation --overload."

(* ------------------------------------------------------------------ *)
(* E7: the Garcia-Molina/Wiederhold classification, observed          *)
(* ------------------------------------------------------------------ *)

let e7_gmw ?obs () =
  Harness.section ~id:"E7" ~title:"query-taxonomy classification of the four semantics"
    ~paper:"§4 (Garcia-Molina & Wiederhold read-only-query taxonomy)";
  let rows =
    List.map
      (fun (name, sem) ->
        (* One mutating run to gather observational evidence. *)
        let w =
          clique_world ?obs ~seed:5000 ~ghost_policy:(sem = Semantics.grow_only) ~size:12 ()
        in
        set_mutator ~via:sem w ~add_rate:0.15 ~remove_rate:0.05 ~until:2_000.0;
        let r = run_iteration ~instrument:true ~think:1.0 ~deadline:5_000.0 w sem in
        let st = run_staleness r in
        let g = Gmw.classify sem in
        [
          name;
          Gmw.consistency_to_string g.Gmw.consistency;
          Gmw.currency_to_string g.Gmw.currency;
          (if st.adds_during = 0 then "none possible" else Harness.pct st.adds_yielded st.adds_during);
          string_of_int st.stale_yields;
        ])
      named_semantics
  in
  Harness.table
    ~headers:[ "semantics"; "consistency (§4)"; "currency (§4)"; "concurrent adds seen"; "stale yields" ]
    rows;
  Harness.note
    "immutable = strong/first-vintage (its write lock kept adds_during at 0); snapshot =";
  Harness.note "weak/first-vintage; grow-only and optimistic = no-consistency/first-bound."

(* ------------------------------------------------------------------ *)
(* A1: stale replica reads vs literal Figure 6                        *)
(* ------------------------------------------------------------------ *)

let a1_replica_staleness ?obs () =
  Harness.section ~id:"A1" ~title:"ablation: optimistic reads from a stale nearby replica"
    ~paper:"§3 ('cached data may be stale') and the Figure 6 vs §3.4-prose gap";
  let rows =
    List.map
      (fun interval ->
        let w =
          clique_world ?obs ~seed:(6000 + int_of_float interval) ~replica_ixs:[ 2 ]
            ~replica_interval:interval ~size:48 ()
        in
        (* Make the replica strictly closer to the client than the
           coordinator so nearest-host reads choose it. *)
        Topology.add_link w.topo w.nodes.(Array.length w.nodes - 1) w.nodes.(2) ~latency:0.2;
        (* Start iterating only after the replica has completed a sync,
           and start mutating only once the run is underway so removed
           members were all in s within the run's window. *)
        let warmup = (interval *. 2.0) +. 10.0 in
        set_mutator ~start:warmup w ~add_rate:0.15 ~remove_rate:0.15 ~until:20_000.0;
        let r =
          run_iteration ~instrument:true ~think:1.0 ~deadline:30_000.0 ~start_at:warmup w
            Semantics.optimistic_stale
        in
        let st = run_staleness r in
        [
          Harness.f1 interval;
          string_of_int r.yields;
          string_of_int st.stale_yields;
          check_inst r Weakset_spec.Figures.fig6;
          check_inst r Weakset_spec.Figures.fig6_window;
        ])
      [ 1.0; 10.0; 40.0; 160.0 ]
  in
  Harness.table
    ~headers:
      [ "anti-entropy interval"; "yields"; "stale yields"; "literal Figure 6"; "§3.4 window spec" ]
    rows;
  Harness.note
    "with a fresh replica the run satisfies literal Figure 6; staleness breaks it in two";
  Harness.note
    "ways: yielding already-removed members (tolerated by the §3.4 window spec) and";
  Harness.note
    "returning while un-yielded members exist - a completeness loss neither spec accepts.";
  Harness.note
    "the spec pair thus separates the tolerable and intolerable costs of stale replicas."

(* ------------------------------------------------------------------ *)
(* A2: ghost copies vs immediate removal for grow-only                *)
(* ------------------------------------------------------------------ *)

let a2_ghosts ?obs () =
  Harness.section ~id:"A2" ~title:"ablation: ghost copies vs immediate removal under grow-only"
    ~paper:"§3.3 ('create copies of any deleted objects ... garbage collect these ghosts')";
  let variants =
    [ ("ghost copies", true, Semantics.grow_only);
      (* register:false pathway: current-vintage pessimistic without
         Iter_open, over a directory that removes immediately. *)
      ("no ghosts", false,
       { Semantics.grow_only with Semantics.mutability = Semantics.Mutable_any }) ]
  in
  let rows =
    List.concat_map
      (fun remove_rate ->
        List.map
          (fun (vname, ghost, sem) ->
            let w =
              clique_world ?obs ~seed:(7000 + int_of_float (remove_rate *. 100.))
                ~ghost_policy:ghost
                ~size:24 ()
            in
            set_mutator w ~add_rate:0.05 ~remove_rate ~until:5_000.0;
            let r = run_iteration ~instrument:true ~think:1.0 ~deadline:8_000.0 w sem in
            [
              Printf.sprintf "%.2f" remove_rate;
              vname;
              string_of_int r.yields;
              outcome_cell r.outcome;
              check_inst r Weakset_spec.Figures.fig5;
            ])
          variants)
      [ 0.05; 0.2 ]
  in
  Harness.table
    ~headers:[ "remove rate"; "variant"; "yields"; "outcome"; "Figure 5 verdict" ]
    rows;
  Harness.note
    "ghost copies keep the set growing-only during the run, so Figure 5 holds; without";
  Harness.note "them concurrent removals shrink the set and the constraint clause is violated."

(* ------------------------------------------------------------------ *)
(* A3: quorum membership reads                                        *)
(* ------------------------------------------------------------------ *)

let a3_quorum ?obs () =
  Harness.section ~id:"A3" ~title:"ablation: quorum membership reads vs coordinator-only"
    ~paper:"§3.3 ('one could easily specify the iterator to use a quorum ... scheme')";
  let rows =
    List.map
      (fun crashed ->
        let w =
          clique_world ?obs ~seed:(8000 + crashed) ~replica_ixs:[ 2; 3 ] ~replica_interval:3.0
            ~size:12 ()
        in
        let coord_ok = ref "-" and quorum_ok = ref "-" in
        Engine.spawn w.eng (fun () ->
            (* Let replicas sync, then crash [crashed] membership hosts,
               coordinator first. *)
            Engine.sleep w.eng 10.0;
            let hosts = [| w.nodes.(0); w.nodes.(2); w.nodes.(3) |] in
            for i = 0 to crashed - 1 do
              Topology.set_node_up w.topo hosts.(i) false
            done;
            (match Client.dir_read w.client ~from:w.sref.Protocol.coordinator ~set_id with
            | Ok (_, m) -> coord_ok := Printf.sprintf "ok (%d members)" (List.length m)
            | Error e -> coord_ok := "fails (" ^ Client.error_to_string e ^ ")");
            match Quorum.read w.client w.sref with
            | Ok (_, m) -> quorum_ok := Printf.sprintf "ok (%d members)" (List.length m)
            | Error e -> quorum_ok := "fails (" ^ Client.error_to_string e ^ ")");
        let (_ : int) = Engine.run ~until:10_000.0 w.eng in
        [ string_of_int crashed; !coord_ok; !quorum_ok ])
      [ 0; 1; 2 ]
  in
  Harness.table ~headers:[ "hosts crashed"; "coordinator read"; "quorum read (2 of 3)" ] rows;
  Harness.note
    "the quorum read survives the coordinator's crash (1 of 3 hosts down) and fails only";
  Harness.note "when a majority is gone - the alternative failure-handling point of §3.3."

(* ------------------------------------------------------------------ *)
(* A4: strict vs per-run constraint scope                             *)
(* ------------------------------------------------------------------ *)

let a4_relaxed_constraints ?obs () =
  Harness.section ~id:"A4" ~title:"ablation: strict figures vs the §3.1/§3.3 per-run relaxations"
    ~paper:"§3.1, §3.3 ('mutations may occur between different uses of the iterator')";
  (* The scenario: the monitor attaches (handle opened), a mutation lands
     BEFORE the first invocation, and the set stays quiet during the run.
     The strict figures reject the whole computation; the per-run variants
     accept. *)
  let run sem =
    let w = clique_world ?obs ~seed:9000 ~ghost_policy:(sem = Semantics.grow_only) ~size:8 () in
    let set =
      Weak_set.make ~heal_signal:(Fault.signal w.fault) ~coordinator_server:w.servers.(0)
        w.client w.sref sem
    in
    let result = ref None in
    Engine.spawn w.eng (fun () ->
        let iter, inst = Weak_set.elements ~instrument:true set in
        (* Mutation between handle open and first invocation: add a fresh
           member, then remove it again - the computation records both, so
           strict immutability AND strict grow-only see a violation. *)
        let mclient = Client.create w.rpc w.nodes.(1) in
        let transient = fresh_member w in
        ignore (Client.dir_add mclient w.sref transient);
        ignore (Client.dir_remove mclient w.sref transient);
        Engine.sleep w.eng 5.0;
        let (_ : (Oid.t * Svalue.t) list * _) = Iterator.drain iter in
        result := inst);
    let (_ : int) = Engine.run ~until:10_000.0 w.eng in
    Option.get !result
  in
  let row name sem strict relaxed =
    let inst = run sem in
    let cell spec = Harness.verdict_cell (Instrument.check inst spec) in
    [ name; cell strict; cell relaxed ]
  in
  let open Weakset_spec.Figures in
  let rows =
    [
      row "immutable" Semantics.immutable fig3 fig3_relaxed;
      row "grow-only" Semantics.grow_only fig5 fig5_relaxed;
    ]
  in
  Harness.table ~headers:[ "semantics"; "strict figure"; "per-run relaxation" ] rows;
  Harness.note
    "a mutation between opening the handle and the first call violates the printed";
  Harness.note
    "figures (their constraint ranges over ALL states) but not the relaxed variants the";
  Harness.note "paper suggests, which only constrain states within one run of the iterator."

let run_all ?obs () =
  figures ?obs ();
  e1_latency ?obs ();
  e2_locking ?obs ();
  e3_availability ?obs ();
  e4_staleness ?obs ();
  e5_dynamic_ls ();
  e6_growth_race ?obs ();
  e7_gmw ?obs ();
  e8_message_cost ?obs ();
  e9_cache_warm ?obs ();
  (* The full suite reports these verdicts in its tables; only the
     single-experiment runs turn them into an exit status. *)
  ignore (e12_five_semantics ?obs () : bool);
  ignore (e13_open_loop ?obs () : bool);
  a1_replica_staleness ?obs ();
  a2_ghosts ?obs ();
  a3_quorum ?obs ();
  a4_relaxed_constraints ?obs ()
