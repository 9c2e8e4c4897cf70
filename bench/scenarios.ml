(* World builders and measured iteration runs shared by all experiments.
   Each measurement builds a fresh deterministic world from its seed, so
   every table is exactly reproducible. *)

open Weakset_sim
open Weakset_net
open Weakset_store
open Weakset_core

(* The standard world (see {!Sim_world}): node 0 coordinates, the last
   node is the client, the rest home objects.  Re-exported with its
   fields so experiments read [w.eng], [w.rpc] and so on directly. *)
type world = Sim_world.t = {
  eng : Engine.t;
  topo : Topology.t;
  rpc : Node_server.rpc;
  nodes : Nodeid.t array;
  servers : Node_server.t array;
  fault : Fault.t;
  client : Client.t;
  sref : Protocol.set_ref;
  rng : Rng.t;
  mutable next_num : int;
}

let set_id = Sim_world.set_id

(* [clique_world] — n nodes fully connected with unit latency.  [cache]
   equips the client with a lease cache; [lease_ttl] is what the servers
   grant with leased membership answers. *)
let clique_world ?tag ?(seed = 1) ?(n = 8) ?(ghost_policy = false) ?replica_ixs
    ?replica_interval ?cache ?(lease_ttl = 30.0) ?dir_service ?admission ~size () =
  let eng = Engine.create ~seed:(Int64.of_int seed) () in
  let policy =
    if ghost_policy then Node_server.Defer_removes_while_iterating else Node_server.Immediate
  in
  let w =
    Sim_world.create ~lease_ttl ?dir_service ?admission ~policy ?replica_ixs ?replica_interval
      ?cache ~size eng ~nodes:n ~latency:1.0 ()
  in
  let name =
    (* [tag] distinguishes worlds a sweep builds in a loop (one per rate
       step) whose seed/n/size would otherwise collide in the sinks. *)
    match tag with
    | Some tag -> tag
    | None -> Printf.sprintf "clique_world seed=%d n=%d size=%d" seed n size
  in
  Harness.register_metrics name (Engine.metrics eng);
  Harness.attach_trace name (Engine.bus eng);
  Harness.attach_profile name (Engine.bus eng);
  Harness.attach_slo name (Engine.bus eng);
  Harness.attach_flight name (Engine.bus eng);
  w

(* Make a fresh member object (used by mutator processes). *)
let fresh_member = Sim_world.fresh_member

(* Poisson add/remove traffic against the set from a dedicated mutator
   client on node 1.  [via] (default [Semantics.optimistic]) selects the
   mutation discipline: pass [Semantics.immutable] to make the mutator
   honour the write lock, as every process must under that constraint. *)
let set_mutator ?(via = Semantics.optimistic) ?(start = 0.0) w ~add_rate ~remove_rate ~until =
  let total = add_rate +. remove_rate in
  if total > 0.0 then begin
    let rng = Rng.split w.rng in
    let mclient = Client.with_timeout (Client.create w.rpc w.nodes.(1)) 10_000.0 in
    let handle = Weak_set.make mclient w.sref via in
    Engine.spawn w.eng ~name:"set-mutator" (fun () ->
        if start > 0.0 then Engine.sleep w.eng start;
        let rec loop () =
          Engine.sleep w.eng (Rng.exponential rng ~mean:(1.0 /. total));
          if Engine.now w.eng < until then begin
            (if Rng.float rng total < add_rate then
               ignore (Weak_set.add handle (fresh_member w))
             else
               match Oid.Set.choose_opt (Directory.members (Sim_world.truth w)) with
               | Some victim -> ignore (Weak_set.remove handle victim)
               | None -> ());
            loop ()
          end
        in
        loop ())
  end

(* Exponential crash/repair processes on every object-home node. *)
let home_fault_processes w ~mttf ~mttr ~until =
  let rng = Rng.split w.rng in
  Array.iteri
    (fun i node ->
      if i >= 1 && i <= Array.length w.nodes - 2 then
        Fault.crash_restart_process w.fault ~rng:(Rng.split rng) ~mttf ~mttr ~until node)
    w.nodes

(* ------------------------------------------------------------------ *)
(* Measured runs                                                      *)
(* ------------------------------------------------------------------ *)

type run = {
  yields : int;
  outcome : [ `Done | `Failed of Client.error | `Deadline ];
  first_at : float option; (* relative to iteration start *)
  total : float option;    (* completion time, if terminated *)
  inst : Instrument.t option;
}

(* Iterate the world's set once under [semantics]; [think] is consumer
   think-time between invocations; the engine runs to [deadline]. *)
let run_iteration ?(instrument = false) ?(think = 0.0) ?(deadline = 50_000.0) ?(start_at = 0.0)
    ?(yield_limit = max_int) w semantics =
  let set =
    Weak_set.make ~heal_signal:(Fault.signal w.fault) ~coordinator_server:w.servers.(0) w.client
      w.sref semantics
  in
  let yields = ref 0 in
  let outcome = ref `Deadline in
  let first_at = ref None in
  let total = ref None in
  let inst_ref = ref None in
  Engine.spawn w.eng ~name:"measured-query" (fun () ->
      Engine.sleep w.eng start_at;
      let t0 = Engine.now w.eng in
      let iter, inst = Weak_set.elements ~instrument set in
      inst_ref := inst;
      let rec loop () =
        if !yields >= yield_limit then outcome := `Deadline
        else
          match Iterator.next iter with
          | Iterator.Yield _ ->
              if !first_at = None then first_at := Some (Engine.now w.eng -. t0);
              incr yields;
              if think > 0.0 then Engine.sleep w.eng think;
              loop ()
          | Iterator.Done ->
              outcome := `Done;
              total := Some (Engine.now w.eng -. t0)
          | Iterator.Failed e ->
              outcome := `Failed e;
              total := Some (Engine.now w.eng -. t0)
      in
      loop ();
      Iterator.close iter);
  let (_ : int) = Engine.run ~until:deadline w.eng in
  (match Engine.crashes w.eng with
  | [] -> ()
  | c :: _ ->
      failwith
        (Printf.sprintf "scenario fiber %s crashed: %s" c.Engine.crash_fiber
           (Printexc.to_string c.Engine.crash_exn)));
  { yields = !yields; outcome = !outcome; first_at = !first_at; total = !total; inst = !inst_ref }

(* ------------------------------------------------------------------ *)
(* Staleness metrics from a recorded computation                      *)
(* ------------------------------------------------------------------ *)

type staleness = {
  adds_during : int;
  adds_yielded : int;     (* additions during the run that were yielded *)
  removes_during : int;
  stale_yields : int;     (* yielded elements absent from s_last *)
}

let staleness_of comp =
  let open Weakset_spec in
  match (Computation.first_state comp, Computation.last_state comp) with
  | Some first, Some last ->
      let yielded = Computation.final_yielded comp in
      let adds = ref [] and removes = ref 0 in
      List.iter
        (fun st ->
          if st.Sstate.index > first.Sstate.index && st.Sstate.index < last.Sstate.index then
            match st.Sstate.kind with
            | Sstate.Mutation (Sstate.Madd e) -> adds := e :: !adds
            | Sstate.Mutation (Sstate.Mremove _) -> incr removes
            | Sstate.First | Sstate.Invocation_pre _ | Sstate.Invocation_post _ -> ())
        (Computation.states comp);
      let adds_yielded = List.length (List.filter (fun e -> Elem.Set.mem e yielded) !adds) in
      let stale_yields = Elem.Set.cardinal (Elem.Set.diff yielded last.Sstate.s_value) in
      {
        adds_during = List.length !adds;
        adds_yielded;
        removes_during = !removes;
        stale_yields;
      }
  | _ -> { adds_during = 0; adds_yielded = 0; removes_during = 0; stale_yields = 0 }

let named_semantics =
  [
    ("immutable", Semantics.immutable);
    ("snapshot", Semantics.snapshot);
    ("grow-only", Semantics.grow_only);
    ("optimistic", Semantics.optimistic);
    ("lin", Semantics.lin);
  ]
