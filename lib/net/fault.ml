module Engine = Weakset_sim.Engine
module Signal = Weakset_sim.Signal
module Rng = Weakset_sim.Rng

(* Windowed faults (scheduled partitions, isolations, random partition
   episodes) do not heal by [Topology.heal_all]: that would end every
   {e other} fault's window too — two overlapping isolations would heal
   each other, and a partition repair would resurrect crashed nodes.
   Instead each window takes a {e hold} on every link it cuts; a link
   heals when its last hold is released, and only back to the state it
   had before the first hold (a link that was already down — e.g. cut by
   a flaky-link process — stays down). *)
type hold = { mutable count : int; was_up : bool }

type t = {
  engine : Engine.t;
  topo : Topology.t;
  signal : Signal.t;
  cuts : (int * int, hold) Hashtbl.t; (* key is ordered pair, lo first *)
}

let create engine topo =
  let signal = Signal.create () in
  Topology.on_change topo (fun () -> Signal.broadcast engine signal);
  { engine; topo; signal; cuts = Hashtbl.create 16 }

let signal t = t.signal

(* Fault events go to the typed bus; the engine's tracer-mirror sink
   renders them back into the legacy "fault" tracer entries. *)
let emit t kind =
  Weakset_obs.Bus.emit (Engine.bus t.engine) ~time:(Engine.now t.engine) kind

let crash_node t n =
  emit t (Weakset_obs.Event.Fault_node_crash { node = Nodeid.to_int n });
  Topology.set_node_up t.topo n false

let recover_node t n =
  emit t (Weakset_obs.Event.Fault_node_recover { node = Nodeid.to_int n });
  Topology.set_node_up t.topo n true

let cut_link t a b =
  emit t
    (Weakset_obs.Event.Fault_link_cut
       { a = Nodeid.to_int a; b = Nodeid.to_int b });
  Topology.set_link_up t.topo a b false

let heal_link t a b =
  emit t
    (Weakset_obs.Event.Fault_link_heal
       { a = Nodeid.to_int a; b = Nodeid.to_int b });
  Topology.set_link_up t.topo a b true

let partition t groups =
  emit t Weakset_obs.Event.Fault_partition;
  Topology.partition t.topo groups

let heal_all t =
  emit t Weakset_obs.Event.Fault_heal_all;
  Hashtbl.reset t.cuts;
  Topology.heal_all t.topo

(* {2 Link holds} *)

let pair a b =
  let a = Nodeid.to_int a and b = Nodeid.to_int b in
  if a < b then (a, b) else (b, a)

let take_cut t (a, b) =
  match Hashtbl.find_opt t.cuts (pair a b) with
  | Some h -> h.count <- h.count + 1
  | None ->
      let was_up = Topology.link_up t.topo a b in
      Hashtbl.replace t.cuts (pair a b) { count = 1; was_up };
      if was_up then cut_link t a b

let release_cut t (a, b) =
  match Hashtbl.find_opt t.cuts (pair a b) with
  | None -> () (* a [heal_all] already reset every hold mid-window *)
  | Some h ->
      h.count <- h.count - 1;
      if h.count <= 0 then begin
        Hashtbl.remove t.cuts (pair a b);
        if h.was_up && Topology.has_link t.topo a b then heal_link t a b
      end

(* Links whose endpoints fall in different groups, in the deterministic
   order of [Topology.nodes] (never the link-table iteration order, whose
   hash order must not leak into traces).  As in [Topology.partition],
   nodes absent from every group form an implicit leftover group. *)
let cross_pairs t groups =
  let group_of = Hashtbl.create 16 in
  List.iteri
    (fun gi members -> List.iter (fun n -> Hashtbl.replace group_of (Nodeid.to_int n) gi) members)
    groups;
  let g n = Hashtbl.find_opt group_of (Nodeid.to_int n) in
  let nodes = Topology.nodes t.topo in
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b ->
          let crosses =
            match (g a, g b) with
            | Some ga, Some gb -> ga <> gb
            | None, None -> false
            | _ -> true
          in
          if Nodeid.to_int a < Nodeid.to_int b && crosses && Topology.has_link t.topo a b then
            Some (a, b)
          else None)
        nodes)
    nodes

let schedule_crash t ~at n =
  let delay = Float.max 0.0 (at -. Engine.now t.engine) in
  Engine.schedule t.engine ~after:delay (fun () -> crash_node t n)

let schedule_recover t ~at n =
  let delay = Float.max 0.0 (at -. Engine.now t.engine) in
  Engine.schedule t.engine ~after:delay (fun () -> recover_node t n)

let schedule_partition t ~at ~heal_at groups =
  if heal_at <= at then
    invalid_arg
      (Printf.sprintf "Fault.schedule_partition: heal_at (%g) must be after at (%g)" heal_at at);
  let d1 = Float.max 0.0 (at -. Engine.now t.engine) in
  let d2 = Float.max 0.0 (heal_at -. Engine.now t.engine) in
  let held = ref [] in
  Engine.schedule t.engine ~after:d1 (fun () ->
      emit t Weakset_obs.Event.Fault_partition;
      let pairs = cross_pairs t groups in
      List.iter (take_cut t) pairs;
      held := pairs);
  Engine.schedule t.engine ~after:d2 (fun () ->
      List.iter (release_cut t) !held;
      held := [])

(* Named-node helpers: the scenario DSL (and hand tests) speak about a
   {e named} replica — "stop r2 for 20 time units" — rather than about a
   random split of the population.  Windows are validated exactly like
   [schedule_partition]: an inverted window would silently install a
   never-healed fault. *)

let stop_node t ~at ~recover_at n =
  if recover_at <= at then
    invalid_arg
      (Printf.sprintf "Fault.stop_node: recover_at (%g) must be after at (%g)" recover_at at);
  schedule_crash t ~at n;
  schedule_recover t ~at:recover_at n

let heal_node t ~at n = schedule_recover t ~at n

let isolate_node t ~at ~heal_at n =
  if heal_at <= at then
    invalid_arg
      (Printf.sprintf "Fault.isolate_node: heal_at (%g) must be after at (%g)" heal_at at);
  let d1 = Float.max 0.0 (at -. Engine.now t.engine) in
  let d2 = Float.max 0.0 (heal_at -. Engine.now t.engine) in
  let held = ref [] in
  Engine.schedule t.engine ~after:d1 (fun () ->
      emit t Weakset_obs.Event.Fault_partition;
      let rest = List.filter (fun m -> not (Nodeid.equal m n)) (Topology.nodes t.topo) in
      let pairs = cross_pairs t [ [ n ]; rest ] in
      List.iter (take_cut t) pairs;
      held := pairs);
  Engine.schedule t.engine ~after:d2 (fun () ->
      List.iter (release_cut t) !held;
      held := [])

let crash_restart_process t ~rng ~mttf ~mttr ~until node =
  Engine.spawn t.engine ~name:(Printf.sprintf "faultproc-%s" (Nodeid.to_string node)) (fun () ->
      let rec loop () =
        if Engine.now t.engine < until then begin
          Engine.sleep t.engine (Rng.exponential rng ~mean:mttf);
          if Engine.now t.engine < until then begin
            crash_node t node;
            Engine.sleep t.engine (Rng.exponential rng ~mean:mttr);
            recover_node t node;
            loop ()
          end
        end
      in
      loop ();
      if not (Topology.node_up t.topo node) then recover_node t node)

(* Random recurring partitions: the same Exp(mttf)/Exp(mttr) shape as
   [crash_restart_process], so generated fault schedules (Vopr) and
   hand-written scenarios drive partitions through one code path.  Each
   episode splits the current node population in two uniformly random
   non-empty groups. *)
let random_partition_process t ~rng ~mttf ~mttr ~until =
  Engine.spawn t.engine ~name:"faultproc-partition" (fun () ->
      let held = ref [] in
      let heal_episode () =
        List.iter (release_cut t) !held;
        held := []
      in
      let rec loop () =
        if Engine.now t.engine < until then begin
          Engine.sleep t.engine (Rng.exponential rng ~mean:mttf);
          if Engine.now t.engine < until then begin
            let nodes = Array.of_list (Topology.nodes t.topo) in
            let n = Array.length nodes in
            if n >= 2 then begin
              Rng.shuffle rng nodes;
              let cut = 1 + Rng.int rng (n - 1) in
              emit t Weakset_obs.Event.Fault_partition;
              let pairs =
                cross_pairs t
                  [
                    Array.to_list (Array.sub nodes 0 cut);
                    Array.to_list (Array.sub nodes cut (n - cut));
                  ]
              in
              List.iter (take_cut t) pairs;
              held := pairs;
              Engine.sleep t.engine (Rng.exponential rng ~mean:mttr);
              heal_episode ()
            end;
            loop ()
          end
        end
      in
      loop ();
      heal_episode ())

let flaky_link_process t ~rng ~mttf ~mttr ~until a b =
  Engine.spawn t.engine
    ~name:(Printf.sprintf "faultproc-%s-%s" (Nodeid.to_string a) (Nodeid.to_string b))
    (fun () ->
      let rec loop () =
        if Engine.now t.engine < until then begin
          Engine.sleep t.engine (Rng.exponential rng ~mean:mttf);
          if Engine.now t.engine < until then begin
            cut_link t a b;
            Engine.sleep t.engine (Rng.exponential rng ~mean:mttr);
            heal_link t a b;
            loop ()
          end
        end
      in
      loop ();
      if not (Topology.link_up t.topo a b) then heal_link t a b)
