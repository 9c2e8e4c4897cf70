module Engine = Weakset_sim.Engine
module Mailbox = Weakset_sim.Mailbox
module Bus = Weakset_obs.Bus
module Event = Weakset_obs.Event
module Metrics = Weakset_obs.Metrics

type 'a envelope = {
  src : Nodeid.t;
  dst : Nodeid.t;
  sent_at : float;
  send_lc : int;
  payload : 'a;
}

module Rng = Weakset_sim.Rng

type 'a t = {
  engine : Engine.t;
  topo : Topology.t;
  instance : int;
  c_sent : Metrics.counter;
  c_delivered : Metrics.counter;
  c_drop_unreachable : Metrics.counter;
  c_drop_down : Metrics.counter;
  c_drop_in_flight : Metrics.counter;
  c_drop_lost : Metrics.counter;
  mailboxes : (int, 'a envelope Mailbox.t) Hashtbl.t;
  clocks : (int, int) Hashtbl.t; (* per-node Lamport clocks *)
  rng : Rng.t; (* loss draws, split off the engine's root stream *)
}

let create engine topo =
  let m = Engine.metrics engine in
  let instance = Metrics.fresh_instance m in
  let labels = Netstat.labels ~instance in
  {
    engine;
    topo;
    instance;
    c_sent = Metrics.counter m ~labels "net.sent";
    c_delivered = Metrics.counter m ~labels "net.delivered";
    c_drop_unreachable = Metrics.counter m ~labels "net.dropped.unreachable";
    c_drop_down = Metrics.counter m ~labels "net.dropped.down";
    c_drop_in_flight = Metrics.counter m ~labels "net.dropped.in_flight";
    c_drop_lost = Metrics.counter m ~labels "net.dropped.lost";
    mailboxes = Hashtbl.create 16;
    clocks = Hashtbl.create 16;
    rng = Rng.split (Engine.rng engine);
  }

let engine t = t.engine
let topology t = t.topo
let instance t = t.instance
let bus t = Engine.bus t.engine
let stats t = Netstat.snapshot (Engine.metrics t.engine) ~instance:t.instance

(* --- Lamport clocks -------------------------------------------------- *)

let lamport_tick t node =
  let i = Nodeid.to_int node in
  let c = Option.value (Hashtbl.find_opt t.clocks i) ~default:0 in
  let c = c + 1 in
  Hashtbl.replace t.clocks i c;
  c

(* Receive rule: clock := max(clock, sender's clock) + 1, so a delivery
   is always Lamport-after both its send and every prior local event. *)
let lamport_merge t node ~received =
  let i = Nodeid.to_int node in
  let c = Option.value (Hashtbl.find_opt t.clocks i) ~default:0 in
  let c = Stdlib.max c received + 1 in
  Hashtbl.replace t.clocks i c;
  c

let mailbox t node =
  let i = Nodeid.to_int node in
  match Hashtbl.find_opt t.mailboxes i with
  | Some mb -> mb
  | None ->
      let mb = Mailbox.create () in
      Hashtbl.replace t.mailboxes i mb;
      mb

let drop t ~src ~dst reason counter =
  Metrics.inc counter;
  Bus.emit (bus t) ~time:(Engine.now t.engine)
    (Event.Net_drop
       { src = Nodeid.to_int src; dst = Nodeid.to_int dst; reason })

let send t ~src ~dst payload =
  Metrics.inc t.c_sent;
  let send_lc = lamport_tick t src in
  Bus.emit (bus t) ~time:(Engine.now t.engine)
    (Event.Net_send { src = Nodeid.to_int src; dst = Nodeid.to_int dst; lc = send_lc });
  if not (Topology.node_up t.topo src && Topology.node_up t.topo dst) then
    drop t ~src ~dst Event.Endpoint_down t.c_drop_down
  else
    match Topology.path_info t.topo src dst with
    | None -> drop t ~src ~dst Event.Unreachable t.c_drop_unreachable
    | Some (_, survival) when survival < 1.0 && Rng.chance t.rng (1.0 -. survival) ->
        drop t ~src ~dst Event.Lost t.c_drop_lost
    | Some (lat, _) ->
        let env = { src; dst; sent_at = Engine.now t.engine; send_lc; payload } in
        Engine.schedule t.engine ~after:lat (fun () ->
            (* The partition may have happened while in flight. *)
            if Topology.node_up t.topo dst && Topology.reachable t.topo src dst then begin
              Metrics.inc t.c_delivered;
              let lc = lamport_merge t dst ~received:env.send_lc in
              Bus.emit (bus t) ~time:(Engine.now t.engine)
                (Event.Net_deliver
                   {
                     src = Nodeid.to_int src;
                     dst = Nodeid.to_int dst;
                     sent_at = env.sent_at;
                     send_lc = env.send_lc;
                     lc;
                   });
              Mailbox.send t.engine (mailbox t dst) env
            end
            else drop t ~src ~dst Event.In_flight t.c_drop_in_flight)
