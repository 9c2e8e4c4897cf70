module Metrics = Weakset_obs.Metrics

type t = {
  sent : int;
  delivered : int;
  dropped_unreachable : int;
  dropped_down : int;
  dropped_in_flight : int;
  dropped_lost : int;
  rpc_calls : int;
  rpc_ok : int;
  rpc_timeout : int;
  rpc_unreachable : int;
  obs_dropped : int;
  replica_pull_failures : int;
}

let labels ~instance = [ ("transport", string_of_int instance) ]

let snapshot m ~instance =
  let labels = labels ~instance in
  let peek name = Metrics.peek_counter m ~labels name in
  {
    sent = peek "net.sent";
    delivered = peek "net.delivered";
    dropped_unreachable = peek "net.dropped.unreachable";
    dropped_down = peek "net.dropped.down";
    dropped_in_flight = peek "net.dropped.in_flight";
    dropped_lost = peek "net.dropped.lost";
    rpc_calls = peek "rpc.calls";
    rpc_ok = peek "rpc.ok";
    rpc_timeout = peek "rpc.timeout";
    rpc_unreachable = peek "rpc.unreachable";
    (* flight-recorder ring overwrites are engine-wide, not per
       transport: the counter is unlabelled *)
    obs_dropped = Metrics.peek_counter m "obs.flight.dropped";
    (* anti-entropy pull failures are likewise engine-wide: the store
       layer interns one shared cell, per-node detail rides the bus *)
    replica_pull_failures = Metrics.peek_counter m "replica.pull_failures";
  }
