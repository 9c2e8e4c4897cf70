(** Immutable snapshot of the network-layer counters of one
    transport/RPC instance.

    The counters themselves live in the engine's
    {!Weakset_obs.Metrics.t} registry (names [net.*] and [rpc.*],
    labelled by transport instance); this module reads them back into a
    flat record so experiments and tests can pattern-match fields
    without knowing registry key syntax. *)

type t = {
  sent : int;             (** messages handed to the transport *)
  delivered : int;        (** messages delivered to a mailbox *)
  dropped_unreachable : int;  (** dropped: no up path at send time *)
  dropped_down : int;     (** dropped: an endpoint was down *)
  dropped_in_flight : int;  (** dropped: destination unreachable at delivery time *)
  dropped_lost : int;       (** dropped: random per-link message loss *)
  rpc_calls : int;
  rpc_ok : int;
  rpc_timeout : int;
  rpc_unreachable : int;
  obs_dropped : int;
      (** flight-recorder ring overwrites (engine-wide
          [obs.flight.dropped], unlabelled) — silent event loss made
          visible *)
  replica_pull_failures : int;
      (** anti-entropy pulls that failed (engine-wide
          [replica.pull_failures], unlabelled) — replica staleness made
          visible; per-node detail is emitted on the bus *)
}

(** Labels identifying one transport instance in the registry. *)
val labels : instance:int -> (string * string) list

(** [snapshot m ~instance] reads the current counter values of transport
    [instance] out of registry [m] (absent counters read as 0). *)
val snapshot : Weakset_obs.Metrics.t -> instance:int -> t
