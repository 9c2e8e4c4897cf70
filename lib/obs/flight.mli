(** Black-box flight recorder: bounded capture while attached, dumped only
    when something goes wrong.

    A recorder keeps one lossy {!Ring} of recent events per node (plus a
    global ring for node-less events) and a compact table of in-flight
    spans, so total memory is O(rings × capacity) no matter how long the
    run is.  Attached to a {!Bus} it watches the stream for trouble —
    {!Event.Alert} (SLO burn), {!Event.Spec_violation} (online monitor),
    {!Event.Fault_node_crash} — and external judges (the VOPR oracle)
    can {!trigger} it directly.  Each trigger snapshots every ring, the
    in-flight spans, the metrics registry and the trigger cause into one
    deterministic JSON dump; triggers within [debounce] virtual time of
    the previous dump are counted as suppressed instead, so one incident
    yields one dump.

    Dumps are byte-identical across replays of the same seed: virtual
    time, event sequence numbers and sorted rendering leave no room for
    wall-clock or hash-order noise. *)

type t

(** Why a dump was taken. *)
type cause =
  | Slo_burn of { op : string; severity : string; burn : float }
      (** an {!Event.Alert} latched on the bus *)
  | Monitor_violation of { set_id : int; where : string }
      (** the online spec monitor published {!Event.Spec_violation} *)
  | Node_crash of { node : int }  (** {!Event.Fault_node_crash} *)
  | Oracle_verdict of { category : string; detail : string }
      (** an external judge (VOPR oracle) called {!trigger} *)
  | Manual of string  (** operator- or test-initiated *)

type dump = {
  d_time : float;  (** virtual time of the trigger *)
  d_cause : cause;
  d_json : string;  (** the complete dump document, one line *)
}

(** [create ?capacity ?debounce ?inflight_cap bus] makes a recorder over
    [bus]'s metrics registry and attaches it as the bus sink named
    ["flight"].  [capacity] bounds each per-node ring (default 512);
    [debounce] is the virtual-time window within which repeat triggers
    are suppressed (default 50.0); [inflight_cap] bounds the span table
    (default 4096).  Also interns the ["obs.flight.dropped"] counter so
    ring overwrites are visible in metrics snapshots. *)
val create : ?capacity:int -> ?debounce:float -> ?inflight_cap:int -> Bus.t -> t

(** [trigger t ~time cause] requests a dump, subject to debounce. *)
val trigger : t -> time:float -> cause -> unit

(** Dumps taken so far, oldest first. *)
val dumps : t -> dump list

(** Events overwritten across all rings so far. *)
val dropped_total : t -> int

(** Triggers suppressed by debounce since the last dump. *)
val suppressed : t -> int

(** Short kind tag of a cause: ["slo-burn"], ["spec-violation"],
    ["node-crash"], ["oracle-verdict"] or ["manual"]. *)
val cause_label : cause -> string

(** One-line human rendering of a cause. *)
val cause_describe : cause -> string

(** {1 Reading dumps back}

    The offline half: [weakset_trace blackbox] and tests parse dump
    documents with these. *)

type parsed = {
  p_time : float;
  p_cause_kind : string;
  p_cause_detail : string;
  p_suppressed : int;
  p_dropped : int;  (** total ring overwrites at dump time *)
  p_events : Event.t list;  (** all rings merged, sequence order *)
  p_inflight : (int * string) list;  (** (span id, name), id order *)
  p_metrics : Json.t;  (** the embedded metrics registry snapshot *)
}

(** [parse_dump s] reads a document produced by a trigger; [Error _]
    names the first missing or ill-typed field. *)
val parse_dump : string -> (parsed, string) result

(** [tail_exemplars metrics] extracts every histogram exemplar from a
    metrics snapshot (as embedded in dumps or [--metrics-json] output):
    [(metric key, value, time, span id)] sorted worst-first. *)
val tail_exemplars : Json.t -> (string * float * float * int option) list
