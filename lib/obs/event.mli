(** Typed trace events.

    One value of type {!t} is one observable step of a simulated
    computation: a fiber starting or crashing, a message moving through
    the network, an RPC completing, a request-scoped span opening or
    closing, or a specification-level observation of the weak set.  All
    subsystems publish these through a shared {!Bus.t}; sinks (ring
    buffer, JSONL writer, digest) consume the same stream, so a debugger,
    a conformance checker and a determinism check all see one log.

    Events are plain data: no pre-rendered strings (except {!Custom}),
    and every field needed to replay or compare runs is explicit.
    {!to_canonical} is the injective rendering used by {!Digest};
    {!to_json} is the JSONL rendering, and {!of_json} is its exact
    inverse — the offline {!Trace} analyzer depends on that round trip.

    {2 Causal metadata}

    Network and RPC events carry per-node Lamport clocks ([lc]),
    maintained by [Weakset_net.Transport]: every stamped local event
    ticks its node's clock, and a delivery merges the sender's clock
    ([send_lc]) with [max] before ticking, so [e1] happens-before [e2]
    implies [lc e1 < lc e2] whenever both are stamped.  Spans carry a
    [parent] span id, propagated across RPC boundaries, so one user
    request reconstructs as one span {e tree} spanning client, network
    and server. *)

(** Why the transport dropped a message. *)
type drop_reason =
  | Unreachable   (** no up path at send time *)
  | Endpoint_down (** source or destination down at send time *)
  | In_flight     (** destination lost while the message was in flight *)
  | Lost          (** random per-link loss *)

type rpc_outcome = Rpc_ok | Rpc_timeout | Rpc_unreachable

(** Specification-layer element: integer identity plus label, mirroring
    [Weakset_spec.Elem] without depending on it. *)
type elem = { elem_id : int; elem_label : string }

type spec_op = Spec_add of elem | Spec_remove of elem

(** Capture points of the specification monitor, as events. *)
type spec_phase =
  | Phase_first
  | Phase_invocation_start
  | Phase_invocation_retry
  | Phase_returns
  | Phase_fails
  | Phase_suspends of elem
  | Phase_mutation of spec_op

(** Why a fiber's run slice ended (see {!Run_end}). *)
type park =
  | Park_yield           (** rescheduled at the same instant ([sleep 0.0]) *)
  | Park_sleep of float  (** sleeping; the payload is the absolute wake time *)
  | Park_suspend         (** parked on an external resume (ivar, RPC reply) *)
  | Park_done            (** fiber body returned *)
  | Park_crash           (** fiber body raised *)

type alert_severity = Sev_warn | Sev_crit

(** Which pool of the client lease cache an event concerns: directory
    membership entries or immutable object values. *)
type cache_kind = Cache_dir | Cache_obj

type kind =
  | Fiber_spawn of { fid : int; fiber : string }
      (** [fid] is the engine-unique fiber id; [fiber] its display name. *)
  | Run_begin of { fid : int; fiber : string }
      (** the scheduler handed control to fiber [fid]; the slice runs at
          zero virtual duration and ends with a matching {!Run_end} *)
  | Run_end of { fid : int; fiber : string; park : park }
  | Fiber_crash of { fiber : string; exn_text : string }
  | Sched of { at : float }  (** an engine callback was scheduled for [at] *)
  | Fault_node_crash of { node : int }
  | Fault_node_recover of { node : int }
  | Fault_link_cut of { a : int; b : int }
  | Fault_link_heal of { a : int; b : int }
  | Fault_partition
  | Fault_heal_all
  | Net_send of { src : int; dst : int; lc : int }
      (** [lc] is the source node's Lamport clock after the send tick. *)
  | Net_deliver of { src : int; dst : int; sent_at : float; send_lc : int; lc : int }
      (** [send_lc] travelled with the message; [lc] is the destination's
          clock after merging, so [lc > send_lc] always. *)
  | Net_drop of { src : int; dst : int; reason : drop_reason }
  | Rpc_call of { src : int; dst : int; id : int; lc : int; parent : int option }
      (** [parent] is the caller-side span this call belongs to. *)
  | Rpc_done of { src : int; dst : int; id : int; outcome : rpc_outcome; lc : int }
  | Span_start of { span : int; parent : int option; name : string; node : int option }
  | Span_end of { span : int; name : string; node : int option; dur : float }
  | Store_op of { node : int; op : string; parent : int option }
      (** server handled a request; [parent] is the serving span *)
  | Cache_hit of { node : int; ckind : cache_kind; id : int; version : int; age : float }
      (** a lookup was served locally: [id] is the set id ([Cache_dir])
          or object number ([Cache_obj]); [version] is the directory
          version the entry was granted at (0 for objects, which are
          immutable); [age] is virtual time since the lease grant *)
  | Cache_miss of { node : int; ckind : cache_kind; id : int }
  | Cache_inval of { node : int; set_id : int; version : int }
      (** a server callback invalidated the cached membership of
          [set_id]; [version] is the directory version after the
          mutation that broke the lease *)
  | Lease_expire of { node : int; ckind : cache_kind; id : int }
      (** a cached entry was found past its lease and discarded — the
          partition-tolerant fallback when invalidations cannot arrive *)
  | Spec_observe of {
      set_id : int;
      phase : spec_phase;
      s : elem list;           (** value of the set at this state *)
      accessible : elem list;  (** accessible ever-members at this state *)
    }
  | Alert of {
      source : string;    (** emitting monitor, e.g. ["slo"] *)
      op : string;        (** objective identifier, e.g. a span name *)
      severity : alert_severity;
      burn : float;       (** error-budget burn rate at trigger time *)
      window : float;     (** rolling-window length the rate was computed over *)
      detail : string;
    }  (** published by health monitors (see [Slo]) back onto the bus *)
  | Spec_violation of { set_id : int; where : string; message : string }
      (** the online conformance monitor caught a specification violation *)
  | Custom of { label : string; detail : string }  (** free-form entries *)

type t = { seq : int; time : float; kind : kind }

(** Short category of a kind: ["fiber"], ["run"], ["fiber-crash"],
    ["sched"], ["fault"], ["net"], ["rpc"], ["span"], ["store"],
    ["cache"], ["spec"], ["alert"], ["spec-violation"], or the [Custom]
    label. *)
val label : kind -> string

val cache_kind_string : cache_kind -> string

val severity_string : alert_severity -> string

(** {1 Renderings}

    Each format has exactly one writer, which appends to a caller-owned
    buffer without going through [Printf] or [Format]; the [string]
    forms below are thin wrappers over the writers.  A sink that renders
    every event (the {!Digest}, the {!Jsonl} writer, the {!Flight}
    recorder's dumps) keeps one buffer and reuses it. *)

(** [write_canonical b e] appends the injective single-line rendering
    [seq|time|label|detail]: equal canonical strings iff the events are
    equal.  This is the {!Digest}'s input, so its bytes are part of every
    pinned digest.  Float fields are rendered exactly, in hex, byte for
    byte as [Printf.sprintf "%h"] prints them ([0x1.8p+1], [-0x0p+0],
    [0x0.0000000000001p-1022], [infinity], [-nan]). *)
val write_canonical : Buffer.t -> t -> unit

(** [to_canonical e] is the string {!write_canonical} appends. *)
val to_canonical : t -> string

(** Deterministic human-readable payload rendering (no seq/time): the
    last field of {!to_canonical}. *)
val detail : kind -> string

(** [write_json b e] appends one structured JSON object, no trailing
    newline.  Lossless: every field of every constructor is emitted
    (floats as [Printf.sprintf "%.17g"] prints them, which round-trips
    every finite double), and {!of_json} inverts it exactly. *)
val write_json : Buffer.t -> t -> unit

(** [to_json e] is the string {!write_json} appends. *)
val to_json : t -> string

(** Escape a string for inclusion in a JSON string literal, as
    {!write_json} does: double quote, backslash, newline, tab and
    carriage return get their two-character escapes, the other control
    characters [\u00XX].  Returns the string itself when nothing needs
    escaping.  Used by the other JSON writers in this library. *)
val json_escape : string -> string

(** [of_json j] reconstructs the event rendered by {!to_json};
    [Error _] describes the first missing or ill-typed field. *)
val of_json : Json.t -> (t, string) result

(** [of_json_string line] parses one JSONL line and reconstructs the
    event. *)
val of_json_string : string -> (t, string) result

val pp : Format.formatter -> t -> unit

(** A zero event, useful to pre-fill buffers. *)
val dummy : t
