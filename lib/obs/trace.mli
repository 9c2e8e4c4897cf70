(** Offline causal-trace analysis.

    Rebuilds span trees, RPC intervals and per-node Lamport order from a
    recorded event stream — either a live {!Ring} drain or a JSONL file
    written by the bench [--trace-jsonl] sink — then computes critical
    paths with per-phase latency attribution, flags anomalies, and diffs
    two traces by their digest-aligned common prefix.  All renderings
    are deterministic: the same event stream always produces
    byte-identical output. *)

(** {1 JSONL segments}

    A trace file is a sequence of {!Event.to_json} lines, optionally
    partitioned into per-world segments by [{"note":"name"}] lines. *)

type segment = { sname : string; events : Event.t list }

exception Malformed of string
(** Raised (with file:line context) on a line that is neither a valid
    event nor a note. *)

val segments : string -> segment Seq.t
(** The file's segments in order, parsed one per step: a reader holds
    one segment in memory at a time.  Each traversal reopens the file;
    [Sys_error] and {!Malformed} are raised by the step that meets
    them. *)

(** {1 Reconstruction} *)

type span = {
  id : int;
  name : string;
  node : int option;
  parent : int option;
  start_seq : int;
  start_time : float;
  mutable end_time : float option;  (** [None] = never closed *)
  mutable children : int list;  (** child span ids, stream order *)
  mutable rpcs : int list;  (** rpc ids parented here, stream order *)
  mutable ops : string list;  (** server store ops attributed here *)
}

type rpc = {
  rpc_id : int;
  rpc_src : int;
  rpc_dst : int;
  rpc_parent : int option;
  call_time : float;
  mutable done_time : float option;
  mutable outcome : Event.rpc_outcome option;
}

type t

val build : Event.t list -> t
val of_segment : segment -> t

val event_count : t -> int

(** Aggregated cache activity of the trace: hits, misses, wire
    invalidations and lease expiries, split dir/obj where the event
    carries the kind.  All zero when no lease cache ran. *)
type cache_counts = {
  cc_hit_dir : int;
  cc_hit_obj : int;
  cc_miss_dir : int;
  cc_miss_obj : int;
  cc_inval : int;
  cc_expire : int;
}

val cache_counts : t -> cache_counts

val span : t -> int -> span option
val spans : t -> span list  (** all spans, in start order *)

val roots : t -> span list
(** Parentless spans in start order, followed by orphans (spans whose
    parent never appeared — flagged as anomalies but still printable). *)

val rpcs : t -> rpc list
(** All rpcs, by id. *)

val span_dur : span -> float option

(** {1 Anomalies} *)

type anomaly =
  | Unclosed_span of span
  | Orphan_parent of span
  | Unfinished_rpc of rpc
  | Lamport_regression of { node : int; seq : int; lc : int; prev : int }
      (** a node's stamped clock failed to increase monotonically *)
  | Deliver_not_after_send of {
      seq : int;
      src : int;
      dst : int;
      send_lc : int;
      lc : int;
    }  (** a delivery not Lamport-after its send *)
  | Slow_span of { sp : span; dur : float; threshold : float }

val anomalies : ?slow_pct:float -> t -> anomaly list
(** In deterministic order.  [slow_pct] opts into flagging closed spans
    whose duration strictly exceeds that percentile of their own name's
    duration population. *)

val pp_anomaly : Format.formatter -> anomaly -> unit

(** {1 Critical path} *)

type cp_item = {
  cp_name : string;
  cp_id : int;
  cp_start : float;
  cp_end : float;
  cp_self : float;  (** duration not covered by the chosen child *)
}

val critical_path : t -> span -> cp_item list
(** Root-first chain obtained by repeatedly descending into the child
    span that finishes last; the [cp_self] values sum to the root's
    duration, so network/queueing time surfaces as self time of the
    client-side span that was blocked on it.  Empty if [root] never
    closed. *)

(** {1 Rendering} *)

val render_tree : ?times:bool -> ?max_depth:int -> t -> string
(** Span forest with nested rpcs and store ops.  [~times:false] prints
    structure only (no ids or timestamps) — stable across runs with
    different latencies. *)

val render_critpath : t -> string
val render_stats : t -> string
val render_anomalies : ?slow_pct:float -> t -> string

val critpath_summary : t -> string option
(** One line describing the slowest request's critical path, for the
    bench per-experiment report.  [None] if the trace has no closed
    root span. *)

(** {1 Diff} *)

type diff_result =
  | Identical of { events : int; digest : string }
  | Diverged of {
      common_prefix : int;
      prefix_digest : string;
      left : Event.t option;
      right : Event.t option;
    }

(** [diff_events a b] walks the longest common prefix of two streams,
    comparing events by their {!Event.write_binary} bytes (exact: floats
    by their bits), and reports the first divergent pair with the
    digest of the prefix. *)
val diff_events : Event.t list -> Event.t list -> diff_result

(** A {!diff_events} verdict as text: the [identical:] line, or the
    [diverged after N common events] line followed by each side's first
    divergent event as {!Event.to_json} (or [<end of stream>]). *)
val render_diff : left_name:string -> right_name:string -> diff_result -> string
