(** Central metrics registry: labelled counters, gauges and latency
    histograms.

    A registry is created per engine (via {!Bus.create}); components
    intern their instruments once ([counter t ~labels "net.sent"]) and
    bump them on the hot path without allocation.  Instruments are keyed
    by name plus sorted labels, so two components interning the same
    (name, labels) share one cell — this is how [Netstat] snapshots are
    reconstructed from the registry.

    Everything here is deterministic: instance numbers come from a
    per-registry counter, and {!to_json}/{!pp} render entries in sorted
    key order. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

(** Fresh small integer, unique within this registry.  Used to label
    per-component instances ([("transport", "0")]) without global
    state. *)
val fresh_instance : t -> int

(** {1 Counters} *)

val counter : t -> ?labels:(string * string) list -> string -> counter
val inc : ?by:int -> counter -> unit
val value : counter -> int

(** [peek_counter t ?labels name] is the current value, or [0] if the
    counter was never interned. *)
val peek_counter : t -> ?labels:(string * string) list -> string -> int

(** {1 Gauges} *)

val gauge : t -> ?labels:(string * string) list -> string -> gauge
val set_gauge : gauge -> float -> unit

(** {1 Histograms}

    Histograms are bounded: they keep count and sum exactly, plus a
    deterministic fixed-capacity reservoir of samples.  Below
    {!reservoir_capacity} samples percentiles are exact; above it the
    reservoir holds a uniform-by-index decimation of the stream (sample
    [i] kept iff [i mod stride = 0], stride doubling as needed) — a pure
    function of the sample sequence, so seed-identical runs retain
    byte-identical reservoirs.  Memory is O(capacity) regardless of run
    length. *)

(** Maximum samples a histogram retains for percentile estimation. *)
val reservoir_capacity : int

val histogram : t -> ?labels:(string * string) list -> string -> histogram
val observe : histogram -> float -> unit

(** [observe_ex h ~time ?span v] records [v] like {!observe} and
    additionally retains [(v, time, span)] as a bucket exemplar (see
    {!Exemplar}), linking the histogram's tail back to one concrete
    trace. *)
val observe_ex : histogram -> time:float -> ?span:int -> float -> unit

val h_count : histogram -> int
val h_sum : histogram -> float
val h_mean : histogram -> float

(** Number of samples currently retained in the reservoir
    (≤ {!reservoir_capacity}). *)
val h_retained : histogram -> int

(** Linear-interpolation percentile over the retained reservoir (exact
    when fewer than {!reservoir_capacity} samples were observed).
    Raises [Invalid_argument] on an empty histogram. *)
val h_percentile : histogram -> float -> float

(** Total-function variant of {!h_percentile}: [None] when the
    histogram holds no samples (e.g. an intent bucket that received only
    shed, never-latency-recorded traffic), instead of raising. *)
val h_percentile_opt : histogram -> float -> float option

(** {1 Export} *)

(** All instruments as one JSON object, keys sorted, deterministic. *)
val to_json : t -> string

val pp : Format.formatter -> t -> unit
