(** Streaming digest of an event stream.

    Appends each event's binary encoding ({!Event.write_binary}) to a
    pending chunk and chains MD5 over whole chunks: starting from
    [md5 "obs-trace-v2"], [state' = md5(state ^ chunk)] each time a fed
    event leaves at least 4 KiB pending.  {!value} is [md5(state ^
    pending)], computed without consuming the pending bytes, so reading
    it mid-stream never changes the final value.  The final {!value}
    fingerprints the entire ordered stream in O(1) space.  Two runs of
    the deterministic simulator with the same seed must produce
    byte-identical digests — the invariant every fault-injection and
    performance PR asserts against. *)

type t

val create : unit -> t
val feed : t -> Event.t -> unit

(** Number of events fed. *)
val count : t -> int

(** Hex digest of the stream so far. *)
val value : t -> string

(** [sink d] is [feed d], for {!Bus.attach}. *)
val sink : t -> Bus.sink

(** Digest of a complete event list (e.g. from {!Ring.to_list}). *)
val of_events : Event.t list -> string
