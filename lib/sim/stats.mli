(** Online statistics accumulators for experiment harnesses. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val total : t -> float
val mean : t -> float

(** Sample standard deviation (0 for fewer than two samples). *)
val stddev : t -> float

(** Smallest/largest sample.  Raise [Invalid_argument] on an empty
    accumulator (they used to return [infinity]/[neg_infinity], which
    silently poisoned downstream arithmetic). *)
val min : t -> float

val max : t -> float

(** [percentile t p] with [p] in \[0,100\], by nearest-rank on the sorted
    samples.  Raises [Invalid_argument] on an empty accumulator. *)
val percentile : t -> float -> float

(** [percentile_linear t p] interpolates linearly between the two
    samples bracketing rank [p/100 * (n-1)], so p95 on small [n] isn't
    just the max sample.  Raises [Invalid_argument] on an empty
    accumulator or [p] outside \[0,100\]. *)
val percentile_linear : t -> float -> float

val median : t -> float

(** A fixed-width-bucket histogram over \[lo, hi). *)
module Histogram : sig
  type h

  val create : lo:float -> hi:float -> buckets:int -> h
  val add : h -> float -> unit

  (** [counts h] includes underflow and overflow as the first and last
    entries of the returned array of length [buckets + 2]. *)
  val counts : h -> int array

  val pp : Format.formatter -> h -> unit
end
