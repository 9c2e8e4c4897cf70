(** Human-readable reports over spec verdicts and computations. *)

(** One-line outcome, e.g. ["immutable-failures: CONFORMS (5 invocations)"]. *)
val summary : Figures.spec -> Computation.t -> Figures.verdict -> string

(** Render the computation as a compact timeline: one line per state with
    the sizes of [s], its reachable part, and [yielded]. *)
val pp_timeline : Format.formatter -> Computation.t -> unit

(** Check a computation against every spec in {!Figures.all_specs} and
    render a conformance matrix line per spec — the tool that makes the
    design space visible, which is how the paper says the specifications
    were used. *)
val conformance_matrix : Computation.t -> (Figures.spec * Figures.verdict) list

val pp_matrix : Format.formatter -> (Figures.spec * Figures.verdict) list -> unit
