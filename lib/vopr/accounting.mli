(** Run accounting for the oracle's liveness verdicts, shared by
    {!Runner} and {!Scenario}: a bus sink that counts RPC calls and
    completions and tracks which fibers are alive.  The sink emits
    nothing, so attaching it leaves the run digest unchanged. *)

type t

(** [attach eng] attaches the accounting sink to [eng]'s bus. *)
val attach : Weakset_sim.Engine.t -> t

(** RPC calls that never completed (calls minus completions). *)
val unmatched_rpcs : t -> int

(** The engine's crashed fibers as (fiber name, exception text). *)
val engine_crashes : t -> (string * string) list

(** Names of the fibers still alive, sorted; [[]] when the engine has no
    live fibers. *)
val parked_fibers : t -> string list
