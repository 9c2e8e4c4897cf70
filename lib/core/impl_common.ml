module Client = Weakset_store.Client
module Oid = Weakset_store.Oid
module Nodeid = Weakset_net.Nodeid
module Topology = Weakset_net.Topology
module Engine = Weakset_sim.Engine
module Signal = Weakset_sim.Signal

type ctx = {
  client : Client.t;
  sref : Weakset_store.Protocol.set_ref;
  instrument : Instrument.t option;
  heal_signal : Signal.t option;
  retry_backoff : float;
  lock_timeout : float;
  max_fetch_attempts : int;
}

let make_ctx ?instrument ?heal_signal ?(retry_backoff = 1.0) ?(lock_timeout = 600.0)
    ?(max_fetch_attempts = 5) client sref =
  { client; sref; instrument; heal_signal; retry_backoff; lock_timeout; max_fetch_attempts }

let engine ctx = Client.engine ctx.client

module Pool = struct
  type t = {
    source : Oid.t list;
    buckets : Oid.t list array; (* indexed by home; each ascending and duplicate-free *)
    mutable size : int;
  }

  let home_ix oid = Nodeid.to_int (Oid.home oid)

  let of_list ~skip source =
    let width = List.fold_left (fun w oid -> max w (home_ix oid + 1)) 0 source in
    let buckets = Array.make width [] in
    let size = ref 0 in
    (* Push in descending order so that each bucket comes out ascending. *)
    List.iter
      (fun oid ->
        if not (skip oid) then begin
          let h = home_ix oid in
          buckets.(h) <- oid :: buckets.(h);
          incr size
        end)
      (List.rev source);
    { source; buckets; size = !size }

  let empty = { source = []; buckets = [||]; size = 0 }
  let refresh t ~skip source = if source == t.source then t else of_list ~skip source
  let is_empty t = t.size = 0
  let elements t = Array.fold_right List.rev_append t.buckets []

  let remove t oid =
    let h = home_ix oid in
    match t.buckets.(h) with
    | first :: rest when Oid.equal first oid ->
        t.buckets.(h) <- rest;
        t.size <- t.size - 1
    | _ -> invalid_arg "Impl_common.Pool.remove: not a pick"
end

let pick ctx (pool : Pool.t) =
  if Pool.is_empty pool then None
  else
    let topo = Client.topology ctx.client in
    let me = Client.node ctx.client in
    (* Homes are visited in ascending order and only a strictly better
       (latency, num) replaces the best, so ties go to the lower home. *)
    let best = ref None in
    Array.iter
      (function
        | [] -> ()
        | oid :: _ -> (
            match Topology.path_latency topo me (Oid.home oid) with
            | None -> ()
            | Some lat -> (
                match !best with
                | Some (b, blat) when not (lat < blat || (lat = blat && Oid.num oid < Oid.num b))
                  ->
                    ()
                | Some _ | None -> best := Some (oid, lat))))
      pool.Pool.buckets;
    Option.map fst !best

let signal_generation ctx =
  match ctx.heal_signal with Some s -> Signal.generation s | None -> 0

let wait_for_change ctx ~seen_generation =
  let eng = engine ctx in
  match ctx.heal_signal with
  | Some s ->
      (* Avoid the lost-wakeup race: only park if nothing changed since the
         caller sampled the generation. *)
      if Signal.generation s = seen_generation then Signal.wait eng s
  | None -> Engine.sleep eng ctx.retry_backoff

let inst_detach ctx = Option.iter Instrument.detach ctx.instrument

(* The reply list becomes a set only for an attached instrument. *)
let inst_first ?version ?linearised ctx =
  Option.iter
    (fun i ->
      Instrument.observe_first ?version ?linearised:(Option.map Oid.Set.of_list linearised) i)
    ctx.instrument

let inst_started ctx = Option.iter Instrument.invocation_started ctx.instrument

let inst_retry ?version ?linearised ctx =
  Option.iter
    (fun i ->
      Instrument.invocation_retry ?version ?linearised:(Option.map Oid.Set.of_list linearised) i)
    ctx.instrument

let inst_completed ctx term =
  Option.iter (fun i -> Instrument.invocation_completed i term) ctx.instrument

let inst_yield ctx oid = inst_completed ctx (Instrument.suspends oid)
