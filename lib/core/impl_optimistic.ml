module Client = Weakset_store.Client
module Oid = Weakset_store.Oid
module Topology = Weakset_net.Topology
open Impl_common

type state = {
  ctx : ctx;
  read_nearest_replica : bool;
  mutable opened : bool;
  mutable yielded : Oid.Set.t;
  mutable dead : Oid.Set.t; (* members whose contents are permanently gone *)
  mutable pool : Pool.t; (* the last reply's members minus [yielded] and [dead] *)
}

let ensure_open st =
  if not st.opened then begin
    st.opened <- true;
    inst_first st.ctx
  end

(* Choose which membership host to consult this attempt. *)
let membership_host st =
  let c = st.ctx.client in
  let sref = st.ctx.sref in
  if st.read_nearest_replica then Client.nearest_dir_host c sref
  else
    let topo = Client.topology c in
    let me = Client.node c in
    let coord = sref.Weakset_store.Protocol.coordinator in
    if Topology.reachable topo me coord then Some coord
    else
      (* Optimistically settle for any reachable (stale) replica. *)
      List.find_opt
        (fun r -> Topology.reachable topo me r)
        sref.Weakset_store.Protocol.replicas

let next st () =
  ensure_open st;
  inst_started st.ctx;
  let rec attempt ~refresh =
    (* The recorded pre-state must be the one the invocation finally acts
       on, so every retry refreshes the monitor's buffered pre-state. *)
    if refresh then inst_retry st.ctx;
    (* Sample the repair-signal generation before deciding, so a repair
       racing our reads cannot be missed while parking. *)
    let gen = signal_generation st.ctx in
    let block_and_retry () =
      wait_for_change st.ctx ~seen_generation:gen;
      attempt ~refresh:true
    in
    match membership_host st with
    | None -> block_and_retry ()
    | Some host -> (
        match
          Client.dir_read st.ctx.client ~from:host
            ~set_id:st.ctx.sref.Weakset_store.Protocol.set_id
        with
        | Error _ -> block_and_retry ()
        | Ok (version, members) -> (
            st.pool <-
              Pool.refresh st.pool
                ~skip:(fun o -> Oid.Set.mem o st.yielded || Oid.Set.mem o st.dead)
                members;
            (* Linearise at the decisive membership read.  A coordinator
               reply is authoritative, so record exactly what it delivered
               as the pre-state; a replica reply is deliberately stale and
               its gap from the directory is the measured quantity, so
               keep the omniscient capture there. *)
            let coord = st.ctx.sref.Weakset_store.Protocol.coordinator in
            if Weakset_net.Nodeid.equal host coord then
              inst_retry ~version ~linearised:members st.ctx
            else inst_retry st.ctx;
            if Pool.is_empty st.pool then begin
              inst_completed st.ctx Weakset_spec.Sstate.Returns;
              Iterator.Done
            end
            else
              match pick st.ctx st.pool with
              | None ->
                  (* Members exist but none is accessible: block until the
                     failure is repaired — never signal (Figure 6). *)
                  block_and_retry ()
              | Some oid -> (
                  match Client.fetch st.ctx.client oid with
                  | Ok v ->
                      st.yielded <- Oid.Set.add oid st.yielded;
                      Pool.remove st.pool oid;
                      inst_yield st.ctx oid;
                      Iterator.Yield (oid, v)
                  | Error Client.No_such_object ->
                      (* A stale view listed a member whose contents are
                         gone; skip it rather than retry forever. *)
                      st.dead <- Oid.Set.add oid st.dead;
                      Pool.remove st.pool oid;
                      attempt ~refresh:true
                  | Error
                      ( Client.Unreachable | Client.Timeout | Client.No_service
                      | Client.Overloaded | Client.Budget_exhausted ) ->
                      block_and_retry ())))
  in
  attempt ~refresh:false

let open_ ?(read_nearest_replica = false) ctx =
  let st =
    {
      ctx;
      read_nearest_replica;
      opened = false;
      yielded = Oid.Set.empty;
      dead = Oid.Set.empty;
      pool = Pool.empty;
    }
  in
  Iterator.make ~next:(next st)
    ~close:(fun () -> inst_detach ctx)
