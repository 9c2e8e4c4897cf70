module Client = Weakset_store.Client
module Oid = Weakset_store.Oid
module Version = Weakset_store.Version
open Impl_common

(* The linearizable snapshot iterator (arXiv:1705.08885).

   The first call pins the directory at one version with a single
   authoritative uncached read; every subsequent invocation re-derives
   the pinned membership with a snapshot-at-version read
   ([Dir_read_at]), so concurrent mutation — which advances the
   directory past the pinned version — can never change what this
   iterator yields.  No locks are taken anywhere: the coordinator's
   mutation log below the pinned version is immutable, which is all the
   read needs.  Failures are handled like Figure 6's optimistic
   iterators, by blocking until the fault heals — the pinned members'
   contents outlive directory removal (removal is a membership edit,
   not an object delete), so the snapshot always drains once the
   network allows.  The run linearizes at the pin read: yields ⊆ s_σ
   and the returned set equals s_σ for σ = the pinned state. *)

type state = {
  ctx : ctx;
  mutable pinned : Version.t option;
  mutable yielded : Oid.Set.t;
  mutable pool : Pool.t; (* the last reply's members minus [yielded] *)
}

let coordinator st = st.ctx.sref.Weakset_store.Protocol.coordinator
let set_id st = st.ctx.sref.Weakset_store.Protocol.set_id

(* Pin the snapshot, blocking (never failing) until the coordinator
   answers.  Nothing is recorded until the pin lands: a run that never
   reached its first-state has no computation to judge. *)
let rec ensure_open st =
  match st.pinned with
  | Some version -> version
  | None -> (
      let gen = signal_generation st.ctx in
      match
        Client.dir_read_direct st.ctx.client ~from:(coordinator st) ~set_id:(set_id st)
      with
      | Ok (version, members) ->
          st.pinned <- Some version;
          inst_first ~version ~linearised:members st.ctx;
          version
      | Error _ ->
          wait_for_change st.ctx ~seen_generation:gen;
          ensure_open st)

let next st () =
  let version = ensure_open st in
  inst_started st.ctx;
  let rec attempt ~refresh =
    (* The recorded pre-state must be the one the invocation finally acts
       on, so every retry refreshes the monitor's buffered pre-state. *)
    if refresh then inst_retry st.ctx;
    let gen = signal_generation st.ctx in
    let block_and_retry () =
      wait_for_change st.ctx ~seen_generation:gen;
      attempt ~refresh:true
    in
    (* Re-derive the pinned membership from the coordinator's log: the
       reply is version-exact however far truth has moved since. *)
    match
      Client.dir_read_at st.ctx.client ~from:(coordinator st) ~set_id:(set_id st) ~version
    with
    | Error _ -> block_and_retry ()
    | Ok (_, members) -> (
        st.pool <- Pool.refresh st.pool ~skip:(fun o -> Oid.Set.mem o st.yielded) members;
        inst_retry ~version ~linearised:members st.ctx;
        if Pool.is_empty st.pool then begin
          inst_completed st.ctx Weakset_spec.Sstate.Returns;
          Iterator.Done
        end
        else
          match pick st.ctx st.pool with
          | None ->
              (* Pinned members exist but none is accessible: block until
                 the failure is repaired — never signal. *)
              block_and_retry ()
          | Some oid -> (
              match Client.fetch st.ctx.client oid with
              | Ok v ->
                  st.yielded <- Oid.Set.add oid st.yielded;
                  Pool.remove st.pool oid;
                  inst_yield st.ctx oid;
                  Iterator.Yield (oid, v)
              | Error
                  ( Client.No_such_object | Client.Unreachable | Client.Timeout
                  | Client.No_service | Client.Overloaded
                  | Client.Budget_exhausted ) ->
                  (* Unlike an optimistic iterator there is no stale view
                     to blame and nothing to skip: the pinned element's
                     contents must reappear for the snapshot to be
                     honoured, so block until they do. *)
                  block_and_retry ()))
  in
  attempt ~refresh:false

let open_ ctx =
  let st = { ctx; pinned = None; yielded = Oid.Set.empty; pool = Pool.empty } in
  Iterator.make ~next:(next st)
    ~close:(fun () -> inst_detach ctx)
