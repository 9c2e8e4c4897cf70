module Client = Weakset_store.Client
module Oid = Weakset_store.Oid
module Lockmgr = Weakset_store.Lockmgr
open Impl_common

type protocol = Locking | Snapshot

type state = {
  ctx : ctx;
  protocol : protocol;
  mutable opened : bool;
  mutable open_failure : Client.error option;
  mutable pool : Pool.t; (* s_first minus what has been yielded *)
  mutable lock_owner : int option;
}

let ensure_open st =
  if not st.opened then begin
    st.opened <- true;
    let c = st.ctx.client in
    let acquire () =
      match st.protocol with
      | Snapshot -> Ok ()
      | Locking -> (
          match
            Client.lock_acquire (Client.with_timeout c st.ctx.lock_timeout) st.ctx.sref
              Lockmgr.Read
          with
          | Ok owner ->
              st.lock_owner <- Some owner;
              Ok ()
          | Error e -> Error e)
    in
    match acquire () with
    | Error e -> st.open_failure <- Some e
    | Ok () -> (
        match
          Client.dir_read c ~from:st.ctx.sref.Weakset_store.Protocol.coordinator
            ~set_id:st.ctx.sref.Weakset_store.Protocol.set_id
        with
        | Ok (version, members) ->
            st.pool <- Pool.of_list ~skip:(fun _ -> false) members;
            (* The vintage is the membership this reply delivered, not the
               directory at receipt — a mutation landing while the reply
               was in flight is not part of the pool we iterate. *)
            inst_first ~version ~linearised:members st.ctx
        | Error e -> st.open_failure <- Some e)
  end

let release_lock st =
  match st.lock_owner with
  | None -> ()
  | Some owner ->
      st.lock_owner <- None;
      ignore (Client.lock_release st.ctx.client st.ctx.sref ~owner)

let next st () =
  ensure_open st;
  match st.open_failure with
  | Some e -> Iterator.Failed e
  | None ->
      inst_started st.ctx;
      let rec attempt fetch_failures =
        if Pool.is_empty st.pool then begin
          inst_completed st.ctx Weakset_spec.Sstate.Returns;
          Iterator.Done
        end
        else
          match pick st.ctx st.pool with
          | None ->
              (* Pessimistic: un-yielded first-vintage elements exist but
                 none is accessible. *)
              inst_completed st.ctx Weakset_spec.Sstate.Fails;
              Iterator.Failed Client.Unreachable
          | Some oid -> (
              match Client.fetch st.ctx.client oid with
              | Ok v ->
                  Pool.remove st.pool oid;
                  inst_yield st.ctx oid;
                  Iterator.Yield (oid, v)
              | Error Client.No_such_object ->
                  (* The member's contents are gone: indistinguishable from
                     a permanent failure for this semantics. *)
                  inst_completed st.ctx Weakset_spec.Sstate.Fails;
                  Iterator.Failed Client.No_such_object
              | Error
                  ( Client.Unreachable | Client.Timeout | Client.No_service
                  | Client.Overloaded | Client.Budget_exhausted ) ->
                  if fetch_failures + 1 >= st.ctx.max_fetch_attempts then begin
                    inst_completed st.ctx Weakset_spec.Sstate.Fails;
                    Iterator.Failed Client.Timeout
                  end
                  else begin
                    (* Reachability changed under us; re-linearise. *)
                    inst_retry st.ctx;
                    attempt (fetch_failures + 1)
                  end)
      in
      attempt 0

let make protocol ctx =
  let st =
    {
      ctx;
      protocol;
      opened = false;
      open_failure = None;
      pool = Pool.empty;
      lock_owner = None;
    }
  in
  Iterator.make ~next:(next st)
    ~close:(fun () ->
      inst_detach ctx;
      release_lock st)

let open_locking ctx = make Locking ctx
let open_snapshot ctx = make Snapshot ctx
