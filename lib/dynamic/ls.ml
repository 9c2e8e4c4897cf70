module Client = Weakset_store.Client
module Oid = Weakset_store.Oid
module Svalue = Weakset_store.Svalue
module Engine = Weakset_sim.Engine

type mode = Strict | Weak of { parallelism : int }

type entry = { name : string; oid : Oid.t; size : int }

type listing = {
  entries : entry list;
  missed : int;
  started_at : float;
  first_entry_at : float option;
  finished_at : float;
}

let by_name a b = String.compare a.name b.name

let name_for dfs oid =
  match Dfs.name_of dfs oid with Some n -> n | None -> "?" ^ string_of_int (Oid.num oid)

(* The ls span is the root of the request's trace tree: membership
   reads, fetches (directly or via prefetch), RPCs and server store ops
   all reconstruct underneath it. *)
let with_ls_span ~client name f =
  let eng = Client.engine client in
  Weakset_obs.Bus.with_span_id (Engine.bus eng)
    ~time:(fun () -> Engine.now eng)
    ~node:(Weakset_net.Nodeid.to_int (Client.node client))
    name f

let strict_ls dfs ~client dir =
  with_ls_span ~client "ls.strict" @@ fun span ->
  let client = Client.with_span_parent client span in
  let eng = Client.engine client in
  let started_at = Engine.now eng in
  let sref = Dfs.dir_sref dfs dir in
  match
    Client.dir_read client ~from:sref.Weakset_store.Protocol.coordinator
      ~set_id:sref.set_id
  with
  | Error e -> Error e
  | Ok (_, members) ->
      (* Every member must be fetched before anything is returned. *)
      let rec fetch_all acc = function
        | [] -> Ok (List.rev acc)
        | oid :: rest -> (
            match Client.fetch client oid with
            | Ok v ->
                fetch_all ({ name = name_for dfs oid; oid; size = Svalue.size v } :: acc) rest
            | Error e -> Error e)
      in
      (match fetch_all [] (List.sort Oid.compare members) with
      | Error e -> Error e
      | Ok entries ->
          let finished_at = Engine.now eng in
          Ok
            {
              entries = List.sort by_name entries;
              missed = 0;
              started_at;
              (* Strict ls shows nothing until it has everything. *)
              first_entry_at = (if entries = [] then None else Some finished_at);
              finished_at;
            })

let weak_ls dfs ~client dir ~parallelism =
  with_ls_span ~client "ls.weak" @@ fun span ->
  let eng = Client.engine client in
  let started_at = Engine.now eng in
  let sref = Dfs.dir_sref dfs dir in
  let pf = Prefetch.start ~parent:span ~parallelism client sref in
  let results = Prefetch.drain pf in
  let st = Prefetch.stats pf in
  if st.Prefetch.open_failed then Error Client.Unreachable
  else
    let entries =
      List.map
        (fun (oid, v) -> { name = name_for dfs oid; oid; size = Svalue.size v })
        results
    in
    Ok
      {
        entries = List.sort by_name entries;
        missed = st.Prefetch.missed;
        started_at;
        first_entry_at = st.Prefetch.first_result_at;
        finished_at = Engine.now eng;
      }

let ls dfs ~client dir mode =
  match mode with
  | Strict -> strict_ls dfs ~client dir
  | Weak { parallelism } -> weak_ls dfs ~client dir ~parallelism
