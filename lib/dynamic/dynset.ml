module Oid = Weakset_store.Oid

type entry = { name : string; oid : Oid.t; value : Weakset_store.Svalue.t }

type t = {
  dfs : Dfs.t;
  pf : Prefetch.t;
  select : string -> bool;
  pred : entry -> bool;
}

let entry_of t (oid, value) =
  let name =
    match Dfs.name_of t.dfs oid with Some n -> n | None -> "?" ^ string_of_int (Oid.num oid)
  in
  { name; oid; value }

let make ?members dfs ~client dir ~select ~pred ~parallelism =
  let sref = Dfs.dir_sref dfs dir in
  let pf = Prefetch.start ?members ?parallelism client sref in
  { dfs; pf; select; pred }

let open_set dfs ~client dir ?(select = fun _ -> true) ?parallelism () =
  make dfs ~client dir ~select ~pred:(fun _ -> true) ~parallelism

let open_query dfs ~client dir ?parallelism pred =
  make dfs ~client dir ~select:(fun _ -> true) ~pred ~parallelism

(* Linearizable snapshot open: pin the directory at one version with an
   authoritative read (or reconstruct a caller-chosen past [version] via
   a snapshot-at-version read) and stream exactly that member list
   through the prefetch machinery — no locks, and concurrent mutation
   cannot change what the set yields. *)
let open_snapshot dfs ~client dir ?version ?(select = fun _ -> true) ?parallelism () =
  let sref = Dfs.dir_sref dfs dir in
  let read =
    match version with
    | Some v ->
        Weakset_store.Client.dir_read_at client ~from:sref.Weakset_store.Protocol.coordinator
          ~set_id:sref.Weakset_store.Protocol.set_id ~version:v
    | None ->
        Weakset_store.Client.dir_read_direct client
          ~from:sref.Weakset_store.Protocol.coordinator
          ~set_id:sref.Weakset_store.Protocol.set_id
  in
  match read with
  | Error e -> Error e
  | Ok (v, members) ->
      Ok (v, make ~members dfs ~client dir ~select ~pred:(fun _ -> true) ~parallelism)

let rec iterate t =
  match Prefetch.next t.pf with
  | None -> None
  | Some r ->
      let e = entry_of t r in
      if t.select e.name && t.pred e then Some e else iterate t

let drain t =
  let rec loop acc = match iterate t with Some e -> loop (e :: acc) | None -> List.rev acc in
  loop []

let stats t = Prefetch.stats t.pf
