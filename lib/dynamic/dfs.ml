module Store = Weakset_store
module Rpc = Weakset_net.Rpc

type dir_info = {
  sref : Store.Protocol.set_ref;
  coordinator_server : Store.Node_server.t;
  entries : (string, Store.Oid.t) Hashtbl.t; (* name -> oid *)
}

type t = {
  rpc : Store.Node_server.rpc;
  servers : Store.Node_server.t array;
  dirs : (string, dir_info) Hashtbl.t; (* keyed by path string *)
  names : (int, string) Hashtbl.t;     (* oid num -> file name *)
  mutable next_oid : int;
  mutable next_set : int;
}

let create rpc servers =
  { rpc; servers; dirs = Hashtbl.create 16; names = Hashtbl.create 64; next_oid = 0; next_set = 0 }

let engine t = Rpc.engine t.rpc

let dir_info t path =
  match Hashtbl.find_opt t.dirs (Fpath.to_string path) with
  | Some d -> d
  | None -> invalid_arg ("Dfs: no such directory " ^ Fpath.to_string path)

let mkdir t path ~coordinator ?(replicas = []) ?(replica_interval = 10.0) ?(ghost_policy = false)
    () =
  let key = Fpath.to_string path in
  if Hashtbl.mem t.dirs key then invalid_arg ("Dfs.mkdir: exists " ^ key);
  t.next_set <- t.next_set + 1;
  let set_id = t.next_set in
  let coord_server = t.servers.(coordinator) in
  let policy =
    if ghost_policy then Store.Node_server.Defer_removes_while_iterating
    else Store.Node_server.Immediate
  in
  Store.Node_server.host_directory coord_server ~set_id ~policy;
  List.iter
    (fun ix ->
      Store.Node_server.host_replica t.servers.(ix) ~set_id
        ~of_:(Store.Node_server.node coord_server) ~interval:replica_interval ~until:1.0e8)
    replicas;
  let sref =
    {
      Store.Protocol.set_id;
      coordinator = Store.Node_server.node coord_server;
      replicas = List.map (fun ix -> Store.Node_server.node t.servers.(ix)) replicas;
    }
  in
  Hashtbl.replace t.dirs key { sref; coordinator_server = coord_server; entries = Hashtbl.create 16 }

let dir_exists t path = Hashtbl.mem t.dirs (Fpath.to_string path)

let directories t =
  Hashtbl.fold (fun key _ acc -> Fpath.of_string key :: acc) t.dirs []
  |> List.sort Fpath.compare

let create_file t dir ~name ~home content =
  let d = dir_info t dir in
  if Hashtbl.mem d.entries name then
    invalid_arg (Printf.sprintf "Dfs.create_file: %s exists in %s" name (Fpath.to_string dir));
  t.next_oid <- t.next_oid + 1;
  let oid = Store.Oid.make ~num:t.next_oid ~home:(Store.Node_server.node t.servers.(home)) in
  Store.Node_server.put_object t.servers.(home) oid (Store.Svalue.make content);
  ignore
    (Store.Directory.apply
       (Store.Node_server.directory_truth d.coordinator_server ~set_id:d.sref.Store.Protocol.set_id)
       (Store.Directory.Add oid));
  Hashtbl.replace d.entries name oid;
  Hashtbl.replace t.names (Store.Oid.num oid) name;
  oid

let unlink t dir ~name =
  let d = dir_info t dir in
  match Hashtbl.find_opt d.entries name with
  | None -> invalid_arg (Printf.sprintf "Dfs.unlink: no %s in %s" name (Fpath.to_string dir))
  | Some oid ->
      Hashtbl.remove d.entries name;
      ignore
        (Store.Directory.apply
           (Store.Node_server.directory_truth d.coordinator_server
              ~set_id:d.sref.Store.Protocol.set_id)
           (Store.Directory.Remove oid))

let dir_sref t path = (dir_info t path).sref
let coordinator_server t path = (dir_info t path).coordinator_server
let name_of t oid = Hashtbl.find_opt t.names (Store.Oid.num oid)
let lookup t path ~name = Hashtbl.find_opt (dir_info t path).entries name

let client_at t ix = Store.Client.create t.rpc (Store.Node_server.node t.servers.(ix))
