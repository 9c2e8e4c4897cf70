module Rng = Weakset_sim.Rng
module Json = Weakset_obs.Json

type shape = Weakset_store.Sim_world.shape = Clique | Star | Line

type open_loop = { ol_rate : float; ol_clients : int; ol_bursty : bool }

type config = {
  shape : shape;
  nodes : int;
  latency : float;
  replica_ixs : int list;
  replica_interval : float;
  initial_size : int;
  cache : bool;
  lease_ttl : float;
  open_loop : open_loop option;
}

type op =
  | Add of { at : float }
  | Remove of { at : float }
  | Size of { at : float }
  | Iterate of { at : float; semantics : string; think : float; limit : int; repeat : int }

type fault =
  | Crash of { node : int; at : float; recover_at : float }
  | Cut of { a : int; b : int; at : float; heal_at : float }
  | Partition of { groups : int list list; at : float; heal_at : float }
  | Herd of { at : float; clients : int; burst : int }

type plan = {
  seed : int64;
  config : config;
  ops : op list;
  faults : fault list;
  budget : float;
}

let shape_name = function Clique -> "clique" | Star -> "star" | Line -> "line"

let shape_of_name = function
  | "clique" -> Some Clique
  | "star" -> Some Star
  | "line" -> Some Line
  | _ -> None

let op_time = function
  | Add { at } | Remove { at } | Size { at } -> at
  | Iterate { at; _ } -> at

let fault_time = function
  | Crash { at; _ } | Cut { at; _ } | Partition { at; _ } | Herd { at; _ } -> at

let event_count plan = List.length plan.ops + List.length plan.faults

(* ------------------------------------------------------------------ *)
(* Generation                                                         *)
(* ------------------------------------------------------------------ *)

let gen_config rng =
  let shape =
    let r = Rng.float rng 1.0 in
    if r < 0.5 then Clique else if r < 0.75 then Star else Line
  in
  let nodes = 5 + Rng.int rng 5 in
  let latency = Rng.uniform rng 0.5 2.0 in
  let homes = nodes - 2 in
  let replica_ix = 1 + Rng.int rng homes in
  let replica_ixs = if Rng.chance rng 0.3 then [ replica_ix ] else [] in
  let replica_interval = Rng.uniform rng 5.0 20.0 in
  let initial_size = 4 + Rng.int rng 9 in
  (* Both draws always happen, so flipping the cache knob never shifts
     the rest of the config stream. *)
  let cache = Rng.chance rng 0.6 in
  let lease_ttl = Rng.uniform rng 10.0 40.0 in
  (* Open-loop background arrivals (appended last, every draw always
     happens): existing seeds keep their exact config prefix, and
     flipping the knob never shifts the stream. *)
  let ol_on = Rng.chance rng 0.25 in
  let ol_rate = Rng.uniform rng 0.1 1.5 in
  let ol_clients = 2 + Rng.int rng 6 in
  let ol_bursty = Rng.chance rng 0.25 in
  let open_loop = if ol_on then Some { ol_rate; ol_clients; ol_bursty } else None in
  {
    shape;
    nodes;
    latency;
    replica_ixs;
    replica_interval;
    initial_size;
    cache;
    lease_ttl;
    open_loop;
  }

(* Weighted semantics mix; stale-replica reads only make sense when the
   config placed a replica. *)
let pick_semantics rng ~with_stale =
  let r = Rng.float rng 1.0 in
  if r < 0.15 then "immutable"
  else if r < 0.30 then "snapshot"
  else if r < 0.65 then "grow-only"
  else if r < 0.73 then "lin"
  else if with_stale && r > 0.92 then "optimistic-stale"
  else "optimistic"

let sort_ops ops = List.stable_sort (fun a b -> Float.compare (op_time a) (op_time b)) ops

let gen_ops rng config ~horizon =
  let n_mut = 6 + Rng.int rng 18 in
  let muts =
    List.init n_mut (fun _ ->
        let at = 1.0 +. Rng.float rng (horizon -. 10.0) in
        let r = Rng.float rng 1.0 in
        if r < 0.5 then Add { at } else if r < 0.8 then Remove { at } else Size { at })
  in
  let n_adds =
    List.length (List.filter (function Add _ -> true | _ -> false) muts)
  in
  let with_stale = config.replica_ixs <> [] in
  let n_iter = 1 + Rng.int rng 3 in
  let iters =
    List.init n_iter (fun _ ->
        let at = 1.0 +. Rng.float rng (horizon -. 10.0) in
        let semantics = pick_semantics rng ~with_stale in
        let think = Rng.uniform rng 0.2 2.0 in
        (* Warm re-iteration only matters with a cache; the draw still
           always happens so the knob doesn't shift the stream. *)
        let again = Rng.chance rng 0.6 in
        let repeat = if config.cache && again then 2 else 1 in
        Iterate { at; semantics; think; limit = config.initial_size + n_adds + 8; repeat })
  in
  sort_ops (muts @ iters)

(* A uniformly random two-way split of the node indexes (both groups
   non-empty, each sorted for stable rendering). *)
let random_split rng n =
  let ixs = Array.init n (fun i -> i) in
  Rng.shuffle rng ixs;
  let cut = 1 + Rng.int rng (n - 1) in
  let group a len = List.sort compare (Array.to_list (Array.sub a 0 len)) in
  [ group ixs cut; List.sort compare (Array.to_list (Array.sub ixs cut (n - cut))) ]

let gen_link rng config =
  let n = config.nodes in
  match config.shape with
  | Clique ->
      let a = Rng.int rng n in
      let b =
        let b = Rng.int rng (n - 1) in
        if b >= a then b + 1 else b
      in
      (min a b, max a b)
  | Star -> (0, 1 + Rng.int rng (n - 1))
  | Line ->
      let i = Rng.int rng (n - 1) in
      (i, i + 1)

let gen_faults rng config ~horizon =
  let n = Rng.int rng 4 in
  let faults =
    List.init n (fun _ ->
        let at = 2.0 +. Rng.float rng (horizon -. 7.0) in
        let dur = Float.min 40.0 (Float.max 1.0 (Rng.exponential rng ~mean:12.0)) in
        let r = Rng.float rng 1.0 in
        if r < 0.4 then
          let node = 1 + Rng.int rng (config.nodes - 2) in
          Crash { node; at; recover_at = at +. dur }
        else if r < 0.8 then
          Partition { groups = random_split rng config.nodes; at; heal_at = at +. dur }
        else
          let a, b = gen_link rng config in
          Cut { a; b; at; heal_at = at +. dur })
  in
  (* Thundering herd (appended last, every draw always happens): older
     seeds keep their exact fault prefix, and flipping the knob never
     shifts the stream. *)
  let herd_on = Rng.chance rng 0.25 in
  let herd_at = 2.0 +. Rng.float rng (horizon -. 7.0) in
  let herd_clients = 4 + Rng.int rng 13 in
  let herd_burst = 1 + Rng.int rng 3 in
  let faults =
    if herd_on then
      faults @ [ Herd { at = herd_at; clients = herd_clients; burst = herd_burst } ]
    else faults
  in
  List.stable_sort (fun a b -> Float.compare (fault_time a) (fault_time b)) faults

let generate seed =
  let root = Rng.create seed in
  (* One independent stream per plan section: adding draws to the
     workload must not perturb the faults, and vice versa. *)
  let crng = Rng.split root in
  let wrng = Rng.split root in
  let frng = Rng.split root in
  let config = gen_config crng in
  let horizon = 60.0 +. Rng.float wrng 60.0 in
  let ops = gen_ops wrng config ~horizon in
  let faults = gen_faults frng config ~horizon in
  { seed; config; ops; faults; budget = horizon +. 60.0 }

let config_of_seed seed =
  let root = Rng.create seed in
  gen_config (Rng.split root)

(* ------------------------------------------------------------------ *)
(* JSON round trip                                                    *)
(* ------------------------------------------------------------------ *)

let fnum f = Printf.sprintf "%.17g" f

let ints_to_json l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]"

let op_to_json = function
  | Add { at } -> Printf.sprintf {|{"op":"add","at":%s}|} (fnum at)
  | Remove { at } -> Printf.sprintf {|{"op":"remove","at":%s}|} (fnum at)
  | Size { at } -> Printf.sprintf {|{"op":"size","at":%s}|} (fnum at)
  | Iterate { at; semantics; think; limit; repeat } ->
      Printf.sprintf
        {|{"op":"iterate","at":%s,"semantics":"%s","think":%s,"limit":%d,"repeat":%d}|}
        (fnum at)
        (Weakset_obs.Event.json_escape semantics)
        (fnum think) limit repeat

let fault_to_json = function
  | Crash { node; at; recover_at } ->
      Printf.sprintf {|{"fault":"crash","node":%d,"at":%s,"recover_at":%s}|} node (fnum at)
        (fnum recover_at)
  | Cut { a; b; at; heal_at } ->
      Printf.sprintf {|{"fault":"cut","a":%d,"b":%d,"at":%s,"heal_at":%s}|} a b (fnum at)
        (fnum heal_at)
  | Partition { groups; at; heal_at } ->
      Printf.sprintf {|{"fault":"partition","groups":[%s],"at":%s,"heal_at":%s}|}
        (String.concat "," (List.map ints_to_json groups))
        (fnum at) (fnum heal_at)
  | Herd { at; clients; burst } ->
      Printf.sprintf {|{"fault":"herd","at":%s,"clients":%d,"burst":%d}|} (fnum at) clients
        burst

let open_loop_to_json = function
  | None -> "null"
  | Some { ol_rate; ol_clients; ol_bursty } ->
      Printf.sprintf {|{"rate":%s,"clients":%d,"bursty":%b}|} (fnum ol_rate) ol_clients
        ol_bursty

let config_to_json c =
  Printf.sprintf
    {|{"shape":"%s","nodes":%d,"latency":%s,"replica_ixs":%s,"replica_interval":%s,"initial_size":%d,"cache":%b,"lease_ttl":%s,"open_loop":%s}|}
    (shape_name c.shape) c.nodes (fnum c.latency) (ints_to_json c.replica_ixs)
    (fnum c.replica_interval) c.initial_size c.cache (fnum c.lease_ttl)
    (open_loop_to_json c.open_loop)

let plan_to_json p =
  Printf.sprintf {|{"seed":%Ld,"config":%s,"ops":[%s],"faults":[%s],"budget":%s}|} p.seed
    (config_to_json p.config)
    (String.concat "," (List.map op_to_json p.ops))
    (String.concat "," (List.map fault_to_json p.faults))
    (fnum p.budget)

let ( let* ) = Result.bind

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let int_field name j =
  let* v = field name j in
  match Json.to_int v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "field %S: expected int" name)

let float_field name j =
  let* v = field name j in
  match Json.to_float v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "field %S: expected number" name)

let string_field name j =
  let* v = field name j in
  match Json.to_string v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "field %S: expected string" name)

let list_field name j =
  let* v = field name j in
  match Json.to_list v with
  | Some l -> Ok l
  | None -> Error (Printf.sprintf "field %S: expected array" name)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let ints_of_json name j =
  let* l = list_field name j in
  map_result
    (fun v ->
      match Json.to_int v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "field %S: expected int elements" name))
    l

let op_of_json j =
  let* kind = string_field "op" j in
  match kind with
  | "add" ->
      let* at = float_field "at" j in
      Ok (Add { at })
  | "remove" ->
      let* at = float_field "at" j in
      Ok (Remove { at })
  | "size" ->
      let* at = float_field "at" j in
      Ok (Size { at })
  | "iterate" ->
      let* at = float_field "at" j in
      let* semantics = string_field "semantics" j in
      let* think = float_field "think" j in
      let* limit = int_field "limit" j in
      let* repeat = int_field "repeat" j in
      Ok (Iterate { at; semantics; think; limit; repeat })
  | k -> Error (Printf.sprintf "unknown op kind %S" k)

let fault_of_json j =
  let* kind = string_field "fault" j in
  match kind with
  | "crash" ->
      let* node = int_field "node" j in
      let* at = float_field "at" j in
      let* recover_at = float_field "recover_at" j in
      Ok (Crash { node; at; recover_at })
  | "cut" ->
      let* a = int_field "a" j in
      let* b = int_field "b" j in
      let* at = float_field "at" j in
      let* heal_at = float_field "heal_at" j in
      Ok (Cut { a; b; at; heal_at })
  | "partition" ->
      let* groups_j = list_field "groups" j in
      let* groups =
        map_result
          (fun g ->
            match Json.to_list g with
            | None -> Error "partition groups: expected arrays"
            | Some l ->
                map_result
                  (fun v ->
                    match Json.to_int v with
                    | Some i -> Ok i
                    | None -> Error "partition groups: expected int elements")
                  l)
          groups_j
      in
      let* at = float_field "at" j in
      let* heal_at = float_field "heal_at" j in
      Ok (Partition { groups; at; heal_at })
  | "herd" ->
      let* at = float_field "at" j in
      let* clients = int_field "clients" j in
      let* burst = int_field "burst" j in
      Ok (Herd { at; clients; burst })
  | k -> Error (Printf.sprintf "unknown fault kind %S" k)

let bool_field name j =
  let* v = field name j in
  match v with
  | Json.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "field %S: expected bool" name)

let config_of_json j =
  let* shape_s = string_field "shape" j in
  let* shape =
    match shape_of_name shape_s with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "unknown shape %S" shape_s)
  in
  let* nodes = int_field "nodes" j in
  let* latency = float_field "latency" j in
  let* replica_ixs = ints_of_json "replica_ixs" j in
  let* replica_interval = float_field "replica_interval" j in
  let* initial_size = int_field "initial_size" j in
  let* cache = bool_field "cache" j in
  let* lease_ttl = float_field "lease_ttl" j in
  (* Absent or null on bundles written before the knob existed. *)
  let* open_loop =
    match Json.member "open_loop" j with
    | None | Some Json.Null -> Ok None
    | Some ol ->
        let* ol_rate = float_field "rate" ol in
        let* ol_clients = int_field "clients" ol in
        let* ol_bursty = bool_field "bursty" ol in
        Ok (Some { ol_rate; ol_clients; ol_bursty })
  in
  Ok
    {
      shape;
      nodes;
      latency;
      replica_ixs;
      replica_interval;
      initial_size;
      cache;
      lease_ttl;
      open_loop;
    }

let plan_of_json j =
  let* seed_j = field "seed" j in
  let* seed =
    match seed_j with
    | Json.Num s -> (
        match Int64.of_string_opt s with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "seed: bad int64 lexeme %S" s))
    | _ -> Error "seed: expected number"
  in
  let* config_j = field "config" j in
  let* config = config_of_json config_j in
  let* ops_j = list_field "ops" j in
  let* ops = map_result op_of_json ops_j in
  let* faults_j = list_field "faults" j in
  let* faults = map_result fault_of_json faults_j in
  let* budget = float_field "budget" j in
  Ok { seed; config; ops; faults; budget }

let plan_of_string s =
  match Json.of_string_opt s with
  | None -> Error "malformed JSON"
  | Some j -> plan_of_json j
