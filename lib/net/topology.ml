module Rng = Weakset_sim.Rng

type node = { x : float; y : float; mutable up : bool }

type link = { mutable latency : float; mutable link_up : bool; mutable loss : float }

(* Single-source shortest paths from one node: cheapest latency to every
   destination and the survival probability of that same path. *)
type route = { dist : float array; survival : float array }

type t = {
  mutable node_tbl : node array; (* indexed by node id *)
  mutable count : int;
  links : (int * int, link) Hashtbl.t; (* key is ordered pair, lo first *)
  mutable watchers : (unit -> unit) list;
  mutable adj : (int * float * float) array array option;
      (* up subgraph as (neighbour, latency, loss) per node; None = stale *)
  mutable routes : route option array; (* per source; [||] = all stale *)
}

let create () =
  {
    node_tbl = [||];
    count = 0;
    links = Hashtbl.create 64;
    watchers = [];
    adj = None;
    routes = [||];
  }

(* Every mutation drops the derived tables; they are rebuilt lazily by the
   next route query. *)
let invalidate t =
  t.adj <- None;
  t.routes <- [||]

(* Invalidate before the watchers run: they may query routes. *)
let notify t =
  invalidate t;
  List.iter (fun f -> f ()) t.watchers

let on_change t f = t.watchers <- t.watchers @ [ f ]

let add_node ?(x = 0.0) ?(y = 0.0) t =
  let cap = Array.length t.node_tbl in
  if t.count = cap then begin
    let ncap = if cap = 0 then 8 else cap * 2 in
    let fresh = Array.make ncap { x = 0.0; y = 0.0; up = true } in
    Array.blit t.node_tbl 0 fresh 0 t.count;
    t.node_tbl <- fresh
  end;
  t.node_tbl.(t.count) <- { x; y; up = true };
  t.count <- t.count + 1;
  (* Not a notify: adding a node never ran the watchers. *)
  invalidate t;
  Nodeid.of_int (t.count - 1)

let node t id =
  let i = Nodeid.to_int id in
  if i < 0 || i >= t.count then invalid_arg "Topology: unknown node";
  t.node_tbl.(i)

let key a b =
  let a = Nodeid.to_int a and b = Nodeid.to_int b in
  if a < b then (a, b) else (b, a)

let add_link ?(loss = 0.0) t a b ~latency =
  if Nodeid.equal a b then invalid_arg "Topology.add_link: self-link";
  if loss < 0.0 || loss > 1.0 then invalid_arg "Topology.add_link: loss out of [0,1]";
  if latency < 0.0 || not (Float.is_finite latency) then
    invalid_arg "Topology.add_link: latency must be finite and non-negative";
  ignore (node t a);
  ignore (node t b);
  (match Hashtbl.find_opt t.links (key a b) with
  | Some l ->
      l.latency <- latency;
      l.loss <- loss
  | None -> Hashtbl.replace t.links (key a b) { latency; link_up = true; loss });
  notify t

let link_loss t a b =
  match Hashtbl.find_opt t.links (key a b) with Some l -> l.loss | None -> 1.0

let nodes t = List.init t.count Nodeid.of_int
let node_count t = t.count
let node_up t id = (node t id).up

let set_node_up t id up =
  (node t id).up <- up;
  notify t

let has_link t a b = Hashtbl.mem t.links (key a b)

let link_up t a b =
  match Hashtbl.find_opt t.links (key a b) with Some l -> l.link_up | None -> false

let set_link_up t a b up =
  match Hashtbl.find_opt t.links (key a b) with
  | Some l ->
      l.link_up <- up;
      notify t
  | None -> invalid_arg "Topology.set_link_up: no such link"

let adjacency t =
  match t.adj with
  | Some adj -> adj
  | None ->
      let lists = Array.make t.count [] in
      Hashtbl.iter
        (fun (a, b) l ->
          if l.link_up && t.node_tbl.(a).up && t.node_tbl.(b).up then begin
            lists.(a) <- (b, l.latency, l.loss) :: lists.(a);
            lists.(b) <- (a, l.latency, l.loss) :: lists.(b)
          end)
        t.links;
      let adj = Array.map Array.of_list lists in
      t.adj <- Some adj;
      adj

(* Selection Dijkstra over the up subgraph from [src], run to completion.
   Nodes settle smallest distance first, lowest index on ties; with
   non-negative latencies a node's (dist, survival) is final once it
   settles.  Each node relaxes each neighbour at most once, so the order
   of an adjacency row does not matter. *)
let dijkstra t src =
  let adj = adjacency t in
  let dist = Array.make t.count infinity in
  let survival = Array.make t.count 1.0 in
  let settled = Array.make t.count false in
  dist.(src) <- 0.0;
  let rec settle () =
    let best = ref (-1) in
    for i = 0 to t.count - 1 do
      if (not settled.(i)) && dist.(i) < infinity && (!best = -1 || dist.(i) < dist.(!best))
      then best := i
    done;
    let u = !best in
    if u >= 0 then begin
      settled.(u) <- true;
      Array.iter
        (fun (j, lat, loss) ->
          if dist.(u) +. lat < dist.(j) then begin
            dist.(j) <- dist.(u) +. lat;
            survival.(j) <- survival.(u) *. (1.0 -. loss)
          end)
        adj.(u);
      settle ()
    end
  in
  settle ();
  { dist; survival }

let route_from t src =
  if Array.length t.routes <> t.count then t.routes <- Array.make t.count None;
  match t.routes.(src) with
  | Some r -> r
  | None ->
      let r = dijkstra t src in
      t.routes.(src) <- Some r;
      r

(* Cheapest-latency path over the up subgraph, with the survival
   probability (product of per-link 1 - loss) of that same path. *)
let path_info t a b =
  let ai = Nodeid.to_int a and bi = Nodeid.to_int b in
  if not ((node t a).up && (node t b).up) then None
  else if ai = bi then Some (0.0, 1.0)
  else
    let r = route_from t ai in
    if r.dist.(bi) < infinity then Some (r.dist.(bi), r.survival.(bi)) else None

let reachable t a b = Option.is_some (path_info t a b)

let path_latency t a b = Option.map fst (path_info t a b)

let distance t a b =
  let na = node t a and nb = node t b in
  sqrt (((na.x -. nb.x) ** 2.0) +. ((na.y -. nb.y) ** 2.0))

let partition t groups =
  let group_of = Hashtbl.create 16 in
  List.iteri
    (fun gi members -> List.iter (fun n -> Hashtbl.replace group_of (Nodeid.to_int n) gi) members)
    groups;
  let lookup i = Hashtbl.find_opt group_of i in
  Hashtbl.iter
    (fun (a, b) l ->
      let same =
        match (lookup a, lookup b) with
        | Some ga, Some gb -> ga = gb
        | None, None -> true (* both in the implicit leftover group *)
        | _ -> false
      in
      l.link_up <- same)
    t.links;
  notify t

let heal_all t =
  for i = 0 to t.count - 1 do
    t.node_tbl.(i).up <- true
  done;
  Hashtbl.iter (fun _ l -> l.link_up <- true) t.links;
  notify t

let clique t n ~latency =
  let ids = Array.init n (fun _ -> add_node t) in
  Array.iteri
    (fun i a -> Array.iteri (fun j b -> if i < j then add_link t a b ~latency) ids)
    ids;
  ids

let star t n ~latency =
  let hub = add_node t in
  let leaves = Array.init n (fun _ -> add_node t) in
  Array.iter (fun leaf -> add_link t hub leaf ~latency) leaves;
  (hub, leaves)

let line t n ~latency =
  let ids = Array.init n (fun _ -> add_node t) in
  for i = 0 to n - 2 do
    add_link t ids.(i) ids.(i + 1) ~latency
  done;
  ids

let wan t ~rng ~nodes:n ~extra_links =
  let ids =
    Array.init n (fun _ -> add_node ~x:(Rng.float rng 1000.0) ~y:(Rng.float rng 1000.0) t)
  in
  let lat a b = Float.max 0.1 (distance t a b /. 100.0) in
  (* Random spanning tree: attach each node to a random earlier node. *)
  for i = 1 to n - 1 do
    let j = Rng.int rng i in
    add_link t ids.(i) ids.(j) ~latency:(lat ids.(i) ids.(j))
  done;
  let added = ref 0 in
  let attempts = ref 0 in
  while !added < extra_links && !attempts < extra_links * 20 do
    incr attempts;
    let i = Rng.int rng n and j = Rng.int rng n in
    if i <> j && not (link_up t ids.(i) ids.(j)) then begin
      add_link t ids.(i) ids.(j) ~latency:(lat ids.(i) ids.(j));
      incr added
    end
  done;
  ids
