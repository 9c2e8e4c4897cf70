module Client = Weakset_store.Client
module Oid = Weakset_store.Oid
module Svalue = Weakset_store.Svalue
module Topology = Weakset_net.Topology
module Engine = Weakset_sim.Engine
module Mailbox = Weakset_sim.Mailbox

type stats = {
  started_at : float;
  membership_read_at : float option;
  first_result_at : float option;
  finished_at : float option;
  fetched : int;
  cache_hits : int;
  batches : int;
  missed : int;
  membership : int;
  open_failed : bool;
}

type item = Result of (Oid.t * Svalue.t) | Exhausted

type t = {
  client : Client.t;
  engine : Engine.t;
  span : int; (* trace span covering open through exhaustion *)
  order : [ `Closest_first | `By_id ];
  max_retries : int;
  retry_backoff : float;
  batch : int; (* max oids coalesced into one Fetch_batch *)
  results : item Mailbox.t;
  mutable pending : (Oid.t * int) list; (* (member, retries so far) *)
  mutable live_fetchers : int;
  mutable cancelled : bool;
  mutable exhausted_seen : bool;
  (* stats *)
  started_at : float;
  mutable membership_read_at : float option;
  mutable first_result_at : float option;
  mutable finished_at : float option;
  mutable fetched : int;
  mutable cache_hits : int;
  mutable batches : int;
  mutable missed : int;
  mutable membership : int;
  mutable open_failed : bool;
}

let rec take n = function
  | x :: tl when n > 0 ->
      let a, b = take (n - 1) tl in
      (x :: a, b)
  | l -> ([], l)

(* Claim the best pending item whose home is currently reachable, plus
   up to [t.batch - 1] more pending items homed at the same node: one
   destination, one coalesced request.  [`Blocked] if nothing pending is
   reachable, [`Empty] if nothing pends at all. *)
let claim_batch t =
  match t.pending with
  | [] -> `Empty
  | pending -> (
      let topo = Client.topology t.client in
      let me = Client.node t.client in
      let score oid =
        match t.order with
        | `By_id -> Some (float_of_int (Oid.num oid))
        | `Closest_first -> Topology.path_latency topo me (Oid.home oid)
      in
      let best =
        List.fold_left
          (fun acc (oid, retries) ->
            match score oid with
            | None -> acc
            | Some sc -> (
                (* `By_id still requires reachability to claim. *)
                match Topology.path_latency topo me (Oid.home oid) with
                | None -> acc
                | Some _ -> (
                    match acc with
                    | Some (_, _, bsc) when bsc <= sc -> acc
                    | Some _ | None -> Some (oid, retries, sc))))
          None pending
      in
      match best with
      | None -> `Blocked
      | Some (best_oid, _, _) ->
          let home = Oid.home best_oid in
          let mine, rest =
            List.partition
              (fun (o, _) -> Weakset_net.Nodeid.equal (Oid.home o) home)
              pending
          in
          let claimed, left = take t.batch mine in
          t.pending <- left @ rest;
          `Claimed claimed)

let push_result t r =
  if t.first_result_at = None then t.first_result_at <- Some (Engine.now t.engine);
  t.fetched <- t.fetched + 1;
  Mailbox.send t.engine t.results (Result r)

(* Every way a prefetch ends funnels through here: stamp the finish
   time, close the trace span, and wake the consumer. *)
let finish t =
  let now = Engine.now t.engine in
  t.finished_at <- Some now;
  Weakset_obs.Bus.emit (Engine.bus t.engine) ~time:now
    (Weakset_obs.Event.Span_end
       {
         span = t.span;
         name = "prefetch";
         node = Some (Weakset_net.Nodeid.to_int (Client.node t.client));
         dur = now -. t.started_at;
       });
  Mailbox.send t.engine t.results Exhausted

let fetcher_finished t =
  t.live_fetchers <- t.live_fetchers - 1;
  if t.live_fetchers = 0 then finish t

let rec fetcher_loop t =
  if t.cancelled then fetcher_finished t
  else
    match claim_batch t with
    | `Empty -> fetcher_finished t
    | `Blocked -> (
        (* Everything left is unreachable: back off, charge a retry to each
           pending item, and drop the over-retried ones as missed. *)
        Engine.sleep t.engine t.retry_backoff;
        let keep, drop =
          List.partition (fun (_, retries) -> retries + 1 <= t.max_retries) t.pending
        in
        t.pending <- List.map (fun (o, r) -> (o, r + 1)) keep;
        t.missed <- t.missed + List.length drop;
        match t.pending with [] -> fetcher_finished t | _ -> fetcher_loop t)
    | `Claimed items ->
        t.batches <- t.batches + 1;
        let retries_of oid =
          match List.find_opt (fun (o, _) -> Oid.equal o oid) items with
          | Some (_, r) -> r
          | None -> 0
        in
        List.iter
          (fun (oid, outcome) ->
            match outcome with
            | Ok v -> push_result t (oid, v)
            | Error Client.No_such_object ->
                (* Contents gone: skip permanently. *)
                t.missed <- t.missed + 1
            | Error
                ( Client.Unreachable | Client.Timeout | Client.No_service
                | Client.Overloaded | Client.Budget_exhausted ) ->
                let retries = retries_of oid in
                if retries + 1 > t.max_retries then t.missed <- t.missed + 1
                else t.pending <- (oid, retries + 1) :: t.pending)
          (Client.fetch_many t.client (List.map fst items));
        fetcher_loop t

let read_membership client (sref : Weakset_store.Protocol.set_ref) =
  match Client.dir_read client ~from:sref.coordinator ~set_id:sref.set_id with
  | Ok (_, members) -> Some members
  | Error _ ->
      let topo = Client.topology client in
      let me = Client.node client in
      List.find_map
        (fun r ->
          if Topology.reachable topo me r then
            match Client.dir_read client ~from:r ~set_id:sref.set_id with
            | Ok (_, members) -> Some members
            | Error _ -> None
          else None)
        sref.replicas

let start ?parent ?members ?(parallelism = 4) ?(order = `Closest_first) ?(max_retries = 2)
    ?(retry_backoff = 2.0) ?(batch = 8) client sref =
  let engine = Client.engine client in
  let bus = Engine.bus engine in
  let span = Weakset_obs.Bus.fresh_span bus in
  let me = Weakset_net.Nodeid.to_int (Client.node client) in
  Weakset_obs.Bus.emit bus ~time:(Engine.now engine)
    (Weakset_obs.Event.Span_start { span; parent; name = "prefetch"; node = Some me });
  (* Every read and fetch of this prefetch runs under its span. *)
  let client = Client.with_span_parent client span in
  let t =
    {
      client;
      engine;
      span;
      order;
      max_retries;
      retry_backoff;
      batch = Stdlib.max 1 batch;
      results = Mailbox.create ();
      pending = [];
      live_fetchers = 0;
      cancelled = false;
      exhausted_seen = false;
      started_at = Engine.now engine;
      membership_read_at = None;
      first_result_at = None;
      finished_at = None;
      fetched = 0;
      cache_hits = 0;
      batches = 0;
      missed = 0;
      membership = 0;
      open_failed = false;
    }
  in
  Engine.spawn engine ~name:"prefetch-open" (fun () ->
      (* A caller-pinned member list (e.g. a versioned snapshot read by
         Dynset.open_snapshot) replaces the open-time membership read. *)
      match
        match members with
        | Some m -> Some m
        | None -> read_membership client sref
      with
      | None ->
          t.open_failed <- true;
          finish t
      | Some members ->
          t.membership <- List.length members;
          t.membership_read_at <- Some (Engine.now engine);
          (* Claim lease-cache hits synchronously — zero RPCs, results
             available before any fetcher even spawns. *)
          let hits, misses =
            List.partition_map
              (fun o ->
                match Client.peek client o with
                | Some v -> Either.Left (o, v)
                | None -> Either.Right o)
              members
          in
          t.cache_hits <- List.length hits;
          List.iter (push_result t) hits;
          t.pending <- List.map (fun o -> (o, 0)) misses;
          if t.pending = [] then finish t
          else begin
            let k = Stdlib.max 1 parallelism in
            t.live_fetchers <- k;
            for i = 1 to k do
              Engine.spawn engine ~name:(Printf.sprintf "prefetch-%d" i) (fun () ->
                  fetcher_loop t)
            done
          end);
  t

let next t =
  if t.exhausted_seen then None
  else
    match Mailbox.recv t.engine t.results with
    | Result r -> Some r
    | Exhausted ->
        t.exhausted_seen <- true;
        None

let drain t =
  let rec loop acc = match next t with Some r -> loop (r :: acc) | None -> List.rev acc in
  loop []

let stats t =
  {
    started_at = t.started_at;
    membership_read_at = t.membership_read_at;
    first_result_at = t.first_result_at;
    finished_at = t.finished_at;
    fetched = t.fetched;
    cache_hits = t.cache_hits;
    batches = t.batches;
    missed = t.missed;
    membership = t.membership;
    open_failed = t.open_failed;
  }

let close t = t.cancelled <- true
