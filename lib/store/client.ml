module Rpc = Weakset_net.Rpc
module Topology = Weakset_net.Topology
module Nodeid = Weakset_net.Nodeid

type error =
  | Unreachable
  | Timeout
  | No_such_object
  | No_service
  | Overloaded
  | Budget_exhausted

let pp_error fmt = function
  | Unreachable -> Format.pp_print_string fmt "unreachable"
  | Timeout -> Format.pp_print_string fmt "timeout"
  | No_such_object -> Format.pp_print_string fmt "no-such-object"
  | No_service -> Format.pp_print_string fmt "no-service"
  | Overloaded -> Format.pp_print_string fmt "overloaded"
  | Budget_exhausted -> Format.pp_print_string fmt "budget-exhausted"

let error_to_string e = Format.asprintf "%a" pp_error e

type rpc = (Protocol.request, Protocol.response) Rpc.t

type retry_config = {
  retry_rng : Weakset_sim.Rng.t;
      (* the jitter stream; hand each client its own [Rng.split] so
         backoff draws never perturb workload or fault streams *)
  retry_burst : int;
  retry_refill : float; (* tokens per unit of virtual time *)
  retry_backoff : float; (* initial jitter window *)
  retry_backoff_max : float; (* jitter window cap *)
  retry_attempts : int; (* retries per call before giving up *)
}

(* Token bucket state lives behind refs so [with_span_parent]/
   [with_timeout] copies share one budget: the budget is per {e client},
   not per handle. *)
type retry_state = {
  rc : retry_config;
  tokens : float ref;
  last : float ref;
}

type t = {
  rpc : rpc;
  node : Nodeid.t;
  timeout : float;
  parent : int option; (* enclosing span of every operation *)
  lease : Cache.t option; (* coherent lease cache (None: every read is remote) *)
  retry : retry_state option;
}

let create ?(timeout = 30.0) ?cache ?retry rpc node =
  let lease =
    Option.map
      (fun config ->
        let c = Cache.create ~config (Rpc.engine rpc) ~node:(Nodeid.to_int node) in
        (* Lease callbacks arrive as ordinary requests addressed to this
           node; the interceptor claims exactly those, so a full store
           service colocated on the node keeps serving everything else. *)
        Rpc.intercept rpc node
          ~handles:(function Protocol.Inval _ -> Some "inval" | _ -> None)
          (function
            | Protocol.Inval { set_id; version } ->
                Cache.wire_inval c ~set_id ~version;
                Protocol.Ack
            | _ -> Protocol.No_service);
        c)
      cache
  in
  let retry =
    Option.map
      (fun rc ->
        { rc; tokens = ref (float_of_int rc.retry_burst); last = ref 0.0 })
      retry
  in
  { rpc; node; timeout; parent = None; lease; retry }

let lease_cache t = t.lease

let node t = t.node
let rpc t = t.rpc
let engine t = Rpc.engine t.rpc
let topology t = Rpc.topology t.rpc
let with_timeout t timeout = { t with timeout }
let with_span_parent t span = { t with parent = Some span }

let of_rpc_error = function Rpc.Timeout -> Timeout | Rpc.Unreachable -> Unreachable

(* Lazy token-bucket refill, clocked on virtual time: tokens accrue at
   [retry_refill] per unit up to [retry_burst].  Returns whether a token
   was available (and consumed). *)
let take_token eng rs =
  let now = Weakset_sim.Engine.now eng in
  let tokens =
    Float.min
      (float_of_int rs.rc.retry_burst)
      (!(rs.tokens) +. ((now -. !(rs.last)) *. rs.rc.retry_refill))
  in
  rs.last := now;
  if tokens >= 1.0 then begin
    rs.tokens := tokens -. 1.0;
    true
  end
  else begin
    rs.tokens := tokens;
    false
  end

(* Current token balance (refilled to now), for tests and gauges. *)
let retry_tokens t =
  match t.retry with
  | None -> None
  | Some rs ->
      let now = Weakset_sim.Engine.now (Rpc.engine t.rpc) in
      Some
        (Float.min
           (float_of_int rs.rc.retry_burst)
           (!(rs.tokens) +. ((now -. !(rs.last)) *. rs.rc.retry_refill)))

(* Every network operation runs inside its own [client.*] span; the
   client's [parent] (an enclosing request span, e.g. an ls, set by
   [with_span_parent]) parents that span, and the
   span in turn parents the RPC — so one user request reconstructs as one
   tree reaching through the wire into the server.

   A server's [Overloaded] shed never escapes as a response: with a
   retry budget the call backs off (jittered exponential, honoring the
   server's [retry_after] hint) and retries inside the same operation
   span — so the whole storm is one trace tree — and surfaces
   [Budget_exhausted] when the bucket runs dry or [Overloaded] when the
   per-call attempts are spent; without a budget it surfaces
   [Overloaded] at once. *)
let call t dst req =
  let eng = Rpc.engine t.rpc in
  let bus = Rpc.bus t.rpc in
  let label = Protocol.request_label req in
  (* Per-op latency with the operation's own span as exemplar: the
     histogram's tail buckets name the exact request trees to pull out
     of a black-box dump. *)
  let m = Weakset_obs.Bus.metrics bus in
  let h = Weakset_obs.Metrics.histogram m ~labels:[ ("op", label) ] "client.latency" in
  let t0 = Weakset_sim.Engine.now eng in
  Weakset_obs.Bus.with_span_id bus
    ~time:(fun () -> Weakset_sim.Engine.now eng)
    ~node:(Nodeid.to_int t.node) ?parent:t.parent ("client." ^ label)
    (fun span ->
      let count_retry outcome =
        Weakset_obs.Metrics.inc
          (Weakset_obs.Metrics.counter m ~labels:[ ("outcome", outcome) ]
             "client.retry");
        Weakset_obs.Bus.emit bus
          ~time:(Weakset_sim.Engine.now eng)
          (Weakset_obs.Event.Custom
             {
               label = "client-retry";
               detail =
                 Printf.sprintf "node=%d op=%s outcome=%s"
                   (Nodeid.to_int t.node) label outcome;
             })
      in
      let retried = ref false in
      let rec attempt k =
        match Rpc.call t.rpc ~parent:span ~src:t.node ~dst ~timeout:t.timeout req with
        | Ok (Protocol.Overloaded { retry_after }) -> (
            match t.retry with
            | None -> Error Overloaded
            | Some rs ->
                if k >= rs.rc.retry_attempts then begin
                  count_retry "gave-up";
                  Error Overloaded
                end
                else if not (take_token eng rs) then begin
                  count_retry "budget-exhausted";
                  Error Budget_exhausted
                end
                else begin
                  (* Jittered exponential backoff on top of the server's
                     hint; the jitter draw comes from the client's own
                     split Rng stream, so schedules are a pure function
                     of the seed. *)
                  let window =
                    Float.min rs.rc.retry_backoff_max
                      (rs.rc.retry_backoff *. Float.pow 2.0 (float_of_int k))
                  in
                  let backoff =
                    retry_after +. Weakset_sim.Rng.float rs.rc.retry_rng window
                  in
                  retried := true;
                  Weakset_sim.Engine.sleep eng backoff;
                  attempt (k + 1)
                end)
        | Ok resp ->
            if !retried then count_retry "ok";
            Ok resp
        | Error e -> Error (of_rpc_error e)
      in
      let r = attempt 0 in
      let now = Weakset_sim.Engine.now eng in
      Weakset_obs.Metrics.observe_ex h ~time:now ~span (now -. t0);
      r)

(* Fill the lease cache, when enabled, with a fetched value.  Objects
   are immutable, so the lease on a value only bounds cache occupancy,
   not staleness. *)
let remember t oid v =
  Option.iter (fun c -> Cache.store_obj c oid v ~lease:(Cache.config c).Cache.ttl) t.lease

let remote_fetch t oid =
  match call t (Oid.home oid) (Protocol.Fetch oid) with
  | Ok (Protocol.Value v) ->
      remember t oid v;
      Ok v
  | Ok Protocol.Not_found -> Error No_such_object
  | Ok _ -> Error No_service
  | Error e -> Error e

(* A zero-duration span marking a locally served (cache-hit) operation.
   Gives the critical-path analyzer a named phase to attribute hit time
   to, against the RPC-bound span of the corresponding miss path. *)
let cached_span t name v =
  let eng = Rpc.engine t.rpc in
  Weakset_obs.Bus.with_span_id (Rpc.bus t.rpc)
    ~time:(fun () -> Weakset_sim.Engine.now eng)
    ~node:(Nodeid.to_int t.node) ?parent:t.parent name
    (fun _ -> v)

let fetch t oid =
  match t.lease with
  | None -> remote_fetch t oid
  | Some c -> (
      match Cache.find_obj c oid with
      | Some v -> cached_span t "client.fetch.cached" (Ok v)
      | None -> remote_fetch t oid)

let peek t oid =
  match t.lease with None -> None | Some c -> Cache.find_obj ~count_miss:false c oid

(* Coalesced fetch: answer what the lease cache holds, then one
   Fetch_batch round trip per distinct home node for the rest.  Results
   come back in input order. *)
let fetch_many t oids =
  let hits, misses =
    List.partition_map
      (fun oid ->
        match t.lease with
        | Some c -> (
            match Cache.find_obj c oid with
            | Some v -> Either.Left (oid, Ok v)
            | None -> Either.Right oid)
        | None -> Either.Right oid)
      oids
  in
  let by_home = Hashtbl.create 4 in
  List.iter
    (fun oid ->
      let home = Nodeid.to_int (Oid.home oid) in
      let prev = Option.value (Hashtbl.find_opt by_home home) ~default:[] in
      Hashtbl.replace by_home home (oid :: prev))
    misses;
  (* Iterate the miss list (not the table) so batch issue order is the
     deterministic input order, one batch per first-seen home. *)
  let fetched = Hashtbl.create 16 in
  List.iter
    (fun oid ->
      let home = Nodeid.to_int (Oid.home oid) in
      match Hashtbl.find_opt by_home home with
      | None -> () (* this home's batch already went out *)
      | Some batch ->
          Hashtbl.remove by_home home;
          let batch = List.rev batch in
          let outcome : (Oid.t * (Svalue.t, error) result) list =
            match call t (Oid.home oid) (Protocol.Fetch_batch { oids = batch }) with
            | Ok (Protocol.Batch { found; missing }) ->
                List.iter (fun (o, v) -> remember t o v) found;
                List.map (fun (o, v) -> (o, Ok v)) found
                @ List.map (fun o -> (o, Error No_such_object)) missing
            | Ok _ -> List.map (fun o -> (o, Error No_service)) batch
            | Error e -> List.map (fun o -> (o, Error e)) batch
          in
          List.iter (fun (o, r) -> Hashtbl.replace fetched (Oid.num o) r) outcome)
    misses;
  List.iter (fun (o, r) -> Hashtbl.replace fetched (Oid.num o) r) hits;
  List.map
    (fun oid ->
      match Hashtbl.find_opt fetched (Oid.num oid) with
      | Some r -> (oid, r)
      | None -> (oid, Error No_service))
    oids

let remote_dir_read ~leased t ~from ~set_id =
  let req =
    if leased then Protocol.Dir_read_leased { set_id; lessee = t.node }
    else Protocol.Dir_read { set_id }
  in
  match call t from req with
  | Ok (Protocol.Members { version; members }) -> Ok (version, members)
  | Ok (Protocol.Members_leased { version; members; lease }) ->
      Option.iter (fun c -> Cache.store_dir c ~set_id ~version ~members ~lease) t.lease;
      Ok (version, members)
  | Ok Protocol.No_service -> Error No_service
  | Ok _ -> Error No_service
  | Error e -> Error e

(* Authoritative, never-cached membership read: what a linearizable
   iterator pins its snapshot on.  A lease-cached view would do for
   freshness but not for pinning — the pinned version must be one the
   coordinator can replay with [Dir_read_at]. *)
let dir_read_direct t ~from ~set_id = remote_dir_read ~leased:false t ~from ~set_id

(* Snapshot-at-version read; never consults nor populates the lease
   cache (the reply is a historical view, not the current one). *)
let dir_read_at t ~from ~set_id ~version =
  match call t from (Protocol.Dir_read_at { set_id; version }) with
  | Ok (Protocol.Members { version = v; members }) -> Ok (v, members)
  | Ok Protocol.No_service -> Error No_service
  | Ok _ -> Error No_service
  | Error e -> Error e

let dir_read t ~from ~set_id =
  match t.lease with
  | None -> remote_dir_read ~leased:false t ~from ~set_id
  | Some c -> (
      (* The cached view stands in for the read wherever it was hosted:
         it is at least as fresh as any replica and, under its lease, a
         faithful stand-in for the coordinator. *)
      match Cache.find_dir c ~set_id with
      | Some (version, members) ->
          cached_span t "client.dir-read.cached" (Ok (version, members))
      | None -> remote_dir_read ~leased:true t ~from ~set_id)

(* Leader-following call: directory mutations, locks and iterator
   registration must land on the set's current write authority, which
   under a replication group (lib/repl) can be {e any} member of
   [coordinator :: replicas] after a view change.  A [Not_leader]
   answer redirects to the hinted node; a transport failure fails over
   to the next host.  Attempts are bounded, and when every host fails
   the caller sees the {e first} transport error — so a single-home set
   ([replicas = []]) behaves exactly as before, one call to the
   coordinator, [Unreachable] when it is down. *)
let coord_call t (sref : Protocol.set_ref) req =
  match sref.replicas with
  | [] -> call t sref.coordinator req
  | replicas ->
      let budget = ref (2 * (1 + List.length replicas)) in
      let first_err = ref None in
      let finish last = match !first_err with Some e -> Error e | None -> Ok last in
      let rec attempt dst pending =
        decr budget;
        match call t dst req with
        | Ok (Protocol.Not_leader { leader; _ } as resp) ->
            if !budget <= 0 then finish resp
            else
              let hint = Nodeid.of_int leader in
              if Nodeid.equal hint dst then
                (* the member believes itself leader-to-be but is not
                   Normal yet (mid view change): try the others *)
                failover resp pending
              else
                attempt hint
                  (List.filter (fun h -> not (Nodeid.equal h hint)) pending)
        | Ok (Protocol.No_service as resp) ->
            (* an anti-entropy replica or a not-yet-attached member:
               keep looking, but never let its answer mask an earlier
               transport error *)
            failover resp pending
        | Ok resp -> Ok resp
        | Error ((Overloaded | Budget_exhausted) as e) ->
            (* Overload is terminal, never failed over: hammering the
               other members would amplify the very storm admission
               control is shedding, and budget exhaustion must stay a
               distinct client-visible outcome. *)
            Error e
        | Error e ->
            if Option.is_none !first_err then first_err := Some e;
            failover Protocol.No_service pending
      and failover last = function
        | h :: rest when !budget > 0 -> attempt h rest
        | _ -> finish last
      in
      attempt sref.coordinator replicas

let ack_result = function
  | Ok Protocol.Ack -> Ok ()
  | Ok _ -> Error No_service
  | Error e -> Error e

(* Mutations drop our own cached membership immediately (read-your-
   writes); the server-pushed callback covers every other holder. *)
let self_inval t set_id = Option.iter (fun c -> Cache.self_inval c ~set_id) t.lease

let dir_add t (sref : Protocol.set_ref) oid =
  let r = ack_result (coord_call t sref (Protocol.Dir_add { set_id = sref.set_id; oid })) in
  if r = Ok () then self_inval t sref.set_id;
  r

let dir_remove t (sref : Protocol.set_ref) oid =
  let r =
    ack_result (coord_call t sref (Protocol.Dir_remove { set_id = sref.set_id; oid }))
  in
  if r = Ok () then self_inval t sref.set_id;
  r

let dir_size t (sref : Protocol.set_ref) =
  match coord_call t sref (Protocol.Dir_size { set_id = sref.set_id }) with
  | Ok (Protocol.Size n) -> Ok n
  | Ok Protocol.No_service -> Error No_service
  | Ok _ -> Error No_service
  | Error e -> Error e

let lock_acquire t (sref : Protocol.set_ref) kind =
  let owner = Weakset_sim.Engine.fresh_token (engine t) in
  (* The server stops waiting slightly before our own RPC timeout, so
     its denial reaches us rather than racing the timer — and a grant is
     never issued to a caller that has already given up. *)
  let patience = t.timeout *. 0.9 in
  match
    coord_call t sref
      (Protocol.Lock_acquire { set_id = sref.set_id; kind; owner; patience })
  with
  | Ok Protocol.Locked -> Ok owner
  | Ok Protocol.Lock_timeout -> Error Timeout
  | Ok Protocol.No_service -> Error No_service
  | Ok _ -> Error No_service
  | Error e -> Error e

let lock_release t (sref : Protocol.set_ref) ~owner =
  ack_result (coord_call t sref (Protocol.Lock_release { set_id = sref.set_id; owner }))

let iter_open t (sref : Protocol.set_ref) =
  ack_result (coord_call t sref (Protocol.Iter_open { set_id = sref.set_id }))

let iter_close t (sref : Protocol.set_ref) =
  ack_result (coord_call t sref (Protocol.Iter_close { set_id = sref.set_id }))

let reachable_oids t oids =
  let topo = topology t in
  Oid.Set.filter (fun o -> Topology.reachable topo t.node (Oid.home o)) oids

let nearest_dir_host t (sref : Protocol.set_ref) =
  let topo = topology t in
  let hosts = sref.coordinator :: sref.replicas in
  List.fold_left
    (fun best host ->
      match Topology.path_latency topo t.node host with
      | None -> best
      | Some lat -> (
          match best with
          | Some (_, blat) when blat <= lat -> best
          | Some _ | None -> Some (host, lat)))
    None hosts
  |> Option.map fst
