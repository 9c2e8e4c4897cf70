module Engine = Weakset_sim.Engine
module Ivar = Weakset_sim.Ivar
module Nodeid = Weakset_net.Nodeid
module Rpc = Weakset_net.Rpc

type rpc = (Protocol.request, Protocol.response) Rpc.t

type mutation_policy = Immediate | Defer_removes_while_iterating

type admission = { capacity : int }

type dir_state = {
  dir : Directory.t;
  lock : Lockmgr.t;
  policy : mutation_policy;
  mutable open_iters : int;
  mutable deferred : Oid.t list; (* ghost copies awaiting GC, newest first *)
  mutable defer_waiters : (Oid.t * Protocol.response Ivar.t) list;
      (* under a replication group a deferred remove is not Acked when it
         is deferred — the requester parks here and is answered when the
         deferral actually quorum-commits (or is redirected) *)
  mutable hooks : (Directory.op -> unit) list; (* fired on every applied mutation *)
  mutable lessees : (int * float) list; (* callback promises: node, server-side expiry *)
}

type replica_state = {
  set_id : int;
  of_ : Nodeid.t;
  mutable r_version : Version.t;
  mutable r_members : Oid.Set.t;
  r_listed : Directory.listing; (* of [r_members], shared like {!Directory.elements} *)
}

let replica_read r : Protocol.response =
  Members { version = r.r_version; members = Directory.list_of r.r_listed r.r_members }

(* Consensus attachment (lib/repl): when a replication group governs
   some of this node's directories, client-facing mutations detour
   through [submit] (quorum commit before Ack) and [Protocol.Repl]
   traffic is dispatched to [handle_repl].  The group applies committed
   entries back through {!repl_apply_committed}, so the hosted
   [Directory.t] only ever holds committed state. *)
type repl_hooks = {
  repl_submit : set_id:int -> Directory.op -> Protocol.response option;
      (* [None]: the group does not govern [set_id]; serve it locally *)
  repl_governs : set_id:int -> bool;
      (* does a group govern [set_id]?  Unlike [repl_submit] this is a
         pure question — it lets the deferral path decide to park a
         reply without submitting anything yet *)
  repl_handle : Protocol.repl_request -> Protocol.response;
}

type t = {
  rpc : rpc;
  node : Nodeid.t;
  objects : (int, Svalue.t) Hashtbl.t; (* keyed by Oid.num; homes are checked *)
  dirs : (int, dir_state) Hashtbl.t;
  replicas : (int, replica_state) Hashtbl.t;
  fetch_service : Svalue.t -> float;
  dir_service : float;
  lease_ttl : float;
  mutable repl : repl_hooks option;
  c_pull_failures : Weakset_obs.Metrics.counter;
      (* engine-wide like [obs.flight.dropped]: interning shares the cell *)
}

(* Server-side lessee records outlive the granted TTL by this slack: the
   client clocks its lease from the moment the answer {e arrives}, so
   its entry expires one message flight later than the grant time.
   Without the slack, a mutation landing inside that flight-time window
   would skip a callback the client still relies on. *)
let lease_slack = 5.0

(* How long an Inval push fiber waits for the lessee's ack.  Best
   effort: a partitioned lessee cannot be reached, and its lease expiry
   bounds the staleness instead — Coda's callbacks degraded gracefully. *)
let inval_push_timeout = 5.0

(* Break outstanding callbacks after a mutation: push one Inval to every
   unexpired lessee, each from its own fiber so the mutating request
   never blocks on its lessees, then forget them all (a lessee that
   still cares re-registers with its next leased read). *)
let break_callbacks t ~set_id d =
  match d.lessees with
  | [] -> ()
  | lessees ->
      d.lessees <- [];
      let eng = Rpc.engine t.rpc in
      let now = Engine.now eng in
      let version = Directory.version d.dir in
      List.iter
        (fun (lessee, expires) ->
          if expires > now then
            Engine.spawn eng
              ~name:
                (Printf.sprintf "inval-push-%s-set%d-n%d" (Nodeid.to_string t.node)
                   set_id lessee)
              (fun () ->
                ignore
                  (Rpc.call t.rpc ~src:t.node ~dst:(Nodeid.of_int lessee)
                     ~timeout:inval_push_timeout
                     (Protocol.Inval { set_id; version }))))
        lessees

(* Apply [op] and fire mutation hooks only if the directory actually
   changed (idempotent re-adds/re-removes are invisible to observers).
   A real change also breaks outstanding lease callbacks. *)
let apply_and_notify t ~set_id d op =
  let before = Directory.version d.dir in
  let after = Directory.apply d.dir op in
  if not (Version.equal before after) then begin
    List.iter (fun h -> h op) d.hooks;
    break_callbacks t ~set_id d
  end

let node t = t.node

let default_fetch_service v = 0.05 +. (float_of_int (Svalue.size v) /. 50_000.0)

let put_object t oid v =
  if not (Nodeid.equal (Oid.home oid) t.node) then
    invalid_arg "Node_server.put_object: oid homed elsewhere";
  Hashtbl.replace t.objects (Oid.num oid) v

let has_object t oid = Hashtbl.mem t.objects (Oid.num oid)

let dir_state t set_id =
  match Hashtbl.find_opt t.dirs set_id with Some d -> Some d | None -> None

let directory_truth t ~set_id =
  match dir_state t set_id with Some d -> d.dir | None -> raise Not_found

let lock_of t ~set_id =
  match dir_state t set_id with Some d -> d.lock | None -> raise Not_found

let open_iterators t ~set_id =
  match dir_state t set_id with Some d -> d.open_iters | None -> raise Not_found

let deferred_removes t ~set_id =
  match dir_state t set_id with Some d -> List.rev d.deferred | None -> raise Not_found

(* Route one mutation through the attached consensus group, if any.
   [Some resp] is the group's verdict (Ack once a majority logged it,
   Not_leader as a redirect, No_service while leaderless); [None] means
   no group governs this set and the caller applies locally. *)
let repl_submit t ~set_id op =
  match t.repl with
  | Some h -> h.repl_submit ~set_id op
  | None -> None

let repl_governed t ~set_id =
  match t.repl with Some h -> h.repl_governs ~set_id | None -> false

(* How long a parked deferred-remove reply waits for the last iterator
   to close and the remove to commit.  Kept under the client's default
   RPC timeout (30) so the retryable non-answer reaches the client
   instead of racing its timer. *)
let defer_patience = 25.0

let apply_deferred t ~set_id d =
  let deferred = List.rev d.deferred in
  d.deferred <- [];
  let waiters = List.rev d.defer_waiters in
  d.defer_waiters <- [];
  let eng = Rpc.engine t.rpc in
  let answer oid resp =
    List.iter
      (fun (o, iv) -> if Oid.equal o oid then ignore (Ivar.try_fill eng iv resp))
      waiters
  in
  List.iter
    (fun oid ->
      let op = Directory.Remove oid in
      match repl_submit t ~set_id op with
      | Some resp ->
          (* The group's verdict reaches the parked requester verbatim:
             Ack only once a majority committed the remove; a redirect
             (Not_leader / No_service) means it did NOT commit — the
             ghost simply stays a member here and the client retries
             against the new leader, so nothing acknowledged is lost. *)
          answer oid resp
      | None ->
          apply_and_notify t ~set_id d op;
          answer oid Protocol.Ack)
    deferred

(* Ghost deferral under consensus: the remove must stay invisible while
   iterators are open, but an immediate Ack here would be a leader-local
   promise — if this node stops leading before the last iterator closes,
   the promise dies with it, silently and outside the ledger.  So the
   deferral is recorded as usual and the {e reply} is parked until
   {!apply_deferred} pushes the remove through the group.  Past
   [defer_patience] the client gets a retryable [No_service] instead of
   a wedged RPC. *)
let defer_remove_replicated t d oid =
  let pending = List.exists (Oid.equal oid) d.deferred in
  if (not (Directory.mem d.dir oid)) && not pending then Protocol.Ack
    (* already gone: a no-op remove, acked without logging — exactly the
       group's own effectiveness rule *)
  else begin
    if not pending then d.deferred <- oid :: d.deferred;
    let iv = Ivar.create () in
    d.defer_waiters <- (oid, iv) :: d.defer_waiters;
    match Ivar.read_timeout (Rpc.engine t.rpc) iv defer_patience with
    | Some resp -> resp
    | None -> Protocol.No_service
  end

let handle t req : Protocol.response =
  let eng = Rpc.engine t.rpc in
  Weakset_obs.Bus.emit (Weakset_sim.Engine.bus eng)
    ~time:(Weakset_sim.Engine.now eng)
    (Weakset_obs.Event.Store_op
       {
         node = Nodeid.to_int t.node;
         op = Protocol.request_label req;
         parent = Rpc.serving_span t.rpc;
       });
  match req with
  | Protocol.Fetch oid -> (
      match Hashtbl.find_opt t.objects (Oid.num oid) with
      | Some v -> Value v
      | None -> Not_found)
  | Fetch_batch { oids } ->
      let found, missing =
        List.partition_map
          (fun oid ->
            match Hashtbl.find_opt t.objects (Oid.num oid) with
            | Some v -> Either.Left (oid, v)
            | None -> Either.Right oid)
          oids
      in
      Batch { found; missing }
  | Dir_read_leased { set_id; lessee } -> (
      match dir_state t set_id with
      | Some d ->
          let now = Engine.now (Rpc.engine t.rpc) in
          let lessee_i = Nodeid.to_int lessee in
          d.lessees <-
            (lessee_i, now +. t.lease_ttl +. lease_slack)
            :: List.remove_assoc lessee_i d.lessees;
          Members_leased
            {
              version = Directory.version d.dir;
              members = Directory.elements d.dir;
              lease = t.lease_ttl;
            }
      | None -> (
          (* Replicas serve already-stale views and never see the
             mutations, so they cannot promise callbacks: no lease. *)
          match Hashtbl.find_opt t.replicas set_id with
          | Some r -> replica_read r
          | None -> No_service))
  | Inval _ ->
      (* Callbacks are addressed to client caches (which claim them via
         an RPC interceptor); a bare server just acknowledges. *)
      Ack
  | Dir_read { set_id } -> (
      match dir_state t set_id with
      | Some d ->
          Members { version = Directory.version d.dir; members = Directory.elements d.dir }
      | None -> (
          match Hashtbl.find_opt t.replicas set_id with
          | Some r -> replica_read r
          | None -> No_service))
  | Dir_read_at { set_id; version } -> (
      (* Snapshot-at-version: reconstruct the membership exactly as it
         stood at [version] from the authoritative mutation log.  Only
         the coordinator can answer — replicas hold flattened views with
         no history — and no lock is taken: the log is immutable below
         the current version.  A request beyond the head is served the
         head's membership, so the reply names the head's version rather
         than one the directory has not reached. *)
      match dir_state t set_id with
      | Some d ->
          let head = Directory.version d.dir in
          let version = if Version.( < ) version head then version else head in
          Members { version; members = Directory.elements_at d.dir version }
      | None -> No_service)
  | Dir_add { set_id; oid } -> (
      match dir_state t set_id with
      | Some d -> (
          match repl_submit t ~set_id (Directory.Add oid) with
          | Some resp -> resp
          | None ->
              apply_and_notify t ~set_id d (Directory.Add oid);
              Ack)
      | None -> No_service)
  | Dir_remove { set_id; oid } -> (
      match dir_state t set_id with
      | Some d -> (
          match d.policy with
          | Defer_removes_while_iterating when d.open_iters > 0 ->
              if repl_governed t ~set_id then defer_remove_replicated t d oid
              else begin
                (* Single-home store: deferral cannot fail, so the Ack
                   is immediate — the remove is applied when the last
                   iterator closes. *)
                if Directory.mem d.dir oid && not (List.exists (Oid.equal oid) d.deferred)
                then d.deferred <- oid :: d.deferred;
                Ack
              end
          | Immediate | Defer_removes_while_iterating -> (
              match repl_submit t ~set_id (Directory.Remove oid) with
              | Some resp -> resp
              | None ->
                  apply_and_notify t ~set_id d (Directory.Remove oid);
                  Ack))
      | None -> No_service)
  | Dir_size { set_id } -> (
      match dir_state t set_id with
      | Some d -> Size (Directory.size d.dir)
      | None -> No_service)
  | Lock_acquire { set_id; kind; owner; patience } -> (
      match dir_state t set_id with
      | Some d ->
          (* Bounded by the caller's declared patience: once the client
             has given up waiting, granting it the lock anyway would
             wedge the lock behind an absent holder. *)
          if Lockmgr.acquire_within d.lock kind ~owner ~patience then Locked
          else Lock_timeout
      | None -> No_service)
  | Lock_release { set_id; owner } -> (
      match dir_state t set_id with
      | Some d ->
          Lockmgr.release d.lock ~owner;
          Ack
      | None -> No_service)
  | Iter_open { set_id } -> (
      match dir_state t set_id with
      | Some d ->
          d.open_iters <- d.open_iters + 1;
          Ack
      | None -> No_service)
  | Iter_close { set_id } -> (
      match dir_state t set_id with
      | Some d ->
          d.open_iters <- Stdlib.max 0 (d.open_iters - 1);
          if d.open_iters = 0 then apply_deferred t ~set_id d;
          Ack
      | None -> No_service)
  | Sync_pull { set_id; since } -> (
      match dir_state t set_id with
      | Some d -> Delta { version = Directory.version d.dir; ops = Directory.ops_since d.dir since }
      | None -> No_service)
  | Repl r -> (
      match t.repl with Some h -> h.repl_handle r | None -> No_service)

let service_time t req =
  match req with
  | Protocol.Fetch oid -> (
      match Hashtbl.find_opt t.objects (Oid.num oid) with
      | Some v -> t.fetch_service v
      | None -> t.dir_service)
  | Protocol.Fetch_batch { oids } ->
      (* One request's worth of dispatch overhead plus every hit's
         transfer time: batching saves round trips, not bytes. *)
      List.fold_left
        (fun acc oid ->
          match Hashtbl.find_opt t.objects (Oid.num oid) with
          | Some v -> acc +. t.fetch_service v
          | None -> acc)
        t.dir_service oids
  | _ -> t.dir_service

(* Shed thresholds per class, as a fraction of [capacity] (the depth at
   which even iterator data-path traffic sheds).  Reads go first — they
   are the cheapest to retry and carry no client-side state; mutations
   next; iterator ops last among sheddable classes (a rejection strands
   a traversal mid-stream); control traffic never sheds. *)
let shed_threshold ~capacity = function
  | Protocol.Control -> max_int
  | Protocol.Iter -> capacity
  | Protocol.Mutate -> 3 * capacity / 4
  | Protocol.Read -> capacity / 2

let make_admission t ~capacity =
  let eng = Rpc.engine t.rpc in
  let m = Engine.metrics eng in
  let node_l = [ ("node", Nodeid.to_string t.node) ] in
  let g_depth = Weakset_obs.Metrics.gauge m ~labels:node_l "srv.queue_depth" in
  let shed_counter cls =
    Weakset_obs.Metrics.counter m
      ~labels:(("class", Protocol.class_label cls) :: node_l)
      "srv.shed"
  in
  let c_shed =
    (* interned once per class; Control never sheds but keeps the row
       total honest at zero *)
    [
      (Protocol.Control, shed_counter Protocol.Control);
      (Protocol.Iter, shed_counter Protocol.Iter);
      (Protocol.Mutate, shed_counter Protocol.Mutate);
      (Protocol.Read, shed_counter Protocol.Read);
    ]
  in
  let a_admit ~depth req =
    let cls = Protocol.op_class req in
    if depth < shed_threshold ~capacity cls then None
    else begin
      (if (Engine.planted eng).shed_after_apply then
         (* the planted bug: the mutation's effect lands, outside any
            consensus submit, even though the reply says it was shed, so
            this node's directory diverges from the fold of its committed
            log *)
         match req with
         | Protocol.Dir_add { set_id; oid } -> (
             match dir_state t set_id with
             | Some d -> apply_and_notify t ~set_id d (Directory.Add oid)
             | None -> ())
         | Protocol.Dir_remove { set_id; oid } -> (
             match dir_state t set_id with
             | Some d -> apply_and_notify t ~set_id d (Directory.Remove oid)
             | None -> ())
         | _ -> ());
      Weakset_obs.Metrics.inc (List.assoc cls c_shed);
      Weakset_obs.Bus.emit (Engine.bus eng) ~time:(Engine.now eng)
        (Weakset_obs.Event.Custom
           {
             label = "srv-shed";
             detail =
               Printf.sprintf "node=%d op=%s class=%s depth=%d"
                 (Nodeid.to_int t.node) (Protocol.request_label req)
                 (Protocol.class_label cls) depth;
           });
      (* Deterministic backoff hint: the estimated time for the present
         backlog to drain through the node CPU. *)
      let retry_after = t.dir_service *. float_of_int (depth + 1) in
      Some (Protocol.Overloaded { retry_after })
    end
  in
  {
    Rpc.a_urgent = (fun req -> Protocol.op_class req = Protocol.Control);
    a_admit;
    a_on_depth =
      (fun depth -> Weakset_obs.Metrics.set_gauge g_depth (float_of_int depth));
  }

let create ?fetch_service ?(dir_service = 0.02) ?(lease_ttl = 30.0) ?admission rpc
    node =
  let t =
    {
      rpc;
      node;
      objects = Hashtbl.create 64;
      dirs = Hashtbl.create 4;
      replicas = Hashtbl.create 4;
      fetch_service = Option.value fetch_service ~default:default_fetch_service;
      dir_service;
      lease_ttl;
      repl = None;
      c_pull_failures =
        Weakset_obs.Metrics.counter (Engine.metrics (Rpc.engine rpc))
          "replica.pull_failures";
    }
  in
  let admission =
    Option.map (fun { capacity } -> make_admission t ~capacity) admission
  in
  Rpc.serve rpc node ~service_time:(service_time t) ~op:Protocol.request_label
    ?admission (handle t);
  t

let host_directory t ~set_id ~policy =
  Hashtbl.replace t.dirs set_id
    {
      dir = Directory.create ();
      lock = Lockmgr.create (Rpc.engine t.rpc);
      policy;
      open_iters = 0;
      deferred = [];
      defer_waiters = [];
      hooks = [];
      lessees = [];
    }

let on_directory_mutation t ~set_id hook =
  match Hashtbl.find_opt t.dirs set_id with
  | Some d ->
      d.hooks <- d.hooks @ [ hook ];
      fun () -> d.hooks <- List.filter (fun h -> h != hook) d.hooks
  | None -> raise Not_found

let replica_state t set_id =
  match Hashtbl.find_opt t.replicas set_id with Some r -> r | None -> raise Not_found

let replica_view t ~set_id =
  let r = replica_state t set_id in
  (r.r_version, r.r_members)

let apply_delta r version ops =
  List.iter
    (fun (_, op) ->
      match op with
      | Directory.Add o -> r.r_members <- Oid.Set.add o r.r_members
      | Directory.Remove o -> r.r_members <- Oid.Set.remove o r.r_members)
    ops;
  r.r_version <- Version.max r.r_version version

(* A failed pull is not silent: the replica just went (more) stale, which
   is exactly what a flight-recorder dump wants to show next to a stale
   read.  Counted engine-wide (surfaced by [Netstat]) and narrated on the
   bus with the node/set/cause detail. *)
let note_pull_failure t ~set_id ~cause =
  let eng = Rpc.engine t.rpc in
  Weakset_obs.Metrics.inc t.c_pull_failures;
  Weakset_obs.Bus.emit (Engine.bus eng) ~time:(Engine.now eng)
    (Weakset_obs.Event.Custom
       {
         label = "replica-pull-failure";
         detail =
           Printf.sprintf "node=%d set%d cause=%s" (Nodeid.to_int t.node) set_id
             cause;
       })

let replica_pull_now t ~set_id =
  let r = replica_state t set_id in
  match
    Rpc.call t.rpc ~src:t.node ~dst:r.of_ ~timeout:10.0
      (Protocol.Sync_pull { set_id; since = r.r_version })
  with
  | Ok (Protocol.Delta { version; ops }) ->
      apply_delta r version ops;
      true
  | Ok _ ->
      note_pull_failure t ~set_id ~cause:"bad-answer";
      false
  | Error Weakset_net.Rpc.Timeout ->
      note_pull_failure t ~set_id ~cause:"timeout";
      false
  | Error Weakset_net.Rpc.Unreachable ->
      note_pull_failure t ~set_id ~cause:"unreachable";
      false

let attach_repl t hooks = t.repl <- Some hooks

(* The group's apply-upcall: a committed entry lands in the hosted
   directory exactly like a local mutation would — hooks fire, lease
   callbacks break — so monitors and caches cannot tell consensus from
   the single-home store.  Raises [Not_found] if [set_id] is not hosted
   (a group member always hosts the directories it replicates). *)
let repl_apply_committed t ~set_id op =
  match Hashtbl.find_opt t.dirs set_id with
  | Some d -> apply_and_notify t ~set_id d op
  | None -> raise Not_found

let host_replica t ~set_id ~of_ ~interval ~until =
  Hashtbl.replace t.replicas set_id
    {
      set_id;
      of_;
      r_version = Version.zero;
      r_members = Oid.Set.empty;
      r_listed = Directory.listing ();
    };
  let eng = Rpc.engine t.rpc in
  Engine.spawn eng
    ~name:(Printf.sprintf "replica-sync-%s-set%d" (Nodeid.to_string t.node) set_id)
    (fun () ->
      let rec loop () =
        if Engine.now eng < until then begin
          Engine.sleep eng interval;
          ignore (replica_pull_now t ~set_id);
          loop ()
        end
      in
      loop ())
