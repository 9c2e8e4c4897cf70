module Engine = Weakset_sim.Engine
module Mailbox = Weakset_sim.Mailbox
module Ivar = Weakset_sim.Ivar
module Bus = Weakset_obs.Bus
module Event = Weakset_obs.Event
module Metrics = Weakset_obs.Metrics

type error = Timeout | Unreachable

let pp_error fmt = function
  | Timeout -> Format.pp_print_string fmt "timeout"
  | Unreachable -> Format.pp_print_string fmt "unreachable"

let error_to_string e = Format.asprintf "%a" pp_error e

(* [parent] carries the caller-side span across the wire, so the
   server's [rpc.serve] span is parented under the client span that
   issued the call — one request, one tree. *)
type ('req, 'resp) frame =
  | Request of { id : int; reply_to : Nodeid.t; parent : int option; req : 'req }
  | Response of { id : int; resp : 'resp }

(* Opt-in admission control for a served node.  [a_admit] is consulted
   at frame arrival with the node's current depth (requests admitted but
   not yet past their CPU hold): [Some resp] sheds the request — the
   reply goes back immediately, at zero service cost, and nothing of the
   handler runs.  Admitted requests serialise their [service_time]
   through a single per-node CPU: [a_urgent] requests jump the CPU queue
   (control traffic must not wait behind a data-path backlog).  The
   handler body itself still runs in the request's own fiber after the
   CPU hold, so handlers that park (lock waits, ghost deferrals, quorum
   submits) never wedge the server. *)
type ('req, 'resp) admission = {
  a_urgent : 'req -> bool;
  a_admit : depth:int -> 'req -> 'resp option;
  a_on_depth : int -> unit;
}

type ('req, 'resp) handler = {
  service_time : 'req -> float;
  op : ('req -> string) option;
  admission : ('req, 'resp) admission option;
  fn : 'req -> 'resp;
}

(* The per-node CPU behind admission: one service hold at a time, with a
   two-band wait queue (control jumps).  FIFO within a band keeps runs
   deterministic. *)
type cpu = {
  mutable busy : bool;
  q_control : unit Ivar.t Queue.t;
  q_normal : unit Ivar.t Queue.t;
  mutable outstanding : int;
}

let cpu_acquire eng cpu ~urgent =
  if cpu.busy then begin
    let iv = Ivar.create () in
    Queue.push iv (if urgent then cpu.q_control else cpu.q_normal);
    Ivar.read eng iv
  end
  else cpu.busy <- true

let cpu_release eng cpu =
  match Queue.take_opt cpu.q_control with
  | Some iv -> Ivar.fill eng iv () (* hand-off: busy stays true *)
  | None -> (
      match Queue.take_opt cpu.q_normal with
      | Some iv -> Ivar.fill eng iv ()
      | None -> cpu.busy <- false)

(* A client-side request tap, consulted before the node's [handler].
   Lets a client cache answer server-pushed messages (lease callbacks)
   on a node that also runs a full store service: the interceptor
   claims exactly the requests [i_handles] labels, everything else
   falls through. *)
type ('req, 'resp) interceptor = {
  i_handles : 'req -> string option;
  i_fn : 'req -> 'resp;
}

(* A call waiting for its response.  [dst] is kept so the failure
   detector can fail pending calls when their destination crashes. *)
type 'resp pending_call = {
  p_dst : Nodeid.t;
  p_ivar : ('resp, error) result Ivar.t;
}

type ('req, 'resp) t = {
  transport : ('req, 'resp) frame Transport.t;
  detect_delay : float;
  pending : (int, 'resp pending_call) Hashtbl.t;
  handlers : (int, ('req, 'resp) handler) Hashtbl.t;
  cpus : (int, cpu) Hashtbl.t;
  interceptors : (int, ('req, 'resp) interceptor) Hashtbl.t;
  c_calls : Metrics.counter;
  c_ok : Metrics.counter;
  c_timeout : Metrics.counter;
  c_unreachable : Metrics.counter;
  h_latency : Metrics.histogram;
      (* wall (virtual) time per call, exemplar-linked to the caller span *)
  mutable demux_running : Nodeid.Set.t;
  mutable next_id : int;
  mutable serving_span : int option;
      (* the rpc.serve span whose handler is running right now; valid
         only during the synchronous prefix of a handler body (before
         its first yield), which is where servers stamp Store_op *)
}

let engine t = Transport.engine t.transport
let topology t = Transport.topology t.transport
let bus t = Transport.bus t.transport
let stats t = Transport.stats t.transport

(* The failure detector for in-flight calls: when the topology changes,
   any pending call whose destination is now down is failed with
   [Unreachable] after [detect_delay] — mirroring the fast-path
   detection for destinations already unreachable at call time.  Without
   this, a call to a node that crashes mid-call burns the full timeout.
   Link failures that leave the destination up are NOT detected: a cut
   link is indistinguishable from a lost message, so those calls still
   time out. *)
let install_failure_detector t =
  let topo = topology t in
  Topology.on_change topo (fun () ->
      let eng = engine t in
      Hashtbl.iter
        (fun id p ->
          if not (Topology.node_up topo p.p_dst) then
            Engine.schedule eng ~after:t.detect_delay (fun () ->
                if Hashtbl.mem t.pending id
                   && not (Topology.node_up topo p.p_dst)
                then ignore (Ivar.try_fill eng p.p_ivar (Error Unreachable))))
        t.pending)

let create ?(detect_delay = 0.5) engine topo =
  let transport = Transport.create engine topo in
  let m = Weakset_sim.Engine.metrics engine in
  let labels = Netstat.labels ~instance:(Transport.instance transport) in
  let t =
    {
      transport;
      detect_delay;
      pending = Hashtbl.create 64;
      handlers = Hashtbl.create 16;
      cpus = Hashtbl.create 16;
      interceptors = Hashtbl.create 4;
      c_calls = Metrics.counter m ~labels "rpc.calls";
      c_ok = Metrics.counter m ~labels "rpc.ok";
      c_timeout = Metrics.counter m ~labels "rpc.timeout";
      c_unreachable = Metrics.counter m ~labels "rpc.unreachable";
      h_latency = Metrics.histogram m ~labels "rpc.latency";
      demux_running = Nodeid.Set.empty;
      next_id = 0;
      serving_span = None;
    }
  in
  install_failure_detector t;
  t

let serving_span t = t.serving_span

let cpu_of t key =
  match Hashtbl.find_opt t.cpus key with
  | Some c -> c
  | None ->
      let c =
        {
          busy = false;
          q_control = Queue.create ();
          q_normal = Queue.create ();
          outstanding = 0;
        }
      in
      Hashtbl.replace t.cpus key c;
      c

let queue_depth t node =
  match Hashtbl.find_opt t.cpus (Nodeid.to_int node) with
  | None -> 0
  | Some c -> c.outstanding

let handle_frame t node (env : ('req, 'resp) frame Transport.envelope) =
  let eng = engine t in
  match env.payload with
  | Request { id; reply_to; parent; req } -> (
      let key = Nodeid.to_int node in
      let intercepted =
        match Hashtbl.find_opt t.interceptors key with
        | None -> None
        | Some i -> (
            match i.i_handles req with
            | None -> None
            | Some label -> Some (label, i.i_fn))
      in
      (* The serve span carries the op label when the service provides
         one ("rpc.serve.fetch"), so per-op profiling and SLO tracking
         see server time split by request type.  Interceptors serve in
         zero virtual time: they answer from local state. *)
      let serve_plan =
        match intercepted with
        | Some (label, fn) -> Some ("rpc.serve." ^ label, 0.0, None, fn)
        | None -> (
            match Hashtbl.find_opt t.handlers key with
            | None -> None (* no service here: the request is silently lost *)
            | Some h ->
                let span_name =
                  match h.op with
                  | None -> "rpc.serve"
                  | Some label -> "rpc.serve." ^ label req
                in
                Some (span_name, h.service_time req, h.admission, h.fn))
      in
      match serve_plan with
      | None -> ()
      | Some (span_name, service, admission, fn) ->
          if Topology.node_up (topology t) node then begin
            let shed =
              match admission with
              | None -> None
              | Some adm -> adm.a_admit ~depth:(cpu_of t key).outstanding req
            in
            match shed with
            | Some shed_resp ->
                (* Shed at arrival: the reply leaves immediately, at zero
                   service cost, from the demux fiber itself — nothing of
                   the handler ran, so the op is a clean no-op in the
                   computation. *)
                Transport.send t.transport ~src:node ~dst:reply_to
                  (Response { id; resp = shed_resp })
            | None ->
                let admitted =
                  match admission with
                  | None -> None
                  | Some adm ->
                      let cpu = cpu_of t key in
                      cpu.outstanding <- cpu.outstanding + 1;
                      adm.a_on_depth cpu.outstanding;
                      Some (adm, cpu)
                in
                Engine.spawn eng
                  ~name:("rpc-handler-" ^ Nodeid.to_string node ^ "-" ^ string_of_int id)
                  (fun () ->
                    Bus.with_span_id (bus t)
                      ~time:(fun () -> Engine.now eng)
                      ~node:(Nodeid.to_int node) ?parent span_name
                      (fun span ->
                        (* Under admission the service hold serialises
                           through the node CPU; queue wait shows up as
                           leading self-time of the serve span, which
                           opened at arrival. *)
                        (match admitted with
                        | None -> if service > 0.0 then Engine.sleep eng service
                        | Some (adm, cpu) ->
                            cpu_acquire eng cpu ~urgent:(adm.a_urgent req);
                            if service > 0.0 then Engine.sleep eng service;
                            cpu_release eng cpu;
                            cpu.outstanding <- cpu.outstanding - 1;
                            adm.a_on_depth cpu.outstanding);
                        (* Expose the serve span for the synchronous handler
                           prefix, where servers emit their Store_op. *)
                        t.serving_span <- Some span;
                        let resp =
                          Fun.protect
                            ~finally:(fun () -> t.serving_span <- None)
                            (fun () -> fn req)
                        in
                        Transport.send t.transport ~src:node ~dst:reply_to
                          (Response { id; resp })))
          end)
  | Response { id; resp } -> (
      match Hashtbl.find_opt t.pending id with
      | None -> () (* caller already timed out or gave up *)
      | Some p -> ignore (Ivar.try_fill eng p.p_ivar (Ok resp)))

let ensure_demux t node =
  if not (Nodeid.Set.mem node t.demux_running) then begin
    t.demux_running <- Nodeid.Set.add node t.demux_running;
    let eng = engine t in
    let mb = Transport.mailbox t.transport node in
    Engine.spawn eng ~name:(Printf.sprintf "rpc-demux-%s" (Nodeid.to_string node)) (fun () ->
        let rec loop () =
          (* The long timeout lets the demux fiber end once the
             simulation is otherwise quiescent, instead of staying parked
             forever.  Each frame that arrives first cancels it
             ([Engine.cancel]), so an answered wait leaves only a tick. *)
          match Mailbox.recv_timeout eng mb 1.0e9 with
          | None -> ()
          | Some env ->
              handle_frame t node env;
              loop ()
        in
        loop ())
  end

let serve t node ?(service_time = fun _ -> 0.0) ?op ?admission fn =
  Hashtbl.replace t.handlers (Nodeid.to_int node) { service_time; op; admission; fn };
  ensure_demux t node

let intercept t node ~handles fn =
  Hashtbl.replace t.interceptors (Nodeid.to_int node) { i_handles = handles; i_fn = fn };
  ensure_demux t node

let call t ?parent ~src ~dst ~timeout req =
  let eng = engine t in
  let topo = topology t in
  Metrics.inc t.c_calls;
  t.next_id <- t.next_id + 1;
  let id = t.next_id in
  let srci = Nodeid.to_int src and dsti = Nodeid.to_int dst in
  let t0 = Engine.now eng in
  Bus.emit (bus t) ~time:t0
    (Event.Rpc_call
       { src = srci; dst = dsti; id; lc = Transport.lamport_tick t.transport src; parent });
  let finish outcome result =
    Metrics.inc
      (match outcome with
      | Event.Rpc_ok -> t.c_ok
      | Event.Rpc_timeout -> t.c_timeout
      | Event.Rpc_unreachable -> t.c_unreachable);
    (* Exemplar stamped with the caller-side span: a tail latency in a
       black-box dump points straight back at the request tree that
       produced it. *)
    Metrics.observe_ex t.h_latency ~time:(Engine.now eng) ?span:parent
      (Engine.now eng -. t0);
    Bus.emit (bus t) ~time:(Engine.now eng)
      (Event.Rpc_done
         {
           src = srci;
           dst = dsti;
           id;
           outcome;
           lc = Transport.lamport_tick t.transport src;
         });
    result
  in
  ensure_demux t src;
  (* [reachable] is false when either endpoint is down, so a crashed
     destination is detected here exactly like a partitioned one; the
     explicit [node_up] check documents that failure-detector contract. *)
  if not (Topology.reachable topo src dst) || not (Topology.node_up topo dst)
  then begin
    Engine.sleep eng (Float.min t.detect_delay timeout);
    finish Event.Rpc_unreachable (Error Unreachable)
  end
  else begin
    let iv = Ivar.create () in
    Hashtbl.replace t.pending id { p_dst = dst; p_ivar = iv };
    Transport.send t.transport ~src ~dst (Request { id; reply_to = src; parent; req });
    let r = Ivar.read_timeout eng iv timeout in
    Hashtbl.remove t.pending id;
    match r with
    | Some (Ok resp) -> finish Event.Rpc_ok (Ok resp)
    | Some (Error Unreachable) -> finish Event.Rpc_unreachable (Error Unreachable)
    | Some (Error Timeout) -> finish Event.Rpc_timeout (Error Timeout)
    | None -> finish Event.Rpc_timeout (Error Timeout)
  end
