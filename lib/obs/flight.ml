type cause =
  | Slo_burn of { op : string; severity : string; burn : float }
  | Monitor_violation of { set_id : int; where : string }
  | Node_crash of { node : int }
  | Oracle_verdict of { category : string; detail : string }
  | Manual of string

type dump = { d_time : float; d_cause : cause; d_json : string }

type span_info = {
  si_parent : int option;
  si_name : string;
  si_node : int option;
  si_start : float;
}

type t = {
  capacity : int;
  debounce : float;
  inflight_cap : int;
  bus : Bus.t;
  rings : (int, Ring.t) Hashtbl.t; (* node id, -1 = global *)
  inflight : (int, span_info) Hashtbl.t; (* span id -> open span *)
  mutable inflight_dropped : int;
  dropped_c : Metrics.counter; (* mirrors ring overwrites into the registry *)
  mutable last_dump : float option;
  mutable suppressed : int;
  mutable dumps_rev : dump list;
}

let cause_label = function
  | Slo_burn _ -> "slo-burn"
  | Monitor_violation _ -> "spec-violation"
  | Node_crash _ -> "node-crash"
  | Oracle_verdict _ -> "oracle-verdict"
  | Manual _ -> "manual"

let cause_describe = function
  | Slo_burn { op; severity; burn } ->
      Printf.sprintf "SLO burn on %s: severity=%s burn=%.3g" op severity burn
  | Monitor_violation { set_id; where } ->
      Printf.sprintf "spec violation on set %d at %s" set_id where
  | Node_crash { node } -> Printf.sprintf "node %d crashed" node
  | Oracle_verdict { category; detail } ->
      Printf.sprintf "oracle verdict [%s]: %s" category detail
  | Manual detail -> detail

let jfloat f = Printf.sprintf "%.17g" f

let cause_json c =
  let fields =
    match c with
    | Slo_burn { op; severity; burn } ->
        Printf.sprintf {|,"op":"%s","severity":"%s","burn":%s|}
          (Event.json_escape op) (Event.json_escape severity) (jfloat burn)
    | Monitor_violation { set_id; where } ->
        Printf.sprintf {|,"set_id":%d,"where":"%s"|} set_id
          (Event.json_escape where)
    | Node_crash { node } -> Printf.sprintf {|,"node":%d|} node
    | Oracle_verdict { category; detail } ->
        Printf.sprintf {|,"category":"%s","odetail":"%s"|}
          (Event.json_escape category) (Event.json_escape detail)
    | Manual _ -> ""
  in
  Printf.sprintf {|{"kind":"%s"%s,"detail":"%s"}|} (cause_label c) fields
    (Event.json_escape (cause_describe c))

(* Which ring an event belongs to: network traffic files under the node
   that acted (sender for sends and drops, receiver for deliveries), and
   node-stamped events under their node; everything else — scheduler,
   cluster-wide faults, alerts — goes to the global ring (-1). *)
let ring_node (k : Event.kind) =
  match k with
  | Net_send { src; _ } | Net_drop { src; _ } -> src
  | Net_deliver { dst; _ } -> dst
  | Rpc_call { src; _ } | Rpc_done { src; _ } -> src
  | Fault_node_crash { node } | Fault_node_recover { node } -> node
  | Store_op { node; _ } -> node
  | Cache_hit { node; _ }
  | Cache_miss { node; _ }
  | Cache_inval { node; _ }
  | Lease_expire { node; _ } -> node
  | Span_start { node = Some n; _ } | Span_end { node = Some n; _ } -> n
  | _ -> -1

let ring_for t node =
  match Hashtbl.find_opt t.rings node with
  | Some r -> r
  | None ->
      let r = Ring.create ~capacity:t.capacity in
      Hashtbl.replace t.rings node r;
      r

let record t (ev : Event.t) =
  (match ev.kind with
  | Span_start { span; parent; name; node } ->
      if Hashtbl.length t.inflight < t.inflight_cap then
        Hashtbl.replace t.inflight span
          { si_parent = parent; si_name = name; si_node = node; si_start = ev.time }
      else t.inflight_dropped <- t.inflight_dropped + 1
  | Span_end { span; _ } -> Hashtbl.remove t.inflight span
  | _ -> ());
  let r = ring_for t (ring_node ev.kind) in
  if Ring.length r = Ring.capacity r then Metrics.inc t.dropped_c;
  Ring.push r ev

let dropped_total t =
  Hashtbl.fold (fun _ r acc -> acc + Ring.dropped r) t.rings 0

let sorted_nodes t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.rings [] |> List.sort compare

let render_dump t ~time c =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       {|{"blackbox_version":1,"time":%s,"trigger":%s,"suppressed":%d,"capacity":%d,"dropped_total":%d,"inflight_dropped":%d|}
       (jfloat time) (cause_json c) t.suppressed t.capacity (dropped_total t)
       t.inflight_dropped);
  Buffer.add_string buf {|,"rings":[|};
  List.iteri
    (fun i node ->
      if i > 0 then Buffer.add_char buf ',';
      let r = Hashtbl.find t.rings node in
      Buffer.add_string buf
        (Printf.sprintf {|{"node":%d,"dropped":%d,"events":[|} node
           (Ring.dropped r));
      List.iteri
        (fun j ev ->
          if j > 0 then Buffer.add_char buf ',';
          Event.write_json buf ev)
        (Ring.to_list r);
      Buffer.add_string buf "]}")
    (sorted_nodes t);
  Buffer.add_string buf "]";
  let spans =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.inflight []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Buffer.add_string buf {|,"inflight":[|};
  List.iteri
    (fun i (span, si) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf {|{"span":%d%s,"name":"%s"%s,"start":%s}|} span
           (match si.si_parent with
           | None -> ""
           | Some p -> Printf.sprintf {|,"parent":%d|} p)
           (Event.json_escape si.si_name)
           (match si.si_node with
           | None -> ""
           | Some n -> Printf.sprintf {|,"node":%d|} n)
           (jfloat si.si_start)))
    spans;
  Buffer.add_string buf "]";
  Buffer.add_string buf
    (Printf.sprintf {|,"metrics":%s}|} (Metrics.to_json (Bus.metrics t.bus)));
  Buffer.contents buf

let trigger t ~time c =
  let debounced =
    match t.last_dump with
    | Some t0 -> time -. t0 < t.debounce
    | None -> false
  in
  if debounced then t.suppressed <- t.suppressed + 1
  else begin
    let json = render_dump t ~time c in
    t.dumps_rev <- { d_time = time; d_cause = c; d_json = json } :: t.dumps_rev;
    t.last_dump <- Some time;
    t.suppressed <- 0
  end

let sink t (ev : Event.t) =
  record t ev;
  match ev.kind with
  | Alert { op; severity; burn; _ } ->
      trigger t ~time:ev.time
        (Slo_burn { op; severity = Event.severity_string severity; burn })
  | Spec_violation { set_id; where; _ } ->
      trigger t ~time:ev.time (Monitor_violation { set_id; where })
  | Fault_node_crash { node } -> trigger t ~time:ev.time (Node_crash { node })
  | _ -> ()

let create ?(capacity = 512) ?(debounce = 50.0) ?(inflight_cap = 4096) bus =
  if capacity <= 0 then invalid_arg "Flight.create: capacity must be positive";
  if debounce < 0.0 then invalid_arg "Flight.create: debounce must be >= 0";
  if inflight_cap <= 0 then
    invalid_arg "Flight.create: inflight_cap must be positive";
  let t =
    {
      capacity;
      debounce;
      inflight_cap;
      bus;
      rings = Hashtbl.create 8;
      inflight = Hashtbl.create 64;
      inflight_dropped = 0;
      dropped_c = Metrics.counter (Bus.metrics bus) "obs.flight.dropped";
      last_dump = None;
      suppressed = 0;
      dumps_rev = [];
    }
  in
  Bus.attach bus ~name:"flight" (sink t);
  t

let dumps t = List.rev t.dumps_rev
let suppressed t = t.suppressed

(* --- reading dumps back ---------------------------------------------- *)

type parsed = {
  p_time : float;
  p_cause_kind : string;
  p_cause_detail : string;
  p_suppressed : int;
  p_dropped : int;
  p_events : Event.t list;
  p_inflight : (int * string) list;
  p_metrics : Json.t;
}

let ( let* ) r f = match r with Ok x -> f x | Error _ as e -> e

let parse_events rings =
  let ring_events ring =
    let* evs = Json.field "events" Json.to_list ring in
    Json.map (fun j -> Result.map_error (( ^ ) "bad event: ") (Event.of_json j)) evs
  in
  let* evs = Json.map ring_events rings in
  Ok (List.sort (fun (a : Event.t) b -> compare a.seq b.seq) (List.concat evs))

let parse_json j =
  let* version = Json.field "blackbox_version" Json.to_int j in
  if version <> 1 then Error (Printf.sprintf "unsupported version %d" version)
  else
    let* p_time = Json.field "time" Json.to_float j in
    let* trig = Json.field "trigger" Option.some j in
    let* p_cause_kind = Json.field "kind" Json.to_string trig in
    let* p_cause_detail = Json.field "detail" Json.to_string trig in
    let* p_suppressed = Json.field "suppressed" Json.to_int j in
    let* p_dropped = Json.field "dropped_total" Json.to_int j in
    let* rings = Json.field "rings" Json.to_list j in
    let* p_events = parse_events rings in
    let* spans = Json.field "inflight" Json.to_list j in
    let* p_inflight =
      Json.map
        (fun sp ->
          let* id = Json.field "span" Json.to_int sp in
          let* name = Json.field "name" Json.to_string sp in
          Ok (id, name))
        spans
    in
    let* p_metrics = Json.field "metrics" Option.some j in
    Ok
      {
        p_time;
        p_cause_kind;
        p_cause_detail;
        p_suppressed;
        p_dropped;
        p_events;
        p_inflight;
        p_metrics;
      }

let parse_dump s =
  match Json.of_string_opt s with
  | None -> Error "blackbox: not valid JSON"
  | Some j -> Result.map_error (( ^ ) "blackbox: ") (parse_json j)

let tail_exemplars metrics =
  let of_cell key cell =
    match Json.member "exemplar" cell with
    | None -> None
    | Some e -> (
        match
          ( Option.bind (Json.member "value" e) Json.to_float,
            Option.bind (Json.member "time" e) Json.to_float )
        with
        | Some v, Some tm ->
            Some (key, v, tm, Option.bind (Json.member "span" e) Json.to_int)
        | _ -> None)
  in
  let entries =
    match metrics with
    | Json.Obj kvs ->
        List.concat_map
          (fun (key, v) ->
            match Json.member "exemplars" v with
            | Some (Json.Arr cells) -> List.filter_map (of_cell key) cells
            | _ -> [])
          kvs
    | _ -> []
  in
  List.sort (fun (_, a, _, _) (_, b, _, _) -> compare b a) entries
