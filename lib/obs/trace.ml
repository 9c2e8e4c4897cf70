(* Offline trace analysis: rebuild span trees, RPCs and Lamport order
   from a recorded event stream (a live ring or a JSONL file), compute
   critical paths and per-phase latency attribution, and flag anomalies.
   Everything here is deterministic: same event stream, byte-identical
   renderings. *)

(* --- JSONL segments -------------------------------------------------- *)

type segment = { sname : string; events : Event.t list }

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* A trace file is a sequence of event lines, optionally partitioned by
   {"note":"..."} lines (one per world in a bench run).  Each traversal
   opens the file afresh and parses one segment per step, so a reader
   holds one segment at a time; the channel closes at the end of the
   file or on the first malformed line. *)
let segments path () =
  let ic = open_in path in
  let lineno = ref 0 in
  (* The next note name, event, or [None] at the end of the file. *)
  let rec next_item () =
    match input_line ic with
    | exception End_of_file -> None
    | line -> (
        incr lineno;
        if String.trim line = "" then next_item ()
        else
          match Json.of_string_opt line with
          | None -> malformed "%s:%d: not JSON" path !lineno
          | Some j -> (
              match Option.bind (Json.member "note" j) Json.to_string with
              | Some note -> Some (Either.Left note)
              | None -> (
                  match Event.of_json j with
                  | Ok e -> Some (Either.Right e)
                  | Error msg -> malformed "%s:%d: %s" path !lineno msg)))
  in
  let item () =
    try next_item ()
    with exn ->
      close_in_noerr ic;
      raise exn
  in
  let rec segment name events () =
    let emit rest =
      if name <> None || events <> [] then
        Seq.Cons ({ sname = Option.value name ~default:""; events = List.rev events }, rest)
      else rest ()
    in
    match item () with
    | Some (Either.Right e) -> segment name (e :: events) ()
    | Some (Either.Left note) -> emit (segment (Some note) [])
    | None ->
        close_in ic;
        emit Seq.empty
  in
  segment None [] ()

(* --- reconstruction -------------------------------------------------- *)

type span = {
  id : int;
  name : string;
  node : int option;
  parent : int option;
  start_seq : int;
  start_time : float;
  mutable end_time : float option; (* None = never closed *)
  mutable children : int list; (* child span ids, stream order *)
  mutable rpcs : int list; (* rpc ids parented here, stream order *)
  mutable ops : string list; (* store ops parented here, stream order *)
}

type rpc = {
  rpc_id : int;
  rpc_src : int;
  rpc_dst : int;
  rpc_parent : int option;
  call_time : float;
  mutable done_time : float option;
  mutable outcome : Event.rpc_outcome option;
}

type cache_counts = {
  cc_hit_dir : int;
  cc_hit_obj : int;
  cc_miss_dir : int;
  cc_miss_obj : int;
  cc_inval : int;
  cc_expire : int;
}

let no_cache_activity =
  { cc_hit_dir = 0; cc_hit_obj = 0; cc_miss_dir = 0; cc_miss_obj = 0; cc_inval = 0; cc_expire = 0 }

type t = {
  event_count : int;
  span_tbl : (int, span) Hashtbl.t;
  rpc_tbl : (int, rpc) Hashtbl.t;
  root_ids : int list; (* parentless spans, stream order *)
  orphan_ids : int list; (* spans whose parent never started, stream order *)
  label_counts : (string * int) list; (* per event label, sorted *)
  cache : cache_counts;
  (* (seq, node, lc) of every Lamport-stamped event, stream order *)
  stamped : (int * int * int) list;
  (* (seq, src, dst, send_lc, lc) of every delivery, stream order *)
  delivers : (int * int * int * int * int) list;
}

let span_dur s = Option.map (fun e -> e -. s.start_time) s.end_time

let build events =
  let span_tbl = Hashtbl.create 256 in
  let rpc_tbl = Hashtbl.create 256 in
  let order = ref [] in
  let label_counts = Hashtbl.create 16 in
  let stamped = ref [] in
  let delivers = ref [] in
  let cache = ref no_cache_activity in
  let n = ref 0 in
  let bump_label k =
    let l = Event.label k in
    Hashtbl.replace label_counts l (1 + Option.value (Hashtbl.find_opt label_counts l) ~default:0)
  in
  let stamp seq node lc = stamped := (seq, node, lc) :: !stamped in
  List.iter
    (fun (e : Event.t) ->
      incr n;
      bump_label e.kind;
      match e.kind with
      | Event.Span_start { span = id; parent; name; node } ->
          let s =
            {
              id;
              name;
              node;
              parent;
              start_seq = e.seq;
              start_time = e.time;
              end_time = None;
              children = [];
              rpcs = [];
              ops = [];
            }
          in
          Hashtbl.replace span_tbl id s;
          order := id :: !order;
          Option.iter
            (fun p ->
              match Hashtbl.find_opt span_tbl p with
              | Some ps -> ps.children <- id :: ps.children
              | None -> ())
            parent
      | Event.Span_end { span = id; _ } -> (
          match Hashtbl.find_opt span_tbl id with
          | Some s -> s.end_time <- Some e.time
          | None -> ())
      | Event.Rpc_call { src; dst; id; lc; parent } ->
          stamp e.seq src lc;
          let r =
            {
              rpc_id = id;
              rpc_src = src;
              rpc_dst = dst;
              rpc_parent = parent;
              call_time = e.time;
              done_time = None;
              outcome = None;
            }
          in
          Hashtbl.replace rpc_tbl id r;
          Option.iter
            (fun p ->
              match Hashtbl.find_opt span_tbl p with
              | Some ps -> ps.rpcs <- id :: ps.rpcs
              | None -> ())
            parent
      | Event.Rpc_done { src; id; outcome; lc; _ } -> (
          stamp e.seq src lc;
          match Hashtbl.find_opt rpc_tbl id with
          | Some r ->
              r.done_time <- Some e.time;
              r.outcome <- Some outcome
          | None -> ())
      | Event.Net_send { src; lc; _ } -> stamp e.seq src lc
      | Event.Net_deliver { src; dst; send_lc; lc; _ } ->
          stamp e.seq dst lc;
          delivers := (e.seq, src, dst, send_lc, lc) :: !delivers
      | Event.Store_op { op; parent; _ } ->
          Option.iter
            (fun p ->
              match Hashtbl.find_opt span_tbl p with
              | Some ps -> ps.ops <- op :: ps.ops
              | None -> ())
            parent
      | Event.Cache_hit { ckind = Event.Cache_dir; _ } ->
          cache := { !cache with cc_hit_dir = !cache.cc_hit_dir + 1 }
      | Event.Cache_hit { ckind = Event.Cache_obj; _ } ->
          cache := { !cache with cc_hit_obj = !cache.cc_hit_obj + 1 }
      | Event.Cache_miss { ckind = Event.Cache_dir; _ } ->
          cache := { !cache with cc_miss_dir = !cache.cc_miss_dir + 1 }
      | Event.Cache_miss { ckind = Event.Cache_obj; _ } ->
          cache := { !cache with cc_miss_obj = !cache.cc_miss_obj + 1 }
      | Event.Cache_inval _ -> cache := { !cache with cc_inval = !cache.cc_inval + 1 }
      | Event.Lease_expire _ -> cache := { !cache with cc_expire = !cache.cc_expire + 1 }
      | _ -> ())
    events;
  Hashtbl.iter
    (fun _ s ->
      s.children <- List.rev s.children;
      s.rpcs <- List.rev s.rpcs;
      s.ops <- List.rev s.ops)
    span_tbl;
  let all_ids = List.rev !order in
  let root_ids =
    List.filter (fun id -> (Hashtbl.find span_tbl id).parent = None) all_ids
  in
  let orphan_ids =
    List.filter
      (fun id ->
        match (Hashtbl.find span_tbl id).parent with
        | Some p -> not (Hashtbl.mem span_tbl p)
        | None -> false)
      all_ids
  in
  {
    event_count = !n;
    span_tbl;
    rpc_tbl;
    root_ids;
    orphan_ids;
    label_counts =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) label_counts []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    cache = !cache;
    stamped = List.rev !stamped;
    delivers = List.rev !delivers;
  }

let of_segment seg = build seg.events

let event_count t = t.event_count
let span t id = Hashtbl.find_opt t.span_tbl id

let spans t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.span_tbl []
  |> List.sort (fun a b -> compare a.start_seq b.start_seq)

(* Orphans have a parent that never appeared, so nothing links down to
   them: treat them as extra roots to keep every span printable. *)
let roots t = List.map (Hashtbl.find t.span_tbl) (t.root_ids @ t.orphan_ids)

let rpcs t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.rpc_tbl []
  |> List.sort (fun a b -> compare a.rpc_id b.rpc_id)

(* --- anomalies ------------------------------------------------------- *)

type anomaly =
  | Unclosed_span of span
  | Orphan_parent of span
  | Unfinished_rpc of rpc
  | Lamport_regression of { node : int; seq : int; lc : int; prev : int }
  | Deliver_not_after_send of { seq : int; src : int; dst : int; send_lc : int; lc : int }
  | Slow_span of { sp : span; dur : float; threshold : float }

let pp_anomaly fmt = function
  | Unclosed_span s ->
      Format.fprintf fmt "unclosed span #%d %s (started t=%.2f)" s.id s.name s.start_time
  | Orphan_parent s ->
      Format.fprintf fmt "span #%d %s has orphan parent #%d" s.id s.name
        (Option.value s.parent ~default:(-1))
  | Unfinished_rpc r ->
      Format.fprintf fmt "rpc#%d n%d->n%d never completed (called t=%.2f)" r.rpc_id
        r.rpc_src r.rpc_dst r.call_time
  | Lamport_regression { node; seq; lc; prev } ->
      Format.fprintf fmt "lamport regression on n%d at seq %d: lc=%d after lc=%d" node seq
        lc prev
  | Deliver_not_after_send { seq; src; dst; send_lc; lc } ->
      Format.fprintf fmt
        "delivery n%d->n%d at seq %d not lamport-after its send (lc=%d <= send_lc=%d)" src
        dst seq lc send_lc
  | Slow_span { sp; dur; threshold } ->
      Format.fprintf fmt "slow span #%d %s: dur=%.2f exceeds p-threshold %.2f" sp.id
        sp.name dur threshold

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Trace.percentile: empty"
  else if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let frac = rank -. float_of_int lo in
    if lo >= n - 1 then sorted.(n - 1)
    else (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(lo + 1) *. frac)
  end

(* [slow_pct], when given, additionally flags every closed span whose
   duration strictly exceeds that percentile of its name's population —
   an opt-in check, since any long-tailed population has spans above its
   own p99. *)
let anomalies ?slow_pct t =
  let acc = ref [] in
  let add a = acc := a :: !acc in
  List.iter
    (fun s ->
      if s.end_time = None then add (Unclosed_span s);
      match s.parent with
      | Some p when not (Hashtbl.mem t.span_tbl p) -> add (Orphan_parent s)
      | _ -> ())
    (spans t);
  List.iter (fun r -> if r.done_time = None then add (Unfinished_rpc r)) (rpcs t);
  let last = Hashtbl.create 16 in
  List.iter
    (fun (seq, node, lc) ->
      (match Hashtbl.find_opt last node with
      | Some prev when lc <= prev -> add (Lamport_regression { node; seq; lc; prev })
      | _ -> ());
      Hashtbl.replace last node lc)
    t.stamped;
  List.iter
    (fun (seq, src, dst, send_lc, lc) ->
      if lc <= send_lc then add (Deliver_not_after_send { seq; src; dst; send_lc; lc }))
    t.delivers;
  (match slow_pct with
  | None -> ()
  | Some p ->
      let by_name = Hashtbl.create 16 in
      List.iter
        (fun s ->
          match span_dur s with
          | Some d ->
              Hashtbl.replace by_name s.name
                (d :: Option.value (Hashtbl.find_opt by_name s.name) ~default:[])
          | None -> ())
        (spans t);
      let thresholds = Hashtbl.create 16 in
      Hashtbl.iter
        (fun name durs ->
          let a = Array.of_list durs in
          Array.sort compare a;
          Hashtbl.replace thresholds name (percentile a p))
        by_name;
      List.iter
        (fun s ->
          match span_dur s with
          | Some dur ->
              let threshold = Hashtbl.find thresholds s.name in
              if dur > threshold then add (Slow_span { sp = s; dur; threshold })
          | None -> ())
        (spans t));
  List.rev !acc

(* --- critical path --------------------------------------------------- *)

type cp_item = { cp_name : string; cp_id : int; cp_start : float; cp_end : float; cp_self : float }

(* The critical path of a closed span: repeatedly descend into the child
   span that finishes last (the one the parent was waiting on at the
   end); each step's [cp_self] is the parent's duration not covered by
   the chosen child, so the selfs sum to the root's duration.  Network
   and queueing time surfaces as self time of the client-side span that
   was blocked on it.  Ties break on later start, then lower id, so the
   chain is deterministic. *)
let critical_path t root =
  match root.end_time with
  | None -> []
  | Some root_end ->
      let chosen_child s =
        List.fold_left
          (fun best id ->
            let c = Hashtbl.find t.span_tbl id in
            match c.end_time with
            | None -> best
            | Some e -> (
                match best with
                | Some (_, be) when be > e -> best
                | Some (b, be)
                  when be = e
                       && (b.start_time > c.start_time
                          || (b.start_time = c.start_time && b.id < c.id)) ->
                    best
                | _ -> Some (c, e)))
          None s.children
      in
      let rec walk s s_end acc =
        match chosen_child s with
        | None ->
            {
              cp_name = s.name;
              cp_id = s.id;
              cp_start = s.start_time;
              cp_end = s_end;
              cp_self = s_end -. s.start_time;
            }
            :: acc
        | Some (c, c_end) ->
            let c_end = Float.min c_end s_end in
            let self = s_end -. s.start_time -. (c_end -. c.start_time) in
            walk c c_end
              ({
                 cp_name = s.name;
                 cp_id = s.id;
                 cp_start = s.start_time;
                 cp_end = s_end;
                 cp_self = Float.max 0.0 self;
               }
              :: acc)
      in
      List.rev (walk root root_end [])

(* --- rendering (all deterministic) ----------------------------------- *)

let outcome_str = function
  | Event.Rpc_ok -> "ok"
  | Event.Rpc_timeout -> "timeout"
  | Event.Rpc_unreachable -> "unreachable"

let node_suffix = function None -> "" | Some n -> Printf.sprintf " @n%d" n

let render_tree ?(times = true) ?max_depth t =
  let buf = Buffer.create 1024 in
  let rec pr depth s =
    let cut = match max_depth with Some d -> depth >= d | None -> false in
    let indent = String.make (2 * depth) ' ' in
    if times then
      Buffer.add_string buf
        (Printf.sprintf "%s%s#%d%s t=%.2f %s\n" indent s.name s.id (node_suffix s.node)
           s.start_time
           (match span_dur s with
           | Some d -> Printf.sprintf "dur=%.2f" d
           | None -> "UNCLOSED"))
    else
      Buffer.add_string buf
        (Printf.sprintf "%s%s%s%s\n" indent s.name (node_suffix s.node)
           (match s.end_time with Some _ -> "" | None -> " UNCLOSED"));
    if not cut then begin
      List.iter
        (fun id ->
          let r = Hashtbl.find t.rpc_tbl id in
          if times then
            Buffer.add_string buf
              (Printf.sprintf "%s  rpc#%d n%d->n%d %s%s\n" indent r.rpc_id r.rpc_src
                 r.rpc_dst
                 (match r.outcome with Some o -> outcome_str o | None -> "UNFINISHED")
                 (match r.done_time with
                 | Some d -> Printf.sprintf " dur=%.2f" (d -. r.call_time)
                 | None -> ""))
          else
            Buffer.add_string buf
              (Printf.sprintf "%s  rpc n%d->n%d %s\n" indent r.rpc_src r.rpc_dst
                 (match r.outcome with Some o -> outcome_str o | None -> "UNFINISHED")))
        s.rpcs;
      List.iter
        (fun op -> Buffer.add_string buf (Printf.sprintf "%s  op %s\n" indent op))
        s.ops;
      List.iter (fun id -> pr (depth + 1) (Hashtbl.find t.span_tbl id)) s.children
    end
  in
  List.iter (pr 0) (roots t);
  Buffer.contents buf

let cache_counts t = t.cache

(* "cache: dir 12/14 hit, obj 30/40 hit, 2 invals, 1 expiries" — shared
   by the critpath and stats renderings; empty when no cache ran. *)
let cache_line t =
  let c = t.cache in
  if c = no_cache_activity then ""
  else
    Printf.sprintf "cache: dir %d/%d hit, obj %d/%d hit, %d invals, %d expiries\n"
      c.cc_hit_dir (c.cc_hit_dir + c.cc_miss_dir) c.cc_hit_obj
      (c.cc_hit_obj + c.cc_miss_obj) c.cc_inval c.cc_expire

let render_critpath t =
  let buf = Buffer.create 1024 in
  let phase_totals = Hashtbl.create 16 in
  let nroots = ref 0 in
  List.iter
    (fun root ->
      match critical_path t root with
      | [] -> ()
      | path ->
          incr nroots;
          let total = (List.hd path).cp_end -. (List.hd path).cp_start in
          Buffer.add_string buf
            (Printf.sprintf "request %s#%d: total=%.2f\n" root.name root.id total);
          List.iter
            (fun item ->
              Hashtbl.replace phase_totals item.cp_name
                (item.cp_self
                +. Option.value (Hashtbl.find_opt phase_totals item.cp_name) ~default:0.0);
              Buffer.add_string buf
                (Printf.sprintf "  %-24s self=%8.2f (%5.1f%%)  [%.2f .. %.2f]\n"
                   (Printf.sprintf "%s#%d" item.cp_name item.cp_id)
                   item.cp_self
                   (if total > 0.0 then 100.0 *. item.cp_self /. total else 0.0)
                   item.cp_start item.cp_end))
            path)
    (roots t);
  if !nroots > 1 then begin
    let entries =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) phase_totals []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 entries in
    Buffer.add_string buf "phase totals over all requests:\n";
    List.iter
      (fun (name, v) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-24s %8.2f (%5.1f%%)\n" name v
             (if total > 0.0 then 100.0 *. v /. total else 0.0)))
      entries
  end;
  (* Hit time shows up above as client.*.cached phases (≈0 self time);
     this line gives the ratio those phases were won at. *)
  Buffer.add_string buf (cache_line t);
  Buffer.contents buf

let render_stats t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "events: %d\n" t.event_count);
  List.iter
    (fun (l, n) -> Buffer.add_string buf (Printf.sprintf "  %-12s %d\n" l n))
    t.label_counts;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let closed, durs =
        Option.value (Hashtbl.find_opt by_name s.name) ~default:(0, [])
      in
      match span_dur s with
      | Some d -> Hashtbl.replace by_name s.name (closed + 1, d :: durs)
      | None -> Hashtbl.replace by_name s.name (closed, durs))
    (spans t);
  let names =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  if names <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "%-24s %6s %6s %8s %8s %8s %8s\n" "span" "n" "open" "mean" "p50"
         "p95" "max");
    List.iter
      (fun (name, (closed, durs)) ->
        let open_ =
          List.length (List.filter (fun s -> s.name = name && s.end_time = None) (spans t))
        in
        if closed = 0 then
          Buffer.add_string buf
            (Printf.sprintf "%-24s %6d %6d %8s %8s %8s %8s\n" name closed open_ "-" "-"
               "-" "-")
        else begin
          let a = Array.of_list durs in
          Array.sort compare a;
          let sum = Array.fold_left ( +. ) 0.0 a in
          Buffer.add_string buf
            (Printf.sprintf "%-24s %6d %6d %8.2f %8.2f %8.2f %8.2f\n" name closed open_
               (sum /. float_of_int closed)
               (percentile a 50.0) (percentile a 95.0)
               a.(Array.length a - 1))
        end)
      names
  end;
  let rs = rpcs t in
  if rs <> [] then begin
    let count o = List.length (List.filter (fun r -> r.outcome = Some o) rs) in
    Buffer.add_string buf
      (Printf.sprintf "rpcs: %d (ok=%d timeout=%d unreachable=%d unfinished=%d)\n"
         (List.length rs) (count Event.Rpc_ok) (count Event.Rpc_timeout)
         (count Event.Rpc_unreachable)
         (List.length (List.filter (fun r -> r.done_time = None) rs)))
  end;
  let last = Hashtbl.create 16 in
  List.iter (fun (_, node, lc) -> Hashtbl.replace last node lc) t.stamped;
  let clocks =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) last []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  if clocks <> [] then begin
    Buffer.add_string buf "lamport clocks at end of trace:\n";
    List.iter
      (fun (node, lc) -> Buffer.add_string buf (Printf.sprintf "  n%-4d %d\n" node lc))
      clocks
  end;
  Buffer.add_string buf (cache_line t);
  Buffer.contents buf

let render_anomalies ?slow_pct t =
  let anoms = anomalies ?slow_pct t in
  match anoms with
  | [] -> "no anomalies\n"
  | _ ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf (Printf.sprintf "%d anomalies:\n" (List.length anoms));
      List.iter
        (fun a -> Buffer.add_string buf (Format.asprintf "  %a\n" pp_anomaly a))
        anoms;
      Buffer.contents buf

(* One-line summary of the slowest request in a segment, for the bench
   per-experiment report. *)
let critpath_summary t =
  let slowest =
    List.fold_left
      (fun best root ->
        match span_dur root with
        | None -> best
        | Some d -> (
            match best with
            | Some (_, bd) when bd >= d -> best
            | _ -> Some (root, d)))
      None (roots t)
  in
  match slowest with
  | None -> None
  | Some (root, d) ->
      let path = critical_path t root in
      let phases =
        List.map
          (fun i ->
            Printf.sprintf "%s %.0f%%" i.cp_name
              (if d > 0.0 then 100.0 *. i.cp_self /. d else 0.0))
          path
      in
      Some
        (Printf.sprintf "slowest %s#%d dur=%.2f: %s" root.name root.id d
           (String.concat " / " phases))

(* --- diff ------------------------------------------------------------ *)

type diff_result =
  | Identical of { events : int; digest : string }
  | Diverged of {
      common_prefix : int;
      prefix_digest : string;
      left : Event.t option; (* first event past the common prefix, if any *)
      right : Event.t option;
    }

(* Digest-aligned prefix diff: find the longest common prefix of the two
   streams, comparing events by their binary encodings (exact, floats by
   their bits), then report the first divergent pair. *)
let diff_events ea eb =
  let d = Digest.create () and ba = Buffer.create 128 and bb = Buffer.create 128 in
  let encode buf e =
    Buffer.clear buf;
    Event.write_binary buf e;
    Buffer.contents buf
  in
  let rec walk n = function
    | [], [] -> Identical { events = n; digest = Digest.value d }
    | a :: ta, b :: tb when String.equal (encode ba a) (encode bb b) ->
        Digest.feed d a;
        walk (n + 1) (ta, tb)
    | la, lb ->
        let hd = function [] -> None | x :: _ -> Some x in
        Diverged
          {
            common_prefix = n;
            prefix_digest = Digest.value d;
            left = hd la;
            right = hd lb;
          }
  in
  walk 0 (ea, eb)

let render_diff ~left_name ~right_name result =
  let buf = Buffer.create 256 in
  (match result with
  | Identical { events; digest } ->
      Buffer.add_string buf
        (Printf.sprintf "identical: %d events, digest %s\n" events digest)
  | Diverged { common_prefix; prefix_digest; left; right } ->
      Buffer.add_string buf
        (Printf.sprintf "diverged after %d common events (prefix digest %s)\n"
           common_prefix prefix_digest);
      let side name = function
        | Some e -> Printf.sprintf "  %s: %s\n" name (Event.to_json e)
        | None -> Printf.sprintf "  %s: <end of stream>\n" name
      in
      Buffer.add_string buf (side left_name left);
      Buffer.add_string buf (side right_name right));
  Buffer.contents buf
