(* Trace-analysis CLI over JSONL traces written by `weakset_bench
   --trace-jsonl`.  Deterministic output: the same trace file renders
   byte-identically, so CI can diff runs. *)

module Trace = Weakset_obs.Trace
module Profile = Weakset_obs.Profile

let usage =
  "usage: weakset_trace <command> [options] FILE...\n\n\
   commands:\n\
  \  tree FILE        print the reconstructed span forest of each world\n\
  \  critpath FILE    critical path and per-phase attribution per request\n\
  \  stats FILE       event/span/rpc/lamport summary per world\n\
  \  profile FILE     simulated-time profile: top-k hot fibers and hot ops\n\
  \  flame FILE       folded-stack flamegraph text (fiber;span;...;wait dur)\n\
  \  anomalies FILE   flag unclosed spans, orphan parents, unfinished rpcs,\n\
  \                   lamport violations (exit 1 if any found)\n\
  \  diff FILE FILE   digest-aligned prefix diff of two traces, showing the\n\
  \                   first divergent events as JSON (exit 1 if the traces\n\
  \                   differ: a divergent event, extra worlds or a world\n\
  \                   name mismatch)\n\
  \  blackbox FILE..  render flight-recorder dumps (or the dumps embedded\n\
  \                   in VOPR repro bundles): trigger, tail exemplars and\n\
  \                   their reconstructed span trees (exit 3 if no tail\n\
  \                   exemplar in any dump resolves to a span tree)\n\
  \  saturation FILE  attribute the latency tail of open-loop request spans\n\
  \                   to phases via critical-path self time (run against a\n\
  \                   trace from weakset_bench --e13 --trace-jsonl; with\n\
  \                   --overload, exit 3 if no segment holds a shed)\n\n\
   options:\n\
  \  --world NAME     restrict to the named world segment\n\
  \  --no-times       (tree) structure only: no ids, times or durations\n\
  \  --max-depth N    (tree) truncate below depth N\n\
  \  --top K          (profile) table depth, default 10\n\
  \  --slow-pct P     (anomalies) also flag spans above their name's\n\
  \                   P-th duration percentile\n\
  \  --json           (blackbox) machine-readable: one JSON object per dump\n\
  \                   on its own line instead of the rendered report\n\
  \  --op NAME        (saturation) request span name, default load.request\n\
  \  --tail-pct P     (saturation) tail cut percentile in [0,100], default 90\n\
  \  --overload       (saturation) also render the overload anatomy: server\n\
  \                   sheds by op class and client retries by outcome\n"

let die fmt = Printf.ksprintf (fun s -> prerr_string s; prerr_newline (); exit 2) fmt

let usage_die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_string ("weakset_trace: " ^ s ^ "\n\n" ^ usage);
      exit 2)
    fmt

(* Strict parsing: every flag must be known to the subcommand at hand,
   every known flag must get a well-formed non-flag value, and the
   positional count must match. *)
type opts = {
  mutable world : string option;
  mutable times : bool;
  mutable max_depth : int option;
  mutable top : int;
  mutable slow_pct : float option;
  mutable json : bool;
  mutable op : string;
  mutable tail_pct : float;
  mutable overload : bool;
  mutable files : string list;
}

let flag_like v = String.length v > 0 && v.[0] = '-'

(* Which options each subcommand understands; --world applies to all. *)
let allowed_for = function
  | "tree" -> [ "--no-times"; "--max-depth" ]
  | "profile" -> [ "--top" ]
  | "anomalies" -> [ "--slow-pct" ]
  | "blackbox" -> [ "--json" ]
  | "saturation" -> [ "--op"; "--tail-pct"; "--overload" ]
  | _ -> []

let parse_args cmd args =
  let o =
    {
      world = None;
      times = true;
      max_depth = None;
      top = 10;
      slow_pct = None;
      json = false;
      op = "load.request";
      tail_pct = 90.0;
      overload = false;
      files = [];
    }
  in
  let allowed = "--world" :: allowed_for cmd in
  let permit flag =
    if not (List.mem flag allowed) then usage_die "%s does not apply to %S" flag cmd
  in
  let value flag v =
    if flag_like v then usage_die "%s expects a value, got option %S" flag v;
    v
  in
  let rec go = function
    | [] -> ()
    | "--world" :: v :: rest ->
        o.world <- Some (value "--world" v);
        go rest
    | "--no-times" :: rest ->
        permit "--no-times";
        o.times <- false;
        go rest
    | "--max-depth" :: v :: rest -> (
        permit "--max-depth";
        match int_of_string_opt (value "--max-depth" v) with
        | Some n when n >= 0 ->
            o.max_depth <- Some n;
            go rest
        | _ -> usage_die "--max-depth expects a non-negative integer, got %S" v)
    | "--top" :: v :: rest -> (
        permit "--top";
        match int_of_string_opt (value "--top" v) with
        | Some n when n > 0 ->
            o.top <- n;
            go rest
        | _ -> usage_die "--top expects a positive integer, got %S" v)
    | "--slow-pct" :: v :: rest -> (
        permit "--slow-pct";
        match float_of_string_opt (value "--slow-pct" v) with
        | Some p when p >= 0.0 && p <= 100.0 ->
            o.slow_pct <- Some p;
            go rest
        | _ -> usage_die "--slow-pct expects a percentile in [0,100], got %S" v)
    | "--json" :: rest ->
        permit "--json";
        o.json <- true;
        go rest
    | "--op" :: v :: rest ->
        permit "--op";
        o.op <- value "--op" v;
        go rest
    | "--tail-pct" :: v :: rest -> (
        permit "--tail-pct";
        match float_of_string_opt (value "--tail-pct" v) with
        | Some p when p >= 0.0 && p <= 100.0 ->
            o.tail_pct <- p;
            go rest
        | _ -> usage_die "--tail-pct expects a percentile in [0,100], got %S" v)
    | "--overload" :: rest ->
        permit "--overload";
        o.overload <- true;
        go rest
    | [ ("--world" | "--max-depth" | "--top" | "--slow-pct" | "--op" | "--tail-pct") ] ->
        usage_die "missing value for final option"
    | f :: _ when flag_like f -> usage_die "unknown option %S" f
    | f :: rest ->
        o.files <- o.files @ [ f ];
        go rest
  in
  go args;
  o

(* The file's segments (only the [--world] one, when given), read one at
   a time: a malformed line or unreadable file ends the run with exit 2
   at the step that meets it. *)
let load o file =
  let rec guarded seq () =
    match seq () with
    | exception (Trace.Malformed m | Sys_error m) -> die "weakset_trace: %s" m
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (seg, rest) -> Seq.Cons (seg, guarded rest)
  in
  let segs = guarded (Trace.segments file) in
  match o.world with
  | None -> segs
  | Some w ->
      (* [others] keeps the names skipped so far, for the error when no
         segment matches. *)
      let rec pick found others seq () =
        match seq () with
        | Seq.Nil when found -> Seq.Nil
        | Seq.Nil ->
            die "weakset_trace: no world %S in %s (have: %s)" w file
              (String.concat ", " (List.rev_map (Printf.sprintf "%S") others))
        | Seq.Cons (seg, rest) when seg.Trace.sname = w -> Seq.Cons (seg, pick true others rest)
        | Seq.Cons (seg, rest) -> pick found (seg.Trace.sname :: others) rest ()
      in
      pick false [] segs

let header seg =
  if seg.Trace.sname = "" then "" else Printf.sprintf "== world: %s ==\n" seg.Trace.sname

let one_file o = function
  | [ f ] -> load o f
  | files -> usage_die "expected exactly one FILE, got %d" (List.length files)

let per_segment render =
  Seq.iter (fun seg ->
      print_string (header seg);
      print_string (render (Trace.of_segment seg)))

(* --- blackbox dumps --------------------------------------------------- *)

module Flight = Weakset_obs.Flight
module Json = Weakset_obs.Json

(* A file is either one dump document or a VOPR repro bundle carrying
   dumps as escaped strings under "blackbox". *)
let dumps_of_file file =
  let text =
    try In_channel.with_open_text file In_channel.input_all
    with Sys_error m -> die "weakset_trace: %s" m
  in
  match Json.of_string_opt (String.trim text) with
  | None -> die "weakset_trace: %s: not valid JSON" file
  | Some j -> (
      match Json.member "blackbox_version" j with
      | Some _ -> [ String.trim text ]
      | None -> (
          match Json.member "blackbox" j with
          | Some (Json.Arr l) -> List.filter_map Json.to_string l
          | _ ->
              die "weakset_trace: %s: neither a black-box dump nor a bundle with one"
                file))

let rec render_span buf tr depth (sp : Trace.span) =
  let indent = String.make (2 * depth) ' ' in
  Buffer.add_string buf
    (Printf.sprintf "%s%s [span %d%s] start=%g%s\n" indent sp.Trace.name sp.Trace.id
       (match sp.Trace.node with None -> "" | Some n -> Printf.sprintf " node=%d" n)
       sp.Trace.start_time
       (match Trace.span_dur sp with
       | Some d -> Printf.sprintf " dur=%g" d
       | None -> " (unclosed)"));
  List.iter
    (fun cid -> Option.iter (render_span buf tr (depth + 1)) (Trace.span tr cid))
    sp.Trace.children

(* Climb to the highest ancestor still present in the ring: the ring may
   have evicted the true root's Span_start, so we render from the oldest
   retained ancestor. *)
let rec resolve_root tr (sp : Trace.span) =
  match sp.Trace.parent with
  | None -> sp
  | Some p -> (
      match Trace.span tr p with None -> sp | Some up -> resolve_root tr up)

(* Both renderings return how many tail exemplars resolved to a span
   recorded in the dump's own rings. *)
let render_dump k doc =
  match Flight.parse_dump doc with
  | Error m -> die "weakset_trace: %s" m
  | Ok p ->
      let buf = Buffer.create 1024 in
      Buffer.add_string buf
        (Printf.sprintf "== blackbox dump %d: trigger=%s t=%g ==\n" k p.Flight.p_cause_kind
           p.Flight.p_time);
      Buffer.add_string buf (Printf.sprintf "cause: %s\n" p.Flight.p_cause_detail);
      Buffer.add_string buf
        (Printf.sprintf "suppressed=%d ring-dropped=%d events=%d inflight=%d\n"
           p.Flight.p_suppressed p.Flight.p_dropped
           (List.length p.Flight.p_events)
           (List.length p.Flight.p_inflight));
      if p.Flight.p_inflight <> [] then begin
        Buffer.add_string buf "in-flight spans:\n";
        List.iter
          (fun (id, name) -> Buffer.add_string buf (Printf.sprintf "  span %d: %s\n" id name))
          p.Flight.p_inflight
      end;
      let exemplars = Flight.tail_exemplars p.Flight.p_metrics in
      let resolved = ref 0 in
      if exemplars = [] then Buffer.add_string buf "no exemplars recorded\n"
      else begin
        Buffer.add_string buf "tail exemplars (worst first):\n";
        List.iter
          (fun (key, v, tm, span) ->
            Buffer.add_string buf
              (Printf.sprintf "  %s: value=%g t=%g%s\n" key v tm
                 (match span with None -> "" | Some s -> Printf.sprintf " span=%d" s)))
          exemplars;
        let tr = Trace.build p.Flight.p_events in
        let seen_roots = ref [] in
        List.iter
          (fun (key, _, _, span) ->
            match span with
            | None -> ()
            | Some s -> (
                match Trace.span tr s with
                | None ->
                    Buffer.add_string buf
                      (Printf.sprintf "exemplar span %d (%s): not in ring (evicted)\n" s key)
                | Some sp ->
                    incr resolved;
                    let root = resolve_root tr sp in
                    if not (List.mem root.Trace.id !seen_roots) then begin
                      seen_roots := root.Trace.id :: !seen_roots;
                      Buffer.add_string buf
                        (Printf.sprintf "exemplar span tree (span %d via %s):\n" s key);
                      render_span buf tr 1 root
                    end))
          exemplars
      end;
      print_string (Buffer.contents buf);
      !resolved

(* Machine-readable rendering: one JSON object per dump, one per line,
   fields in fixed order, floats as %.17g — pipe into jq, diff in CI. *)
let render_dump_json file k doc =
  match Flight.parse_dump doc with
  | Error m -> die "weakset_trace: %s" m
  | Ok p ->
      let fnum = Printf.sprintf "%.17g" in
      let b = Buffer.create 512 in
      Buffer.add_string b
        (Printf.sprintf
           "{\"file\":%S,\"dump\":%d,\"trigger\":%S,\"time\":%s,\"cause\":%S,\
            \"suppressed\":%d,\"ring_dropped\":%d,\"events\":%d,\"inflight\":["
           file k p.Flight.p_cause_kind (fnum p.Flight.p_time) p.Flight.p_cause_detail
           p.Flight.p_suppressed p.Flight.p_dropped
           (List.length p.Flight.p_events));
      List.iteri
        (fun i (id, name) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "{\"span\":%d,\"name\":%S}" id name))
        p.Flight.p_inflight;
      Buffer.add_string b "],\"exemplars\":[";
      let tr = Trace.build p.Flight.p_events in
      let resolved_n = ref 0 in
      List.iteri
        (fun i (key, v, tm, span) ->
          if i > 0 then Buffer.add_char b ',';
          let span_field, resolved =
            match span with
            | None -> ("null", false)
            | Some s -> (string_of_int s, Trace.span tr s <> None)
          in
          if resolved then incr resolved_n;
          Buffer.add_string b
            (Printf.sprintf
               "{\"metric\":%S,\"value\":%s,\"time\":%s,\"span\":%s,\"resolved\":%b}" key
               (fnum v) (fnum tm) span_field resolved))
        (Flight.tail_exemplars p.Flight.p_metrics);
      Buffer.add_string b "]}\n";
      print_string (Buffer.contents b);
      !resolved_n

(* Exit 3 when no tail exemplar in any dump resolved to a span tree: the
   dumps are there but cannot explain the tail they recorded. *)
let cmd_blackbox ~json files =
  if files = [] then usage_die "blackbox expects at least one FILE";
  let resolved = ref 0 in
  List.iter
    (fun file ->
      match dumps_of_file file with
      | [] ->
          if not json then Printf.printf "== %s: no black-box dumps ==\n" file
      | dumps ->
          List.iteri
            (fun k doc ->
              let n = if json then render_dump_json file k doc else render_dump k doc in
              resolved := !resolved + n)
            dumps)
    files;
  if !resolved = 0 then exit 3

(* --- saturation anatomy ----------------------------------------------- *)

let lerp_percentile arr p =
  let n = Array.length arr in
  if n = 1 then arr.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let w = rank -. float_of_int lo in
    ((1.0 -. w) *. arr.(lo)) +. (w *. arr.(hi))
  end

(* Overload anatomy: the admission layer stamps a Custom "srv-shed"
   event per rejected request (detail carries "class=...") and the
   retry-budgeted client a Custom "client-retry" per retry decision
   (detail carries "outcome=...").  Group counts by that token and
   render deterministically (count desc, then name).  Returns the number
   of sheds rendered. *)
module Event = Weakset_obs.Event

let token_field detail key =
  let prefix = key ^ "=" in
  let plen = String.length prefix in
  List.find_map
    (fun tok ->
      if String.length tok > plen && String.sub tok 0 plen = prefix then
        Some (String.sub tok plen (String.length tok - plen))
      else None)
    (String.split_on_char ' ' detail)

let render_overload buf events =
  let sheds : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
  let retries : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
  let bump tbl k =
    match Hashtbl.find_opt tbl k with
    | Some r -> incr r
    | None -> Hashtbl.add tbl k (ref 1)
  in
  List.iter
    (fun (ev : Event.t) ->
      match ev.Event.kind with
      | Event.Custom { label = "srv-shed"; detail } ->
          bump sheds (Option.value ~default:"?" (token_field detail "class"))
      | Event.Custom { label = "client-retry"; detail } ->
          bump retries (Option.value ~default:"?" (token_field detail "outcome"))
      | _ -> ())
    events;
  let rows tbl =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl []
    |> List.sort (fun (na, ca) (nb, cb) ->
           match compare cb ca with 0 -> compare na nb | c -> c)
  in
  let shed_rows = rows sheds and retry_rows = rows retries in
  if shed_rows = [] && retry_rows = [] then
    Buffer.add_string buf "overload anatomy: no shed or retry events in this segment\n"
  else begin
    let total rs = List.fold_left (fun acc (_, c) -> acc + c) 0 rs in
    Buffer.add_string buf
      (Printf.sprintf "overload anatomy: %d shed(s), %d retry decision(s)\n"
         (total shed_rows) (total retry_rows));
    if shed_rows <> [] then begin
      Buffer.add_string buf "  server sheds by op class:\n";
      List.iter
        (fun (cls, n) -> Buffer.add_string buf (Printf.sprintf "    %-10s %8d\n" cls n))
        shed_rows
    end;
    if retry_rows <> [] then begin
      Buffer.add_string buf "  client retries by outcome:\n";
      List.iter
        (fun (oc, n) -> Buffer.add_string buf (Printf.sprintf "    %-10s %8d\n" oc n))
        retry_rows
    end
  end;
  List.fold_left (fun acc (_, c) -> acc + c) 0 shed_rows

(* Attribute the tail of the open-loop request population to phases.
   Request spans are back-dated to their intended arrival tick, so a
   request that waited for a free client shows that wait as leading self
   time of the request span itself — the coordinated-omission share of
   the tail appears as the op's own phase, and server/RPC time as the
   [client.*] phases below it.  With [--overload], exit 3 when no segment
   holds a shed: the overload anatomy has nothing to explain. *)
let cmd_saturation o files =
  let sheds = ref 0 in
  Seq.iter
    (fun seg ->
      print_string (header seg);
      let tr = Trace.of_segment seg in
      let closed = List.filter (fun sp -> Trace.span_dur sp <> None) (Trace.roots tr) in
      let named = List.filter (fun sp -> sp.Trace.name = o.op) closed in
      let requests, what =
        if named <> [] then (named, Printf.sprintf "%s request" o.op)
        else (closed, "closed root")
      in
      (match requests with
      | [] -> print_string (Printf.sprintf "no closed %S spans\n" o.op)
      | _ ->
          let durs = Array.of_list (List.filter_map Trace.span_dur requests) in
          Array.sort compare durs;
          let cut = lerp_percentile durs o.tail_pct in
          let tail =
            List.filter
              (fun sp ->
                match Trace.span_dur sp with Some d -> d >= cut | None -> false)
              requests
          in
          let tail_total =
            List.fold_left
              (fun acc sp ->
                match Trace.span_dur sp with Some d -> acc +. d | None -> acc)
              0.0 tail
          in
          Printf.printf
            "%d %s span(s); tail = %d at/above p%g (dur >= %g), %g total\n"
            (List.length requests) what (List.length tail) o.tail_pct cut tail_total;
          let phases : (string, float ref * int ref) Hashtbl.t = Hashtbl.create 16 in
          List.iter
            (fun sp ->
              List.iter
                (fun (it : Trace.cp_item) ->
                  let self, hits =
                    match Hashtbl.find_opt phases it.Trace.cp_name with
                    | Some cell -> cell
                    | None ->
                        let cell = (ref 0.0, ref 0) in
                        Hashtbl.add phases it.Trace.cp_name cell;
                        cell
                  in
                  self := !self +. it.Trace.cp_self;
                  incr hits)
                (Trace.critical_path tr sp))
            tail;
          let rows =
            Hashtbl.fold (fun name (self, hits) acc -> (name, !self, !hits) :: acc) phases []
          in
          let rows =
            List.sort
              (fun (na, sa, _) (nb, sb, _) ->
                match compare sb sa with 0 -> compare na nb | c -> c)
              rows
          in
          Printf.printf "critical-path self time across the tail (worst phase first):\n";
          Printf.printf "  %-32s %12s %7s %6s\n" "phase" "self" "share" "hits";
          List.iter
            (fun (name, self, hits) ->
              Printf.printf "  %-32s %12.2f %6.1f%% %6d\n" name self
                (if tail_total > 0.0 then 100.0 *. self /. tail_total else 0.0)
                hits)
            rows;
          let slowest =
            List.fold_left
              (fun acc sp ->
                match (acc, Trace.span_dur sp) with
                | None, Some _ -> Some sp
                | Some best, Some d
                  when d > Option.value ~default:0.0 (Trace.span_dur best) ->
                    Some sp
                | _ -> acc)
              None tail
          in
          Option.iter
            (fun sp ->
              Printf.printf "slowest request (span %d, dur=%g):\n" sp.Trace.id
                (Option.value ~default:0.0 (Trace.span_dur sp));
              List.iter
                (fun (it : Trace.cp_item) ->
                  Printf.printf "  %-32s self=%-10.2f [%g -> %g]\n" it.Trace.cp_name
                    it.Trace.cp_self it.Trace.cp_start it.Trace.cp_end)
                (Trace.critical_path tr sp))
            slowest);
      if o.overload then begin
        let buf = Buffer.create 256 in
        sheds := !sheds + render_overload buf seg.Trace.events;
        print_string (Buffer.contents buf)
      end)
    (one_file o files);
  if o.overload && !sheds = 0 then exit 3

let () =
  match Array.to_list Sys.argv with
  | _ :: cmd :: rest -> (
      let o = parse_args cmd rest in
      match cmd with
      | "tree" ->
          per_segment
            (Trace.render_tree ~times:o.times ?max_depth:o.max_depth)
            (one_file o o.files)
      | "critpath" -> per_segment Trace.render_critpath (one_file o o.files)
      | "stats" -> per_segment Trace.render_stats (one_file o o.files)
      | "profile" ->
          Seq.iter
            (fun seg ->
              print_string (header seg);
              print_string
                (Profile.render_top ~k:o.top (Profile.of_events seg.Trace.events)))
            (one_file o o.files)
      | "flame" ->
          Seq.iter
            (fun seg ->
              print_string (header seg);
              print_string (Profile.folded (Profile.of_events seg.Trace.events)))
            (one_file o o.files)
      | "anomalies" ->
          let segs = one_file o o.files in
          let found = ref 0 in
          Seq.iter
            (fun seg ->
              print_string (header seg);
              let tr = Trace.of_segment seg in
              found := !found + List.length (Trace.anomalies ?slow_pct:o.slow_pct tr);
              print_string (Trace.render_anomalies ?slow_pct:o.slow_pct tr))
            segs;
          if !found > 0 then exit 1
      | "diff" -> (
          match o.files with
          | [ fa; fb ] ->
              (* One segment of each file in memory at a time; [differs]
                 records whether any difference was reported. *)
              let rec pair i differs sa sb =
                let na = sa () in
                let nb = sb () in
                match (na, nb) with
                | Seq.Nil, Seq.Nil -> differs
                | Seq.Cons (a, ta), Seq.Cons (b, tb) ->
                    let renamed = a.Trace.sname <> b.Trace.sname in
                    if renamed then
                      Printf.printf "segment %d: names differ (%S vs %S)\n" i a.sname
                        b.sname
                    else print_string (header a);
                    let result = Trace.diff_events a.Trace.events b.Trace.events in
                    print_string (Trace.render_diff ~left_name:fa ~right_name:fb result);
                    let diverged =
                      match result with Trace.Identical _ -> false | Trace.Diverged _ -> true
                    in
                    pair (i + 1) (differs || renamed || diverged) ta tb
                | Seq.Cons (_, extra), Seq.Nil ->
                    Printf.printf "%s has %d extra world(s)\n" fa (1 + Seq.length extra);
                    true
                | Seq.Nil, Seq.Cons (_, extra) ->
                    Printf.printf "%s has %d extra world(s)\n" fb (1 + Seq.length extra);
                    true
              in
              if pair 0 false (load o fa) (load o fb) then exit 1
          | files -> usage_die "diff expects exactly two FILEs, got %d" (List.length files))
      | "blackbox" -> cmd_blackbox ~json:o.json o.files
      | "saturation" -> cmd_saturation o o.files
      | "help" | "--help" | "-h" -> print_string usage
      | c -> usage_die "unknown command %S" c)
  | _ ->
      prerr_string usage;
      exit 2
