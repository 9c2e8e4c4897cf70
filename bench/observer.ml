(* What a bench run observes of the worlds it builds.  [create] turns
   the command line's outputs into one value, [Scenarios.clique_world
   ~obs] hands it every world as it is built, and [finish] writes every
   export once the experiments are done.  A world built without an
   observer attaches nothing. *)

module Obs = Weakset_obs

(* Default objectives for the client-visible ops: with unit link latency
   a healthy fetch/dir-read completes in ~2 time units, so 5.0 is a
   generous latency SLO that only partition/crash scenarios breach. *)
let slo_objectives =
  [
    { Obs.Slo.op = "client.fetch"; max_latency = 5.0; target = 0.9; window = 200.0 };
    { Obs.Slo.op = "client.dir-read"; max_latency = 5.0; target = 0.9; window = 200.0 };
  ]

(* What the exports read of one world: its metrics registry, SLO
   tracker and flight recorder, each only when its output is on. *)
type observed = {
  name : string;
  metrics : Obs.Metrics.t option;
  slo : Obs.Slo.t option;
  flight : Obs.Flight.t option;
}

type t = {
  metrics_json : string option;
  trace : (string * Obs.Jsonl.t) option;
  slo_report : bool;
  blackbox_dir : string option;
  mutable worlds : observed list;  (* registration order *)
}

(* The trace file is opened here, so a bad path fails before any
   experiment runs. *)
let create ?metrics_json ?trace_jsonl ?(slo_report = false) ?blackbox_dir () =
  {
    metrics_json;
    trace = Option.map (fun path -> (path, Obs.Jsonl.open_file path)) trace_jsonl;
    slo_report;
    blackbox_dir;
    worlds = [];
  }

(* Attach the configured sinks to a freshly built world.  The trace
   gets a note line naming the world, so one file carries the run's
   worlds as segments.  Re-registering a name replaces the earlier
   world: experiments rebuild identical worlds many times, and the last
   run wins. *)
let world t name eng =
  let bus = Weakset_sim.Engine.bus eng in
  Option.iter
    (fun (_, w) ->
      Obs.Jsonl.note w name;
      Obs.Bus.attach bus ~name:"bench-jsonl" (Obs.Jsonl.sink w))
    t.trace;
  let slo =
    if not t.slo_report then None
    else
      let s = Obs.Slo.create ~bus slo_objectives in
      Obs.Bus.attach bus ~name:"bench-slo" (Obs.Slo.sink s);
      Some s
  in
  let flight = Option.map (fun _ -> Obs.Flight.create bus) t.blackbox_dir in
  let metrics = Option.map (fun _ -> Weakset_sim.Engine.metrics eng) t.metrics_json in
  if Option.is_some metrics || Option.is_some slo || Option.is_some flight then
    t.worlds <- List.filter (fun w -> w.name <> name) t.worlds @ [ { name; metrics; slo; flight } ]

let write_metrics t path =
  let registries =
    List.filter_map (fun w -> Option.map (fun m -> (w.name, m)) w.metrics) t.worlds
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{";
      List.iteri
        (fun i (name, m) ->
          if i > 0 then output_string oc ",";
          Printf.fprintf oc "\n  \"%s\": %s" name (Obs.Metrics.to_json m))
        registries;
      output_string oc "\n}\n");
  Harness.note "metrics for %d worlds written to %s" (List.length registries) path

(* One file per dump; world names carry spaces and '=', so file names
   keep only shell-safe characters. *)
let write_blackbox t dir =
  let slug =
    String.map (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.') as c -> c | _ -> '_')
  in
  let dumps =
    List.concat_map
      (fun w ->
        Option.fold ~none:[] ~some:Obs.Flight.dumps w.flight
        |> List.mapi (fun k d -> (Printf.sprintf "blackbox-%s-%d.json" (slug w.name) k, d)))
      t.worlds
  in
  List.iter
    (fun (file, (d : Obs.Flight.dump)) ->
      Out_channel.with_open_text (Filename.concat dir file) (fun oc ->
          output_string oc d.Obs.Flight.d_json;
          output_char oc '\n'))
    dumps;
  Harness.note "%d black-box dump(s) written to %s" (List.length dumps) dir

let print_slo_report t =
  let slos = List.filter_map (fun w -> Option.map (fun s -> (w.name, s)) w.slo) t.worlds in
  Printf.printf "\n%s\nSLO report (per world)\n%s\n" Harness.hr Harness.hr;
  List.iter (fun (name, s) -> Printf.printf "  == %s ==\n%s" name (Obs.Slo.report s)) slos;
  let total = List.fold_left (fun acc (_, s) -> acc + Obs.Slo.alert_count s) 0 slos in
  Printf.printf "  %d burn-rate alert(s) across %d world(s)\n" total (List.length slos)

(* Once the writer is closed, re-read the file one world segment at a
   time and report each world's slowest request with its critical-path
   phase split — the per-experiment latency-attribution summary. *)
let print_critpath path =
  Printf.printf "\n%s\ncritical-path summary (from %s)\n%s\n" Harness.hr path Harness.hr;
  Seq.iter
    (fun seg ->
      match Obs.Trace.critpath_summary (Obs.Trace.of_segment seg) with
      | Some line -> Printf.printf "  %-32s %s\n" seg.Obs.Trace.sname line
      | None -> Printf.printf "  %-32s (no closed request span)\n" seg.sname)
    (Obs.Trace.segments path)

let finish t =
  Option.iter (write_metrics t) t.metrics_json;
  Option.iter (write_blackbox t) t.blackbox_dir;
  if t.slo_report then print_slo_report t;
  Option.iter
    (fun (path, w) ->
      Obs.Jsonl.close w;
      print_critpath path)
    t.trace
