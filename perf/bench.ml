(* Runs one workload end to end and turns its passes into metrics.

   A run sets up, runs one warm-up pass, then timed passes while the
   next one is expected to end inside the measuring window (at least
   three).  Every pass gets fresh inputs from its own set-up, so passes
   are interchangeable; each is preceded by [Gc.compact] so it starts
   from the same heap.  End-to-end host metrics come from the fastest
   timed pass and the fastest set-up: on a shared host, interference
   only ever adds CPU time, and runs of the same inputs differ by tens
   of percent from one stretch of seconds to the next.  With tracing on,
   every timed pass is followed by a traced one, and per-layer host
   numbers come from those. *)

module W = Workloads

type result = {
  workload : string;
  e2e : (string * float) list;
  layer : (string * float) list;  (** empty unless traced *)
  sim : (string * float) list;  (** the simulated per-layer metrics, traced or not *)
  attempted : int;
  failed : int;
  samples : (string * int) list;
  notes : string list;
  cpu_s : float;
  wall_s : float;
}

let min_passes = 3

(* A run that must end well inside three minutes stops adding passes
   after this much wall time. *)
let wall_cap = 120.0

(* One set-up, timed.  Set-ups cheaper than [setup_floor] seconds are
   repeated until that much CPU has been spent and averaged, so the
   sample is long enough to read off a CPU clock. *)
let setup_floor = 0.02

let timed_setup (w : W.t) ~seed ~toy =
  Gc.compact ();
  let rec go reps total =
    let pass, s = Measure.timed (fun () -> w.setup ~seed ~toy) in
    let reps = reps + 1 and total = total +. s in
    if total < setup_floor && reps < 10_000 then go reps total
    else (pass, total /. float_of_int reps)
  in
  go 0 0.0

type timed_pass = { p : W.pass; cpu : float; alloc : float }

let run_pass pass mode =
  Gc.compact ();
  let a0 = Measure.allocated_words () in
  let p, cpu = Measure.timed (fun () -> pass ~mode) in
  { p; cpu; alloc = Measure.allocated_words () -. a0 }

let same_sim a b = a.W.fingerprint = b.W.fingerprint && a.W.sim = b.W.sim

let run (w : W.t) ~seed ~seconds ~trace ~toy ~(catalog : Catalog.t) =
  let c_start = Measure.cpu () and w_start = Measure.wall () in
  let setups = ref [] in
  let pass mode =
    let pass, s = timed_setup w ~seed ~toy in
    setups := s :: !setups;
    run_pass pass mode
  in
  let warm = pass W.Warmup in
  (* The peak heap of set-up plus one pass.  On OCaml 5.1 the major heap
     does not shrink ([Gc.compact] is a full major collection and returns
     no memory), so each later pass only adds fragmentation, and the
     process peak would grow with the number of passes the window
     holds. *)
  let peak_heap = Measure.peak_heap_mb () in
  let timed = ref [] and traced = ref [] in
  let t0 = Measure.wall () and last = ref 0.0 in
  while
    List.length !timed < min_passes
    || (Measure.wall () -. t0 +. !last <= seconds && Measure.wall () -. w_start < wall_cap)
  do
    let p0 = Measure.wall () in
    timed := pass W.Timed :: !timed;
    if trace then traced := pass W.Traced :: !traced;
    last := Measure.wall () -. p0
  done;
  let timed = List.rev !timed and traced = List.rev !traced in
  List.iter
    (fun tp ->
      if not (same_sim warm.p tp.p) then
        W.fail W.code_replay "%s: a replayed pass simulated differently (fingerprint %s vs %s)"
          w.name warm.p.fingerprint tp.p.fingerprint)
    (timed @ traced);
  let ops = float_of_int warm.p.ops in
  let steps = float_of_int warm.p.steps in
  let sim = ("sim.steps_per_op", Measure.ratio steps ops) :: warm.p.sim in
  let host_names =
    List.sort_uniq compare (List.concat_map (fun tp -> List.map fst tp.p.host) (timed @ traced))
  in
  List.iter
    (fun name ->
      if Catalog.find catalog name = None then
        invalid_arg (Printf.sprintf "%s emits %s, which BENCHMARK.json does not list" w.name name))
    (List.map fst sim @ host_names);
  let med f l = Measure.median (List.map f l) in
  let fastest f l = Measure.minimum (List.map f l) in
  let cpu = fastest (fun tp -> tp.cpu) timed in
  let e2e =
    [
      ("setup_s", Measure.minimum !setups);
      ("ops_per_s", Measure.ratio ops cpu);
      ("host_op_p50_ms", fastest (fun tp -> Measure.percentile tp.p.host_op_ms 50.0) timed);
      ("sim_events_per_s", Measure.ratio steps cpu);
      ("alloc_mw_per_op", med (fun tp -> Measure.ratio tp.alloc ops /. 1e6) timed);
      ("peak_heap_mb", peak_heap);
    ]
  in
  let layer =
    if not trace then []
    else
      (* Host per-layer numbers: median over the untraced passes when
         they carry the metric, else over the traced ones. *)
      let host_median name =
        let from l = List.filter_map (fun tp -> List.assoc_opt name tp.p.host) l in
        match from timed with [] -> Measure.median (from traced) | vs -> Measure.median vs
      in
      let run_s l = med (fun tp -> tp.p.run_s) l in
      let measured =
        [
          (* The tail of the per-op host samples is where a shared host's
             interference lands, so it is reported here, without a bound. *)
          ("host_op_p95_ms", fastest (fun tp -> Measure.percentile tp.p.host_op_ms 95.0) timed);
          ("sim.host_ns_per_step", Measure.ratio (cpu *. 1e9) steps);
          ("obs.trace_overhead", Measure.ratio (run_s traced) (run_s timed) -. 1.0);
        ]
        @ sim
        @ List.map (fun n -> (n, host_median n)) host_names
      in
      (* Every catalogued per-layer metric is reported; one this
         workload does not exercise (or cannot observe) reads 0. *)
      List.map
        (fun (m : Catalog.metric) ->
          (m.name, Option.value ~default:0.0 (List.assoc_opt m.name measured)))
        catalog.per_layer
  in
  {
    workload = w.name;
    e2e;
    layer;
    sim;
    attempted = warm.p.attempted;
    failed = warm.p.failed;
    samples =
      [
        ("setups", List.length !setups);
        ("timed_passes", List.length timed);
        ("traced_passes", List.length traced);
        ("ops_per_pass", warm.p.ops);
        ("host_op_samples_per_pass", List.length warm.p.host_op_ms);
        ("steps_per_pass", warm.p.steps);
      ];
    notes = warm.p.notes;
    cpu_s = Measure.cpu () -. c_start;
    wall_s = Measure.wall () -. w_start;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

(* Every digit of a measured value; JSON has no NaN or infinity. *)
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let unit_of (catalog : Catalog.t) name =
  match Catalog.find catalog name with Some m -> m.unit_ | None -> "?"

let metrics_of r = if r.layer = [] then r.e2e else r.layer

let print_report ~catalog ~seed r =
  Printf.printf "== %s (seed %d): %s; cpu %.1f s, wall %.1f s\n" r.workload seed
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) r.samples))
    r.cpu_s r.wall_s;
  List.iter
    (fun (name, v) -> Printf.printf "  %-36s %14.6g %s\n" name v (unit_of catalog name))
    (metrics_of r);
  Printf.printf "  attempted %d, failed %d\n" r.attempted r.failed;
  List.iter (Printf.printf "  note: %s\n") r.notes

(* The contract line: the last line of standard output. *)
let result_line ~catalog ~prefix results =
  let metrics =
    List.concat_map
      (fun r ->
        List.map
          (fun (name, v) ->
            ( prefix r ^ name,
              json_obj [ ("value", num v); ("unit", Printf.sprintf "%S" (unit_of catalog name)) ] ))
          (metrics_of r))
      results
  in
  json_obj
    [
      ("correct", "true");
      ("attempted", string_of_int (List.fold_left (fun a r -> a + r.attempted) 0 results));
      ("failed", string_of_int (List.fold_left (fun a r -> a + r.failed) 0 results));
      ("metrics", json_obj metrics);
    ]

(* [--out]: workload -> metric -> value, with the sample counts and the
   machine the numbers came from. *)
let out_json ~seed ~seconds ~trace results =
  json_obj
    [
      ("seed", string_of_int seed);
      ("seconds", num seconds);
      ("trace", string_of_bool trace);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
      ( "workloads",
        json_obj
          (List.map
             (fun r ->
               ( r.workload,
                 json_obj
                   [
                     ("metrics", json_obj (List.map (fun (k, v) -> (k, num v)) (metrics_of r)));
                     ( "samples",
                       json_obj (List.map (fun (k, v) -> (k, string_of_int v)) r.samples) );
                     ("attempted", string_of_int r.attempted);
                     ("failed", string_of_int r.failed);
                   ] ))
             results) );
    ]

(* ------------------------------------------------------------------ *)
(* --merge and --compare over --out files                              *)

module Json = Weakset_obs.Json

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> (
      match Json.of_string s with
      | j -> Ok j
      | exception Json.Parse_error e -> Error (path ^ ": " ^ e))

let assoc j = match j with Some (Json.Obj l) -> l | _ -> []
let floats j =
  List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v)) (assoc j)

(* workload -> [(metric, value, spread)] of one file; [spread] is 0 for
   a single run. *)
let table j =
  List.map
    (fun (wl, body) ->
      let spread = floats (Json.member "spread" body) in
      ( wl,
        List.map
          (fun (m, v) -> (m, v, Option.value ~default:0.0 (List.assoc_opt m spread)))
          (floats (Json.member "metrics" body)) ))
    (assoc (Json.member "workloads" j))

let samples_of j wl =
  Option.bind (Json.member "workloads" j) (Json.member wl)
  |> Option.map (fun body -> assoc (Json.member "samples" body))
  |> Option.value ~default:[]
  |> List.filter_map (fun (k, v) -> Option.map (fun n -> (k, string_of_int n)) (Json.to_int v))

(* Median per metric over several runs, and the spread of the runs:
   the distance between their first and third quartiles over their
   median.  Runs may carry different metrics (traced and untraced);
   each metric is merged over the runs that report it.  Sample counts
   are those of the first run of each workload. *)
let merge runs =
  let tables = List.map table runs in
  let union l = List.fold_left (fun acc x -> if List.mem x acc then acc else acc @ [ x ]) [] l in
  let workloads = union (List.concat_map (List.map fst) tables) in
  let first_samples wl =
    List.find_opt (( <> ) []) (List.map (fun j -> samples_of j wl) runs)
    |> Option.value ~default:[]
  in
  let workload wl =
    let entries = List.filter_map (List.assoc_opt wl) tables in
    let stats =
      List.map
        (fun m ->
          let vs =
            List.concat_map
              (List.filter_map (fun (m', v, _) -> if m = m' then Some v else None))
              entries
          in
          let q p = Measure.percentile vs p in
          (m, q 50.0, Measure.ratio (q 75.0 -. q 25.0) (Float.abs (q 50.0)), List.length vs))
        (union (List.concat_map (List.map (fun (m, _, _) -> m)) entries))
    in
    ( wl,
      json_obj
        [
          ("metrics", json_obj (List.map (fun (m, v, _, _) -> (m, num v)) stats));
          ("spread", json_obj (List.map (fun (m, _, s, _) -> (m, num s)) stats));
          ("runs", json_obj (List.map (fun (m, _, _, n) -> (m, string_of_int n)) stats));
          ("samples", json_obj (first_samples wl));
        ] )
  in
  json_obj
    [
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
      ("workloads", json_obj (List.map workload workloads));
    ]

type verdict = Better | Ok_ | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Ok_ -> "ok"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* A per-layer metric has no bound: any change is reported by
   direction. *)
let judge (m : Catalog.metric) ~a ~b ~spread =
  let change = Measure.ratio (b -. a) (Float.abs a) in
  let worse = if m.higher_is_better then -.change else change in
  match m.bound with
  | Some bound when spread > bound -> Unresolved
  | Some bound -> if worse > bound then Worse else if worse < -.bound then Better else Ok_
  | None -> if a = b then Ok_ else if worse > 0.0 then Worse else Better

let compare_files ~catalog a b =
  let ta = table a and tb = table b in
  let rows =
    List.concat_map
      (fun (wl, ms) ->
        match List.assoc_opt wl tb with
        | None -> []
        | Some mb ->
            List.filter_map
              (fun (name, va, sa) ->
                match (Catalog.find catalog name, List.find_opt (fun (n, _, _) -> n = name) mb) with
                | Some m, Some (_, vb, sb) ->
                    Some (wl, m, va, vb, judge m ~a:va ~b:vb ~spread:(Float.max sa sb))
                | _ -> None)
              ms)
      ta
  in
  List.iter
    (fun (wl, (m : Catalog.metric), va, vb, v) ->
      Printf.printf "%-9s %-36s %14.6g %14.6g %+8.2f%%  %s\n" wl m.name va vb
        (100.0 *. Measure.ratio (vb -. va) (Float.abs va))
        (verdict_name v))
    rows;
  List.exists (fun (_, (m : Catalog.metric), _, _, v) -> m.bound <> None && v = Worse) rows
