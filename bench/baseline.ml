(* Committed benchmark baseline.

   [collect] runs a small fixed seeded suite (fault-free clique worlds,
   every named semantics, two set sizes, plus a lease-cache pass and a
   short saturation sweep) and returns tracked metrics: virtual-time
   latencies, message counts and a knee rate.  The suite is
   deterministic, so a baseline written on one machine compares exactly
   on any other: a difference means algorithmic change, not noise.

   The JSON file ({!write}/{!read}) seeds the repo's perf trajectory
   (BENCH_baseline.json).  The suite is seeded, so a rerun must write the
   committed file byte for byte: [make bench-compare] checks that with
   [diff], and test_scenarios compares the metrics one by one. *)

let schema = "weakset-bench-baseline-v1"

let sizes = [ 16; 64 ]

let collect ?obs () =
  let metrics = ref [] in
  let push k v = metrics := (k, v) :: !metrics in
  let require k what = function
    | Some v -> push k v
    | None -> failwith (Printf.sprintf "baseline: %s for %s" what k)
  in
  List.iter
    (fun size ->
      List.iter
        (fun (sname, sem) ->
          let w = Scenarios.clique_world ?obs ~seed:(9000 + size) ~size () in
          let before = Scenarios.sent_messages w in
          let r = Scenarios.run_iteration ~think:1.0 w sem in
          let sent = Scenarios.sent_messages w - before in
          let key what = Printf.sprintf "iter.%s.n%d.%s" sname size what in
          require (key "first") "no first yield" r.Scenarios.first_at;
          require (key "total") "run did not terminate" r.Scenarios.total;
          push (key "msgs") (float_of_int sent))
        Scenarios.named_semantics)
    sizes;
  (* Lease-cache trajectory: a cold fill then a warm re-iteration of the
     same seeded world.  The warm message count is the tracked win — it
     must stay a fraction of the cold one. *)
  List.iter
    (fun size ->
      let w =
        Scenarios.clique_world ?obs ~seed:(9200 + size)
          ~cache:{ Weakset_store.Cache.capacity = 256; ttl = 600.0 }
          ~lease_ttl:600.0 ~size ()
      in
      let measure what =
        let before = Scenarios.sent_messages w in
        let r = Scenarios.run_iteration ~think:1.0 w Weakset_core.Semantics.optimistic in
        let sent = Scenarios.sent_messages w - before in
        let key k = Printf.sprintf "iter.cached-%s.n%d.%s" what size k in
        require (key "total") "run did not terminate" r.Scenarios.total;
        push (key "msgs") (float_of_int sent)
      in
      measure "cold";
      measure "warm")
    sizes;
  (* Open-loop saturation trajectory: a short E13 sweep of the
     optimistic point.  The knee rate is the capacity headline; the
     intent/send p99.9 at the knee pin down the coordinated-omission gap
     we must keep seeing. *)
  let curve, _alerts =
    Experiments.ladder_curve ?obs ~clients:16 ~duration:120.0
      (Experiments.design_point ~seed_base:13_500 ~label:"baseline-optimistic"
         ~sem:Weakset_core.Semantics.optimistic ~bursty:false)
  in
  (match curve.Weakset_load.Sweep.knee with
  | None -> failwith "baseline: e13 sweep detected no knee"
  | Some k -> (
      let p = List.nth curve.Weakset_load.Sweep.points k in
      push "load.knee.rate" p.Weakset_load.Sweep.offered;
      match (p.Weakset_load.Sweep.p999_intent, p.Weakset_load.Sweep.p999_send) with
      | Some i, Some s ->
          push "load.p999_at_knee.intent" i;
          push "load.p999_at_knee.send" s
      | _ -> failwith "baseline: e13 knee step finished no requests"));
  List.rev !metrics

(* --- file format ----------------------------------------------------- *)

let write ~path metrics =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"schema\": \"%s\",\n  \"metrics\": {" schema;
  List.iteri
    (fun i (k, v) ->
      if i > 0 then output_string oc ",";
      Printf.fprintf oc "\n    \"%s\": %.17g" k v)
    metrics;
  output_string oc "\n  }\n}\n";
  close_out oc

let read path =
  match
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  with
  | exception Sys_error msg -> Error msg
  | s -> (
  match Weakset_obs.Json.of_string_opt s with
  | None -> Error (path ^ ": malformed JSON")
  | Some j -> (
      match Option.bind (Weakset_obs.Json.member "schema" j) Weakset_obs.Json.to_string with
      | Some sc when sc = schema -> (
          match Weakset_obs.Json.member "metrics" j with
          | Some (Weakset_obs.Json.Obj kvs) -> (
              let parsed =
                List.filter_map
                  (fun (k, v) ->
                    Option.map (fun f -> (k, f)) (Weakset_obs.Json.to_float v))
                  kvs
              in
              if List.length parsed = List.length kvs then Ok parsed
              else Error (path ^ ": non-numeric metric value"))
          | _ -> Error (path ^ ": missing \"metrics\" object"))
      | Some sc -> Error (Printf.sprintf "%s: schema %S, expected %S" path sc schema)
      | None -> Error (path ^ ": missing \"schema\"")))
