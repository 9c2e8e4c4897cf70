(* weakset_demo: command-line driver for exploring the weak-set design
   space on simulated clusters.

     weakset_demo specs                 -- print the design space & GMW table
     weakset_demo iterate ...           -- run one iteration scenario
     weakset_demo matrix ...            -- conformance matrix of one run
     weakset_demo ls ...                -- strict vs weak ls over a WAN  *)

open Weakset_sim
open Weakset_net
open Weakset_store
open Weakset_core
open Weakset_dynamic
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared world building                                              *)
(* ------------------------------------------------------------------ *)

(* The standard six-node world (see {!Sim_world}): node 0 coordinates,
   nodes 1-4 home the members, node 5 runs the client. *)
let build_world ~seed ~size ~ghost_policy =
  let policy =
    if ghost_policy then Node_server.Defer_removes_while_iterating else Node_server.Immediate
  in
  Sim_world.create ~policy ~size (Engine.create ~seed:(Int64.of_int seed) ()) ~nodes:6
    ~latency:1.0 ()

let semantics_of_name name =
  match List.assoc_opt name Semantics.all with
  | Some s -> Ok s
  | None ->
      Error
        (Printf.sprintf "unknown semantics %S (expected: %s)" name
           (String.concat ", " (List.map fst Semantics.all)))

(* ------------------------------------------------------------------ *)
(* specs                                                              *)
(* ------------------------------------------------------------------ *)

let run_specs () =
  Printf.printf "The weak-set design space (paper figures):\n\n";
  List.iter
    (fun (name, sem) ->
      let spec = Semantics.spec_of sem in
      Printf.printf "  %-18s %-22s %s\n" name spec.Weakset_spec.Figures.paper_figure
        (Format.asprintf "%a" Semantics.pp sem))
    Semantics.all;
  Printf.printf "\nGarcia-Molina & Wiederhold classification (paper §4):\n\n";
  List.iter
    (fun (name, g) -> Printf.printf "  %-18s %s\n" name (Format.asprintf "%a" Gmw.pp g))
    (Gmw.table ());
  0

(* ------------------------------------------------------------------ *)
(* iterate                                                            *)
(* ------------------------------------------------------------------ *)

let run_iterate sem_name size partition_at heal_at mutate_every verbose =
  match semantics_of_name sem_name with
  | Error msg ->
      prerr_endline msg;
      1
  | Ok semantics ->
      let w = build_world ~seed:42 ~size ~ghost_policy:(semantics = Semantics.grow_only) in
      let { Sim_world.eng; nodes; servers; fault; client; sref; _ } = w in
      (match partition_at with
      | Some at ->
          let groups =
            [ [ nodes.(0); nodes.(5) ]; [ nodes.(1); nodes.(2); nodes.(3); nodes.(4) ] ]
          in
          (match heal_at with
          | Some h -> Fault.schedule_partition fault ~at ~heal_at:h groups
          | None ->
              Engine.schedule eng
                ~after:(Float.max 0.0 at)
                (fun () -> Fault.partition fault groups))
      | None -> ());
      (match mutate_every with
      | Some period when period > 0.0 ->
          let rng = w.Sim_world.rng in
          let counter = ref 1000 in
          Engine.spawn eng ~name:"mutator" (fun () ->
              let rec loop () =
                Engine.sleep eng period;
                if Engine.now eng < 2_000.0 then begin
                  incr counter;
                  let home_ix = 1 + Rng.int rng 4 in
                  let oid = Oid.make ~num:!counter ~home:nodes.(home_ix) in
                  Node_server.put_object servers.(home_ix) oid (Svalue.make "hot");
                  ignore (Client.dir_add client sref oid);
                  loop ()
                end
              in
              loop ())
      | Some _ | None -> ());
      let set =
        Weak_set.make ~heal_signal:(Fault.signal fault) ~coordinator_server:servers.(0)
          client sref semantics
      in
      Engine.spawn eng ~name:"query" (fun () ->
          let iter, inst = Weak_set.elements ~instrument:true set in
          let t0 = Engine.now eng in
          let yields, ending = Iterator.drain ~limit:(size * 4) iter in
          Printf.printf "%s over %d elements: %d yield(s), %s, %.2f time units\n" sem_name size
            (List.length yields)
            (match ending with
            | `Done -> "returned"
            | `Failed e -> "failed (" ^ Client.error_to_string e ^ ")"
            | `Limit -> "stopped at yield limit")
            (Engine.now eng -. t0);
          match inst with
          | Some inst ->
              let spec = Semantics.spec_of semantics in
              let verdict = Instrument.check inst spec in
              Printf.printf "%s\n"
                (Weakset_spec.Report.summary spec (Instrument.computation inst) verdict);
              if verbose then
                Format.printf "%a" Weakset_spec.Report.pp_timeline (Instrument.computation inst)
          | None -> ());
      let (_ : int) = Engine.run ~until:100_000.0 eng in
      (match Engine.crashes eng with
      | [] -> 0
      | c :: _ ->
          Printf.eprintf "fiber crashed: %s\n" (Printexc.to_string c.Engine.crash_exn);
          1)

(* ------------------------------------------------------------------ *)
(* matrix                                                             *)
(* ------------------------------------------------------------------ *)

let run_matrix sem_name size mutate =
  match semantics_of_name sem_name with
  | Error msg ->
      prerr_endline msg;
      1
  | Ok semantics ->
      let w = build_world ~seed:43 ~size ~ghost_policy:(semantics = Semantics.grow_only) in
      let { Sim_world.eng; nodes; servers; client; sref; _ } = w in
      let set = Weak_set.make ~coordinator_server:servers.(0) client sref semantics in
      Engine.spawn eng ~name:"query" (fun () ->
          let iter, inst = Weak_set.elements ~instrument:true set in
          let (_ : Iterator.outcome) = Iterator.next iter in
          if mutate then begin
            let home_ix = 1 in
            let oid = Oid.make ~num:999_999 ~home:nodes.(home_ix) in
            Node_server.put_object servers.(home_ix) oid (Svalue.make "hot");
            ignore (Client.dir_add client sref oid)
          end;
          let (_ : (Oid.t * Svalue.t) list * _) = Iterator.drain iter in
          match inst with
          | Some inst ->
              Printf.printf "conformance of one %s run (mutations=%b):\n\n" sem_name mutate;
              Format.printf "%a" Weakset_spec.Report.pp_matrix
                (Weakset_spec.Report.conformance_matrix (Instrument.computation inst))
          | None -> ());
      let (_ : int) = Engine.run ~until:100_000.0 eng in
      0

(* ------------------------------------------------------------------ *)
(* ls                                                                 *)
(* ------------------------------------------------------------------ *)

let run_ls files fanout kill =
  let eng = Engine.create ~seed:7L () in
  let rng = Rng.split (Engine.rng eng) in
  let topo = Topology.create () in
  let nodes = Topology.wan topo ~rng ~nodes:16 ~extra_links:8 in
  let rpc : Node_server.rpc = Rpc.create eng topo in
  let servers = Array.map (fun n -> Node_server.create rpc n) nodes in
  let dfs = Dfs.create rpc servers in
  let dir = Fpath.of_string "/data" in
  let homes = List.init 14 (fun i -> i + 2) in
  let (_ : Oid.t array) =
    Workload.spread_tree dfs ~rng ~dir ~coordinator:1 ~files ~homes ~mean_size:2000 ()
  in
  List.iteri (fun i n -> if i < kill then Topology.set_node_up topo n false)
    (Array.to_list (Array.sub nodes 2 14));
  let client = Client.with_timeout (Dfs.client_at dfs 0) 500.0 in
  Engine.spawn eng ~name:"ls" (fun () ->
      let t0 = Engine.now eng in
      (match Ls.ls dfs ~client dir Ls.Strict with
      | Ok l ->
          Printf.printf "strict: %d entries, done at %.2f\n" (List.length l.Ls.entries)
            (l.Ls.finished_at -. t0)
      | Error e -> Printf.printf "strict: FAILED (%s)\n" (Client.error_to_string e));
      let t0 = Engine.now eng in
      match Ls.ls dfs ~client dir (Ls.Weak { parallelism = fanout }) with
      | Ok l ->
          Printf.printf "weak(%d): %d entries (missed %d), first at %s, done at %.2f\n" fanout
            (List.length l.Ls.entries) l.Ls.missed
            (match l.Ls.first_entry_at with
            | Some t -> Printf.sprintf "%.2f" (t -. t0)
            | None -> "-")
            (l.Ls.finished_at -. t0)
      | Error e -> Printf.printf "weak: FAILED (%s)\n" (Client.error_to_string e));
  let (_ : int) = Engine.run ~until:1.0e7 eng in
  0

(* ------------------------------------------------------------------ *)
(* disconnect                                                         *)
(* ------------------------------------------------------------------ *)

let run_disconnect files offline_for =
  let eng = Engine.create ~seed:12L () in
  let rng = Rng.split (Engine.rng eng) in
  let topo = Topology.create () in
  let nodes = Topology.clique topo 6 ~latency:2.0 in
  let rpc : Node_server.rpc = Rpc.create eng topo in
  let servers = Array.map (fun n -> Node_server.create rpc n) nodes in
  let fault = Fault.create eng topo in
  let dfs = Dfs.create rpc servers in
  let dir = Fpath.of_string "/hoard" in
  let homes = [ 1; 2; 3; 4 ] in
  let (_ : Oid.t array) =
    Workload.spread_tree dfs ~rng ~dir ~coordinator:1 ~files ~homes ~mean_size:512 ()
  in
  let session = Disconnect.setup dfs ~fault ~client_ix:0 dir ~sync_interval:30.0 in
  Engine.spawn eng ~name:"mobile" (fun () ->
      let hoarded = Disconnect.hoard session in
      Printf.printf "hoarded %d/%d files
" hoarded files;
      Disconnect.disconnect session;
      Printf.printf "disconnected at t=%.1f
" (Engine.now eng);
      Engine.sleep eng offline_for;
      let hits, misses = Disconnect.local_query session () in
      Printf.printf "offline query at t=%.1f: %d entries, %d missing
" (Engine.now eng)
        (List.length hits) misses;
      Disconnect.reconnect session;
      ignore (Disconnect.resync session);
      Printf.printf "reintegrated at t=%.1f
" (Engine.now eng));
  let (_ : int) = Engine.run ~until:1.0e6 eng in
  0

(* ------------------------------------------------------------------ *)
(* Cmdliner wiring                                                    *)
(* ------------------------------------------------------------------ *)

let sem_arg =
  Arg.(
    value
    & opt string "optimistic"
    & info [ "s"; "semantics" ] ~docv:"SEM"
        ~doc:"Iterator semantics: immutable, snapshot, grow-only, optimistic, optimistic-stale.")

let size_arg =
  Arg.(value & opt int 16 & info [ "n"; "size" ] ~docv:"N" ~doc:"Number of set elements.")

let specs_cmd =
  Cmd.v (Cmd.info "specs" ~doc:"Print the design space and the GMW classification table.")
    Term.(const run_specs $ const ())

let run_figures full =
  if full then
    print_string (Weakset_spec.Larch.render_type Weakset_spec.Figures.fig1)
  else print_string (Weakset_spec.Larch.render_all ());
  print_newline ();
  0

let figures_cmd =
  let full =
    Arg.(value & flag & info [ "type" ] ~doc:"Print the whole set type spec (paper Figure 1).")
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Render the figure specifications in the paper's Larch syntax.")
    Term.(const run_figures $ full)

let iterate_cmd =
  let partition_at =
    Arg.(
      value
      & opt (some float) None
      & info [ "partition-at" ] ~docv:"T" ~doc:"Cut object homes off at virtual time T.")
  in
  let heal_at =
    Arg.(value & opt (some float) None & info [ "heal-at" ] ~docv:"T" ~doc:"Heal at time T.")
  in
  let mutate_every =
    Arg.(
      value
      & opt (some float) None
      & info [ "mutate-every" ] ~docv:"D" ~doc:"Add an element every D time units.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Dump the computation.") in
  Cmd.v
    (Cmd.info "iterate" ~doc:"Run one iteration scenario and check it against its figure spec.")
    Term.(const run_iterate $ sem_arg $ size_arg $ partition_at $ heal_at $ mutate_every $ verbose)

let matrix_cmd =
  let mutate = Arg.(value & flag & info [ "mutate" ] ~doc:"Add an element mid-run.") in
  Cmd.v
    (Cmd.info "matrix" ~doc:"Check one run against every figure spec (the design-space matrix).")
    Term.(const run_matrix $ sem_arg $ size_arg $ mutate)

let ls_cmd =
  let files = Arg.(value & opt int 48 & info [ "files" ] ~docv:"N" ~doc:"Files in the directory.") in
  let fanout = Arg.(value & opt int 8 & info [ "fanout" ] ~docv:"K" ~doc:"Parallel fetchers.") in
  let kill = Arg.(value & opt int 0 & info [ "kill" ] ~docv:"K" ~doc:"Crash K content servers.") in
  Cmd.v
    (Cmd.info "ls" ~doc:"Strict vs weak ls over a 16-node WAN.")
    Term.(const run_ls $ files $ fanout $ kill)

let disconnect_cmd =
  let files = Arg.(value & opt int 12 & info [ "files" ] ~docv:"N" ~doc:"Files to hoard.") in
  let offline =
    Arg.(value & opt float 300.0 & info [ "offline-for" ] ~docv:"T" ~doc:"Offline duration.")
  in
  Cmd.v
    (Cmd.info "disconnect" ~doc:"Hoard, disconnect, query offline, reintegrate (mobile client).")
    Term.(const run_disconnect $ files $ offline)

let () =
  let doc = "weak sets: the design space of Wing & Steere (ICDCS 1995), executable" in
  let info = Cmd.info "weakset_demo" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info [ specs_cmd; figures_cmd; iterate_cmd; matrix_cmd; ls_cmd; disconnect_cmd ]))
