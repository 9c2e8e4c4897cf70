(* One workload, five design points.

   The same scripted scenario runs under each of the five semantics —
   the paper's four (immutable, snapshot, grow-only, optimistic) plus
   the linearizable snapshot iterator — on an identical fresh cluster:
   eight members, then while the query is iterating with think-time, a
   concurrent writer adds a ninth member and removes one of the
   originals.  The writer goes through a handle of the same semantics,
   so the immutable point's write lock is honoured rather than
   bypassed.

   Every run is judged by the one parametric visibility checker
   (Weakset_spec.Visibility, given the Figures row), configured
   for that design point.  The side-by-side output shows exactly what
   each point trades: whether the add is observed, whether the removed
   member is still yielded, and what the spec says about it.

   Run with: dune exec examples/five_semantics.exe *)

open Weakset_sim
open Weakset_net
open Weakset_store
open Weakset_core

let () =
  Printf.printf "== one workload, five design points ==\n\n";
  Printf.printf
    "8 members; at t=6 a writer adds #9, at t=9 it removes #2 (same-semantics handle).\n\n";
  Printf.printf "%-12s %-28s %-9s %-10s %s\n" "semantics" "yielded" "saw add?" "outcome"
    "parametric checker says";
  Printf.printf "%s\n" (String.make 100 '-');
  List.iter
    (fun (name, semantics) ->
      let eng = Engine.create ~seed:11L () in
      let topo = Topology.create () in
      let nodes = Topology.clique topo 6 ~latency:1.0 in
      let rpc = Rpc.create eng topo in
      let servers = Array.map (fun n -> Node_server.create rpc n) nodes in
      (* Ghost copies for grow-only, so its type constraint is well-posed
         under the concurrent remove (§3.3). *)
      let policy =
        if semantics = Semantics.grow_only then Node_server.Defer_removes_while_iterating
        else Node_server.Immediate
      in
      Node_server.host_directory servers.(0) ~set_id:1 ~policy;
      let client = Client.create rpc nodes.(5) in
      let sref = { Protocol.set_id = 1; coordinator = nodes.(0); replicas = [] } in
      let dir = Node_server.directory_truth servers.(0) ~set_id:1 in
      let oid_of i = Oid.make ~num:i ~home:nodes.(1 + (i mod 4)) in
      let put i =
        let oid = oid_of i in
        Node_server.put_object servers.(1 + (i mod 4)) oid
          (Svalue.make (Printf.sprintf "object %d's contents" i));
        oid
      in
      for i = 1 to 8 do
        ignore (Directory.apply dir (Directory.Add (put i)))
      done;

      (* The concurrent writer: same semantics, so immutable's write lock
         makes it wait for the query instead of racing it. *)
      let writer = Weak_set.make ~coordinator_server:servers.(0) client sref semantics in
      Engine.spawn eng ~name:"writer" (fun () ->
          Engine.sleep eng 6.0;
          ignore (Weak_set.add writer (put 9));
          Engine.sleep eng 3.0;
          ignore (Weak_set.remove writer (oid_of 2)));

      let set = Weak_set.make ~coordinator_server:servers.(0) client sref semantics in
      Engine.spawn eng ~name:"query" (fun () ->
          let iter, inst = Weak_set.elements ~instrument:true set in
          let nums = ref [] in
          let ending = ref "blocked" in
          let rec loop () =
            match Iterator.next iter with
            | Iterator.Yield (oid, _) ->
                nums := Oid.num oid :: !nums;
                Engine.sleep eng 1.0;
                loop ()
            | Iterator.Done -> ending := "returns"
            | Iterator.Failed e -> ending := "fails(" ^ Client.error_to_string e ^ ")"
          in
          loop ();
          Iterator.close iter;
          let yielded = List.sort compare (List.rev !nums) in
          let verdict_text =
            match inst with
            | None -> "-"
            | Some inst ->
                (* The churn-appropriate judge for each point: the §3.4
                   window spec — which for lin is the lin config itself. *)
                let spec = Semantics.window_spec_of semantics in
                Weakset_spec.Report.summary spec
                  (Instrument.computation inst)
                  (Instrument.check inst spec)
          in
          Printf.printf "%-12s %-28s %-9s %-10s %s\n" name
            (String.concat "," (List.map string_of_int yielded))
            (if List.mem 9 yielded then "yes" else "no")
            !ending verdict_text);
      Engine.run_and_check eng)
    [
      ("immutable", Semantics.immutable);
      ("snapshot", Semantics.snapshot);
      ("grow-only", Semantics.grow_only);
      ("optimistic", Semantics.optimistic);
      ("lin", Semantics.lin);
    ];
  Printf.printf "\n";
  Printf.printf "immutable  locks writers out: neither mutation lands until it returns.\n";
  Printf.printf "snapshot   fixes membership at open: never sees #9, may still yield #2.\n";
  Printf.printf "grow-only  defers the remove (ghost copy) and picks up the add.\n";
  Printf.printf "optimistic sees whatever each re-read finds - cheapest, weakest.\n";
  Printf.printf "lin        pins one version: equals a directory state, never a mix.\n"
