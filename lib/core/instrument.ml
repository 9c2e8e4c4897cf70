module Client = Weakset_store.Client
module Node_server = Weakset_store.Node_server
module Directory = Weakset_store.Directory
module Oid = Weakset_store.Oid
module Engine = Weakset_sim.Engine
module Spec = Weakset_spec

module Version = Weakset_store.Version

type t = {
  client : Client.t;
  server : Node_server.t;
  set_id : int;
  monitor : Spec.Monitor.t;
  mutable universe : Oid.Set.t; (* every oid ever observed as a member *)
  mutable history : (Version.t * Oid.Set.t) list; (* membership per version, newest first *)
  mutable unhook : unit -> unit;
}

let elem_of_oid oid = Spec.Elem.make ~label:(Oid.to_string oid) (Oid.num oid)

let to_eset oids = Oid.Set.fold (fun o acc -> Spec.Elem.Set.add (elem_of_oid o) acc) oids Spec.Elem.Set.empty

let now t = Engine.now (Client.engine t.client)

let truth t = Directory.members (Node_server.directory_truth t.server ~set_id:t.set_id)

(* The paper's reachable(): which ever-member elements are accessible from
   the client's node in the current state.

   [linearised] is the member list an implementation's membership read
   actually delivered.  When given it becomes the recorded [s]: a
   mutation that lands while the reply is in flight would otherwise make
   the coordinator's directory diverge from the view the implementation
   linearised on, and the monitor would judge the decision against a
   state it never saw.

   [version] is the directory version the reply carried.  Since the type
   constraint no longer scans these views (see Constraint_clause), a
   read path that corrupts membership would go unnoticed — so the
   instrument cross-checks the view against its own per-version record of
   the directory, which is exact: a serve returns precisely the
   directory at its version. *)
exception Corrupt_view of string

let membership_at t version =
  Option.map snd (List.find_opt (fun (v, _) -> Version.equal v version) t.history)

let verify_view t version members =
  match List.find_opt (fun (v, _) -> Version.equal v version) t.history with
  | None -> () (* version predates this instrument's attachment *)
  | Some (_, recorded) ->
      if not (Oid.Set.equal members recorded) then
        raise
          (Corrupt_view
             (Format.asprintf "instrument: membership reply diverges from directory@%a"
                Version.pp version))

let capture ?version ?linearised t =
  let members =
    match linearised with
    | Some m ->
        Option.iter (fun v -> verify_view t v m) version;
        m
    | None -> truth t
  in
  t.universe <- Oid.Set.union t.universe members;
  let accessible = Client.reachable_oids t.client t.universe in
  (to_eset members, to_eset accessible)

let mutation_op = function
  | Directory.Add o -> Spec.Sstate.Madd (elem_of_oid o)
  | Directory.Remove o -> Spec.Sstate.Mremove (elem_of_oid o)

(* Every capture is published as a [Spec_observe] event before it drives
   the monitor, so a judged monitor's [Spec_violation] follows the
   observation that caused it.  Nothing rebuilds a computation from these
   events; they stay because the run digest fingerprints them, and
   dropping them changes every pinned digest. *)
let event_elem e =
  { Weakset_obs.Event.elem_id = Spec.Elem.id e; elem_label = Spec.Elem.label e }

let event_elems es = List.map event_elem (Spec.Elem.Set.elements es)

let emit_observe t phase s accessible =
  let eng = Client.engine t.client in
  let bus = Engine.bus eng in
  (* Build the element lists only for a listening bus: an inactive bus
     drops the event without advancing its sequence number. *)
  if Weakset_obs.Bus.active bus then
    Weakset_obs.Bus.emit bus ~time:(Engine.now eng)
      (Weakset_obs.Event.Spec_observe
         {
           set_id = t.set_id;
           phase;
           s = event_elems s;
           accessible = event_elems accessible;
         })

let attach ~client ~server ~set_id =
  (* Fail fast if the server does not coordinate this set. *)
  let dir = Node_server.directory_truth server ~set_id in
  let t =
    {
      client;
      server;
      set_id;
      monitor = Spec.Monitor.create ();
      universe = Oid.Set.empty;
      history = [ (Directory.version dir, Directory.members dir) ];
      unhook = (fun () -> ());
    }
  in
  let unhook =
    Node_server.on_directory_mutation server ~set_id (fun op ->
        (* A removal's oid leaves [truth] but must stay in the universe so
           its (in)accessibility keeps being recorded. *)
        (match op with
        | Directory.Remove o | Directory.Add o -> t.universe <- Oid.Set.add o t.universe);
        t.history <- (Directory.version dir, Directory.members dir) :: t.history;
        let s, accessible = capture t in
        let mop = mutation_op op in
        let ephase =
          match mop with
          | Spec.Sstate.Madd e ->
              Weakset_obs.Event.Phase_mutation (Spec_add (event_elem e))
          | Spec.Sstate.Mremove e ->
              Weakset_obs.Event.Phase_mutation (Spec_remove (event_elem e))
        in
        emit_observe t ephase s accessible;
        Spec.Monitor.observe_mutation t.monitor ~time:(now t) ~op:mop ~s ~accessible)
  in
  t.unhook <- unhook;
  t

let detach t = t.unhook ()

let monitor t = t.monitor
let computation t = Spec.Monitor.computation t.monitor

let observe_first ?version ?linearised t =
  let s, accessible = capture ?version ?linearised t in
  emit_observe t Weakset_obs.Event.Phase_first s accessible;
  Spec.Monitor.observe_first t.monitor ~time:(now t) ~s ~accessible

let invocation_started t =
  let s, accessible = capture t in
  emit_observe t Weakset_obs.Event.Phase_invocation_start s accessible;
  Spec.Monitor.invocation_started t.monitor ~time:(now t) ~s ~accessible

let invocation_retry ?version ?linearised t =
  let s, accessible = capture ?version ?linearised t in
  emit_observe t Weakset_obs.Event.Phase_invocation_retry s accessible;
  Spec.Monitor.invocation_retry t.monitor ~time:(now t) ~s ~accessible

let invocation_completed t term =
  let s, accessible = capture t in
  let ephase =
    match term with
    | Spec.Sstate.Returns -> Weakset_obs.Event.Phase_returns
    | Spec.Sstate.Fails -> Weakset_obs.Event.Phase_fails
    | Spec.Sstate.Suspends e -> Weakset_obs.Event.Phase_suspends (event_elem e)
  in
  emit_observe t ephase s accessible;
  Spec.Monitor.invocation_completed t.monitor ~time:(now t) ~term ~s ~accessible

let suspends oid = Spec.Sstate.Suspends (elem_of_oid oid)

let check t spec =
  Spec.Figures.check ~planted:(Engine.planted (Client.engine t.client)) spec (computation t)
