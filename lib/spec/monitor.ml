module Bus = Weakset_obs.Bus
module Event = Weakset_obs.Event

type buffered_pre = { b_seq : int; b_time : float; b_s : Elem.Set.t; b_accessible : Elem.Set.t }

(* The conformance judge armed by [judge]. *)
type judge = {
  config : Visibility.config;  (* the spec's design point, judged by the unified engine *)
  planted : Weakset_obs.Planted.t;
  bus : Bus.t;
  set_id : int;
  mutable observes : int;
  mutable full_checks : int;
  mutable prev_s : Elem.Set.t option;  (* last state's s, for the incremental check *)
  seen : (string, unit) Hashtbl.t;  (* dedupe keys *)
  mutable found : Figures.violation list;  (* newest first *)
  mutable finished : bool;
}

type t = {
  comp : Computation.t;
  mutable yielded : Elem.Set.t;
  mutable next_invocation : int;
  mutable pending : buffered_pre option;
  mutable judge : judge option;
}

let create () =
  {
    comp = Computation.create ();
    yielded = Elem.Set.empty;
    next_invocation = 0;
    pending = None;
    judge = None;
  }

let computation t = t.comp
let yielded t = t.yielded
let completed_invocations t = t.next_invocation
let blocked t = Option.is_some t.pending

(* ------------------------------------------------------------------ *)
(* Judging                                                            *)
(* ------------------------------------------------------------------ *)

let sample_every = 16

let judge ?(planted = Weakset_obs.Planted.none) t ~bus ~set_id spec =
  if Option.is_some t.judge then invalid_arg "Monitor.judge: already judged";
  if Computation.length t.comp > 0 || Option.is_some t.pending then
    invalid_arg "Monitor.judge: a state is already recorded";
  t.judge <-
    Some
      {
        config = spec;
        planted;
        bus;
        set_id;
        observes = 0;
        full_checks = 0;
        prev_s = None;
        seen = Hashtbl.create 16;
        found = [];
        finished = false;
      }

let viol_key (v : Figures.violation) =
  Printf.sprintf "%s|%s|%d" v.where v.message
    (match v.state with None -> -1 | Some st -> st.Sstate.index)

(* Record a violation if unseen and publish it as a Spec_violation event. *)
let note j ~time (v : Figures.violation) =
  let key = viol_key v in
  if not (Hashtbl.mem j.seen key) then begin
    Hashtbl.replace j.seen key ();
    j.found <- v :: j.found;
    Bus.emit j.bus ~time
      (Event.Spec_violation { set_id = j.set_id; where = v.where; message = v.message })
  end

let full_check t j ~time =
  j.full_checks <- j.full_checks + 1;
  let verdict = Visibility.check ~planted:j.planted j.config t.comp in
  (match verdict with
  | Visibility.Conforms -> ()
  | Visibility.Violates vs -> List.iter (note j ~time) vs);
  verdict

(* The constraint clauses are reflexive and transitive, so checking each
   new state against its predecessor is exactly the pairwise check — this
   is the cheap always-on part.  Everything else (ensures clauses,
   yielded discipline, optimistic guarantees) runs on the sampled full
   checks and once more at [finish]. *)
let incremental_constraint t j ~time =
  match (j.config.Visibility.scope, Computation.last_state t.comp) with
  | Visibility.During_run, _ | _, None -> ()
  | Visibility.All_pairs, Some last ->
      let cur = last.Sstate.s_value in
      (match j.prev_s with
      | Some prev
        when not (Constraint_clause.holds_between j.config.Visibility.constraint_ prev cur) ->
          note j ~time
            {
              Figures.where = Constraint_clause.name j.config.Visibility.constraint_;
              state = Some last;
              message = "set value violated the type constraint";
            }
      | _ -> ());
      j.prev_s <- Some cur

(* Called after every capture point has updated the computation. *)
let observed t ~time =
  match t.judge with
  | Some j when not j.finished ->
      j.observes <- j.observes + 1;
      incremental_constraint t j ~time;
      if j.observes mod sample_every = 0 then ignore (full_check t j ~time : Figures.verdict)
  | Some _ | None -> ()

let finish t ~time =
  match t.judge with
  | None -> invalid_arg "Monitor.finish: not judged"
  | Some j when j.finished -> invalid_arg "Monitor.finish: already finished"
  | Some j ->
      let verdict = full_check t j ~time in
      j.finished <- true;
      verdict

let violations t = match t.judge with None -> [] | Some j -> List.rev j.found
let full_checks t = match t.judge with None -> 0 | Some j -> j.full_checks
let observes t = match t.judge with None -> 0 | Some j -> j.observes

(* ------------------------------------------------------------------ *)
(* Capture points                                                     *)
(* ------------------------------------------------------------------ *)

let observe_first t ~time ~s ~accessible =
  Computation.append t.comp ~time ~kind:Sstate.First ~s ~accessible ~yielded:t.yielded;
  observed t ~time

let invocation_started t ~time ~s ~accessible =
  if Option.is_some t.pending then invalid_arg "Monitor: invocation already in progress";
  (* Reserve the capture-order slot now: mutations observed while this
     invocation is in flight must order after this snapshot. *)
  t.pending <-
    Some { b_seq = Computation.next_seq t.comp; b_time = time; b_s = s; b_accessible = accessible };
  observed t ~time

let invocation_retry t ~time ~s ~accessible =
  match t.pending with
  | None -> invalid_arg "Monitor: no invocation in progress"
  | Some _ ->
      t.pending <-
        Some
          { b_seq = Computation.next_seq t.comp; b_time = time; b_s = s; b_accessible = accessible };
      observed t ~time

let invocation_completed t ~time ~term ~s ~accessible =
  match t.pending with
  | None -> invalid_arg "Monitor: no invocation in progress"
  | Some pre ->
      let i = t.next_invocation in
      t.next_invocation <- i + 1;
      t.pending <- None;
      Computation.append ~seq:pre.b_seq t.comp ~time:pre.b_time ~kind:(Sstate.Invocation_pre i)
        ~s:pre.b_s ~accessible:pre.b_accessible ~yielded:t.yielded;
      (match term with
      | Sstate.Suspends e -> t.yielded <- Elem.Set.add e t.yielded
      | Sstate.Returns | Sstate.Fails -> ());
      Computation.append t.comp ~time ~kind:(Sstate.Invocation_post (i, term)) ~s ~accessible
        ~yielded:t.yielded;
      observed t ~time

let observe_mutation t ~time ~op ~s ~accessible =
  Computation.append t.comp ~time ~kind:(Sstate.Mutation op) ~s ~accessible ~yielded:t.yielded;
  observed t ~time
