module Figures = Weakset_spec.Figures
module Computation = Weakset_spec.Computation
module Json = Weakset_obs.Json

type issue =
  | Stale_beyond_lease of {
      time : float;
      set_id : int;
      served : int;
      required : int;
      age : float;
    }
  | Spec_violation of { iteration : int; semantics : string; where : string; message : string }
  | Monitor_mismatch of { iteration : int; semantics : string; detail : string }
  | Fiber_crash of { fiber : string; exn_text : string }
  | Stuck_iterator of { iteration : int; semantics : string }
  | Steps_exhausted of { steps : int }
  | Leaked_fibers of { count : int; fibers : string list }
  | Lost_rpc of { count : int }
  | Commit_lost of { opnum : int; op : string; node : int }
  | Commit_reordered of { opnum : int; first : string; second : string; node : int }
  | Election_overdue of { deadline : float }
  | Shed_divergence of { node : int; extra : string list; missing : string list }
      (** a node's hosted directory diverged from the fold of its own
          committed log: some effect landed outside consensus — e.g. a
          "shed" mutation that was not a clean no-op.  [extra] are
          members present in the directory the log cannot justify;
          [missing] the converse. *)

type iteration_input = {
  index : int;
  semantics : string;
  faulty : bool;
  spec : Figures.spec;
  outcome : [ `Done | `Failed of string | `Limit | `Unfinished ];
  computation : Computation.t;
  online_violations : Figures.violation list;
}

type cache_hit = { h_time : float; h_set : int; h_version : int; h_age : float }

type cache_evidence = {
  hits : cache_hit list;
  mutations : (float * int) list;
  lease_ttl : float;
  inval_grace : float;
  fault_windows : (float * float) list;
}

(* Evidence from a replication-group run (the scenario harness):
   [r_ledger] is the client-visible commit ledger — every (opnum, op)
   some leader acknowledged as committed; [r_final_logs] the committed
   log each surviving member ended with; [r_probes] the liveness probes
   — (deadline, was the group stable by then?) for every quiet window
   long enough that a quorum-connected group must have elected. *)
type repl_evidence = {
  r_ledger : (int * string) list;
  r_final_logs : (int * (int * string) list) list;
  r_probes : (float * bool) list;
  r_dir_vs_log : (int * string list * string list) list;
      (* per surviving node: (node, directory members, members obtained
         by folding that node's OWN committed log).  Equality is the
         shed-is-a-clean-no-op invariant: every directory effect must be
         justified by a committed entry *)
}

type input = {
  iterations : iteration_input list;
  engine_crashes : (string * string) list;
  parked_fibers : string list;
  steps : int;
  step_cap : int;
  unmatched_rpcs : int;
  cache : cache_evidence option;
  repl : repl_evidence option;
}

let category = function
  | Stale_beyond_lease _ -> "stale-beyond-lease"
  | Spec_violation _ -> "spec-violation"
  | Monitor_mismatch _ -> "monitor-mismatch"
  | Fiber_crash _ -> "fiber-crash"
  | Stuck_iterator _ -> "stuck-iterator"
  | Steps_exhausted _ -> "steps-exhausted"
  | Leaked_fibers _ -> "leaked-fibers"
  | Lost_rpc _ -> "lost-rpc"
  | Commit_lost _ -> "commit-lost"
  | Commit_reordered _ -> "commit-reordered"
  | Election_overdue _ -> "election-overdue"
  | Shed_divergence _ -> "shed-divergence"

let severity = function
  | Commit_lost _ -> 10
  | Shed_divergence _ -> 9
  | Commit_reordered _ -> 9
  | Stale_beyond_lease _ -> 8
  | Spec_violation _ -> 7
  | Monitor_mismatch _ -> 6
  | Fiber_crash _ -> 5
  | Stuck_iterator _ -> 4
  | Election_overdue _ -> 4
  | Steps_exhausted _ -> 3
  | Leaked_fibers _ -> 2
  | Lost_rpc _ -> 1

let sort issues =
  List.stable_sort (fun a b -> Int.compare (severity b) (severity a)) issues

let describe = function
  | Stale_beyond_lease { time; set_id; served; required; age } ->
      Printf.sprintf
        "cache served set %d at t=%.3f with version %d (lease age %.3f) although the \
         coordinator had reached version %d long enough ago for a callback to have landed"
        set_id time served age required
  | Spec_violation { iteration; semantics; where; message } ->
      Printf.sprintf "spec violation (iteration %d, %s): [%s] %s" iteration semantics where
        message
  | Monitor_mismatch { iteration; semantics; detail } ->
      Printf.sprintf "online/replay monitor mismatch (iteration %d, %s): %s" iteration
        semantics detail
  | Fiber_crash { fiber; exn_text } -> Printf.sprintf "fiber %S crashed: %s" fiber exn_text
  | Stuck_iterator { iteration; semantics } ->
      Printf.sprintf "iterator stuck (iteration %d, %s): suspended after all faults healed"
        iteration semantics
  | Steps_exhausted { steps } -> Printf.sprintf "step cap hit after %d events: livelock" steps
  | Leaked_fibers { count; fibers } ->
      Printf.sprintf "%d fiber(s) leaked (parked at quiescence): %s" count
        (String.concat ", " fibers)
  | Lost_rpc { count } -> Printf.sprintf "%d RPC call(s) lost: no reply and no timeout" count
  | Commit_lost { opnum; op; node } ->
      Printf.sprintf
        "commit safety: op %s was acknowledged committed at opnum %d but node %d's final \
         log has nothing there"
        op opnum node
  | Commit_reordered { opnum; first; second; node } ->
      if node < 0 then
        Printf.sprintf
          "commit safety: opnum %d was acknowledged twice with different ops (%s, then %s) \
          — a committed entry was overwritten across a view change"
          opnum first second
      else
        Printf.sprintf
          "commit safety: node %d's final log holds %s at opnum %d where %s was \
           acknowledged committed"
          node second opnum first
  | Election_overdue { deadline } ->
      Printf.sprintf
        "view-change liveness: the group was quorum-connected yet had no stable leader by \
         t=%.3f"
        deadline
  | Shed_divergence { node; extra; missing } ->
      (* A planted-bug run can diverge by hundreds of members; keep the
         verdict line readable and leave the full lists to the JSON. *)
      let preview l =
        let n = List.length l in
        if n <= 6 then String.concat " " l
        else Printf.sprintf "%s … %d total" (String.concat " " (List.filteri (fun i _ -> i < 6) l)) n
      in
      Printf.sprintf
        "shed safety: node %d's directory diverges from the fold of its committed log \
         (unjustified members: [%s]; absent members: [%s]) — some effect landed outside \
         consensus, e.g. a shed op that was not a clean no-op"
        node (preview extra) (preview missing)

(* ------------------------------------------------------------------ *)
(* Judging                                                            *)
(* ------------------------------------------------------------------ *)

(* Mismatch classes that are judge artifacts, not implementation bugs.
   The checker evaluates its expectation against the invocation's
   recorded PRE-state, but a fault (or heal) landing between that capture
   and the invocation's outcome makes the expectation stale:

   - a pessimistic iterator times out on a fetch because the partition
     arrived after the pre-state said the element was reachable
     ("expected suspends but iterator fails", and its dual where a heal
     lets a fetch succeed after the pre-state said nothing was);
   - a yield whose element the pre-state considered unreachable because
     the heal arrived mid-fetch;
   - an optimistic-stale iterator returning while coordinator truth still
     holds members its (legitimately stale, §3 / ablation A1) replica
     view has never heard of.

   All are gated on the plan actually injecting faults, except the stale
   early return, which replica lag alone can produce. *)
let tolerable it (v : Figures.violation) =
  let msg = v.Figures.message in
  let pessimistic =
    match it.semantics with "immutable" | "snapshot" | "grow-only" -> true | _ -> false
  in
  (it.faulty && pessimistic
  && (msg = "expected suspends but iterator fails"
     || msg = "expected fails but iterator suspends"))
  || (it.faulty && msg = "suspends obligations > e ∈ reachable(s)_pre")
  || (it.semantics = "optimistic-stale" && msg = "expected suspends but iterator returns")

let judge_iteration it =
  (* An iteration that could not even record a first state (e.g. the
     coordinator was unreachable at open) produced no computation to
     check: a legitimate pessimistic failure, not a violation. *)
  match Computation.first_state it.computation with
  | None -> []
  | Some _ ->
      let verdict = Figures.check it.spec it.computation in
      let replay_violations =
        (match verdict with Figures.Conforms -> [] | Figures.Violates vs -> vs)
        |> List.filter (fun v -> not (tolerable it v))
      in
      let spec_issues =
        List.map
          (fun (v : Figures.violation) ->
            Spec_violation
              {
                iteration = it.index;
                semantics = it.semantics;
                where = v.Figures.where;
                message = v.Figures.message;
              })
          replay_violations
      in
      (* Cross-check: the online judge watched this computation as it
         grew and ran a final full check at finish, so it must agree at
         least on pass/fail. *)
      let online_violations = List.filter (fun v -> not (tolerable it v)) it.online_violations in
      let mismatch =
        match (replay_violations, online_violations) with
        | [], [] -> []
        | _ :: _, [] ->
            [
              Monitor_mismatch
                {
                  iteration = it.index;
                  semantics = it.semantics;
                  detail =
                    Printf.sprintf "replay check found %d violation(s), online monitor none"
                      (List.length replay_violations);
                }
            ]
        | [], _ :: _ ->
            [
              Monitor_mismatch
                {
                  iteration = it.index;
                  semantics = it.semantics;
                  detail =
                    Printf.sprintf "online monitor latched %d violation(s), replay check none"
                      (List.length online_violations);
                }
            ]
        | _ :: _, _ :: _ -> []
      in
      spec_issues @ mismatch

(* Cache coherence: with wire invalidations working, a cache-served
   directory view can lag the coordinator only by a callback's flight
   time.  Every hit must therefore serve at least the authoritative
   version as it stood [inval_grace] before the hit — unless a fault
   window (padded by the same grace) overlaps the lease's lifetime, in
   which case the client is legitimately on its TTL fallback and any
   in-lease view is allowed (the client enforces expiry itself, so a hit
   with age > ttl cannot even reach the judge). *)
let judge_cache ev =
  let required_at cutoff =
    List.fold_left (fun acc (t, v) -> if t <= cutoff then max acc v else acc) 0 ev.mutations
  in
  let disturbed ~granted_at ~hit =
    List.exists
      (fun (from_, till) ->
        from_ -. ev.inval_grace <= hit && till +. ev.inval_grace >= granted_at)
      ev.fault_windows
  in
  List.filter_map
    (fun h ->
      let required = required_at (h.h_time -. ev.inval_grace) in
      if h.h_version >= required then None
      else if disturbed ~granted_at:(h.h_time -. h.h_age) ~hit:h.h_time then None
      else
        Some
          (Stale_beyond_lease
             {
               time = h.h_time;
               set_id = h.h_set;
               served = h.h_version;
               required;
               age = h.h_age;
             }))
    ev.hits

(* Commit safety and view-change liveness.  The ledger is the promise
   set: every entry was acked to a client as committed, so it must
   appear — at its opnum, with its op — in every surviving member's
   final log, and no opnum may ever have been acked with two different
   ops.  Liveness: every probe deadline the harness judged "the group
   was quorum-connected long enough to elect" must have found a stable
   leader. *)
let judge_repl ev =
  let seen = Hashtbl.create 16 in
  let dup_issues, uniq_rev =
    List.fold_left
      (fun (dups, uniq) (opnum, op) ->
        match Hashtbl.find_opt seen opnum with
        | Some prev when prev <> op ->
            (Commit_reordered { opnum; first = prev; second = op; node = -1 } :: dups, uniq)
        | Some _ -> (dups, uniq)
        | None ->
            Hashtbl.add seen opnum op;
            (dups, (opnum, op) :: uniq))
      ([], []) ev.r_ledger
  in
  let uniq = List.rev uniq_rev in
  let log_issues =
    List.concat_map
      (fun (node, log) ->
        List.filter_map
          (fun (opnum, op) ->
            match List.assoc_opt opnum log with
            | Some op' when String.equal op' op -> None
            | Some op' -> Some (Commit_reordered { opnum; first = op; second = op'; node })
            | None -> Some (Commit_lost { opnum; op; node }))
          uniq)
      ev.r_final_logs
  in
  let election_issues =
    List.filter_map
      (fun (deadline, ok) -> if ok then None else Some (Election_overdue { deadline }))
      ev.r_probes
  in
  (* Shed safety: each surviving node's directory must equal the fold of
     its own committed log — a per-node self-consistency check, immune
     to cross-node commit-propagation lag. *)
  let shed_issues =
    List.filter_map
      (fun (node, dir_members, log_members) ->
        let sort = List.sort_uniq String.compare in
        let dir = sort dir_members and log = sort log_members in
        if List.equal String.equal dir log then None
        else
          Some
            (Shed_divergence
               {
                 node;
                 extra = List.filter (fun m -> not (List.mem m log)) dir;
                 missing = List.filter (fun m -> not (List.mem m dir)) log;
               }))
      ev.r_dir_vs_log
  in
  List.rev dup_issues @ log_issues @ election_issues @ shed_issues

let judge input =
  let iteration_issues = List.concat_map judge_iteration input.iterations in
  let cache_issues =
    match input.cache with None -> [] | Some ev -> judge_cache ev
  in
  let repl_issues = match input.repl with None -> [] | Some ev -> judge_repl ev in
  let crash_issues =
    List.map
      (fun (fiber, exn_text) -> Fiber_crash { fiber; exn_text })
      input.engine_crashes
  in
  let exhausted = input.steps >= input.step_cap in
  let liveness_issues =
    if exhausted then [ Steps_exhausted { steps = input.steps } ]
    else if input.parked_fibers <> [] then
      (* The event queue drained with fibers still parked: nothing can
         ever wake them again.  Blame unfinished iterations first (the
         schedule healed every fault, so a suspended iterator is a
         liveness bug); anything else is a leak. *)
      let stuck =
        List.filter_map
          (fun it ->
            match it.outcome with
            | `Unfinished ->
                Some (Stuck_iterator { iteration = it.index; semantics = it.semantics })
            | `Done | `Failed _ | `Limit -> None)
          input.iterations
      in
      if stuck <> [] then stuck
      else
        [
          Leaked_fibers
            { count = List.length input.parked_fibers; fibers = input.parked_fibers }
        ]
    else []
  in
  let rpc_issues =
    if input.unmatched_rpcs > 0 && not exhausted then
      [ Lost_rpc { count = input.unmatched_rpcs } ]
    else []
  in
  sort
    (repl_issues @ cache_issues @ iteration_issues @ crash_issues @ liveness_issues
   @ rpc_issues)

let same_failure a b =
  let cats l = List.sort_uniq compare (List.map category l) in
  List.exists (fun c -> List.mem c (cats b)) (cats a)

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

let esc = Weakset_obs.Event.json_escape

let issue_to_json = function
  | Stale_beyond_lease { time; set_id; served; required; age } ->
      Printf.sprintf
        {|{"issue":"stale-beyond-lease","time":%.17g,"set_id":%d,"served":%d,"required":%d,"age":%.17g}|}
        time set_id served required age
  | Spec_violation { iteration; semantics; where; message } ->
      Printf.sprintf
        {|{"issue":"spec-violation","iteration":%d,"semantics":"%s","where":"%s","message":"%s"}|}
        iteration (esc semantics) (esc where) (esc message)
  | Monitor_mismatch { iteration; semantics; detail } ->
      Printf.sprintf
        {|{"issue":"monitor-mismatch","iteration":%d,"semantics":"%s","detail":"%s"}|}
        iteration (esc semantics) (esc detail)
  | Fiber_crash { fiber; exn_text } ->
      Printf.sprintf {|{"issue":"fiber-crash","fiber":"%s","exn":"%s"}|} (esc fiber)
        (esc exn_text)
  | Stuck_iterator { iteration; semantics } ->
      Printf.sprintf {|{"issue":"stuck-iterator","iteration":%d,"semantics":"%s"}|} iteration
        (esc semantics)
  | Steps_exhausted { steps } ->
      Printf.sprintf {|{"issue":"steps-exhausted","steps":%d}|} steps
  | Leaked_fibers { count; fibers } ->
      Printf.sprintf {|{"issue":"leaked-fibers","count":%d,"fibers":[%s]}|} count
        (String.concat "," (List.map (fun f -> Printf.sprintf {|"%s"|} (esc f)) fibers))
  | Lost_rpc { count } -> Printf.sprintf {|{"issue":"lost-rpc","count":%d}|} count
  | Commit_lost { opnum; op; node } ->
      Printf.sprintf {|{"issue":"commit-lost","opnum":%d,"op":"%s","node":%d}|} opnum
        (esc op) node
  | Commit_reordered { opnum; first; second; node } ->
      Printf.sprintf
        {|{"issue":"commit-reordered","opnum":%d,"first":"%s","second":"%s","node":%d}|}
        opnum (esc first) (esc second) node
  | Election_overdue { deadline } ->
      Printf.sprintf {|{"issue":"election-overdue","deadline":%.17g}|} deadline
  | Shed_divergence { node; extra; missing } ->
      let strs l =
        String.concat "," (List.map (fun s -> Printf.sprintf {|"%s"|} (esc s)) l)
      in
      Printf.sprintf {|{"issue":"shed-divergence","node":%d,"extra":[%s],"missing":[%s]}|}
        node (strs extra) (strs missing)

let ( let* ) = Result.bind

let str name j =
  match Json.member name j with
  | Some v -> (
      match Json.to_string v with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "issue field %S: expected string" name))
  | None -> Error (Printf.sprintf "issue: missing field %S" name)

let int_ name j =
  match Json.member name j with
  | Some v -> (
      match Json.to_int v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "issue field %S: expected int" name))
  | None -> Error (Printf.sprintf "issue: missing field %S" name)

let flt name j =
  match Json.member name j with
  | Some v -> (
      match Json.to_float v with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "issue field %S: expected number" name))
  | None -> Error (Printf.sprintf "issue: missing field %S" name)

let issue_of_json j =
  let* kind = str "issue" j in
  match kind with
  | "stale-beyond-lease" ->
      let* time = flt "time" j in
      let* set_id = int_ "set_id" j in
      let* served = int_ "served" j in
      let* required = int_ "required" j in
      let* age = flt "age" j in
      Ok (Stale_beyond_lease { time; set_id; served; required; age })
  | "spec-violation" ->
      let* iteration = int_ "iteration" j in
      let* semantics = str "semantics" j in
      let* where = str "where" j in
      let* message = str "message" j in
      Ok (Spec_violation { iteration; semantics; where; message })
  | "monitor-mismatch" ->
      let* iteration = int_ "iteration" j in
      let* semantics = str "semantics" j in
      let* detail = str "detail" j in
      Ok (Monitor_mismatch { iteration; semantics; detail })
  | "fiber-crash" ->
      let* fiber = str "fiber" j in
      let* exn_text = str "exn" j in
      Ok (Fiber_crash { fiber; exn_text })
  | "stuck-iterator" ->
      let* iteration = int_ "iteration" j in
      let* semantics = str "semantics" j in
      Ok (Stuck_iterator { iteration; semantics })
  | "steps-exhausted" ->
      let* steps = int_ "steps" j in
      Ok (Steps_exhausted { steps })
  | "leaked-fibers" ->
      let* count = int_ "count" j in
      let fibers =
        match Option.bind (Json.member "fibers" j) Json.to_list with
        | Some l -> List.filter_map Json.to_string l
        | None -> []
      in
      Ok (Leaked_fibers { count; fibers })
  | "lost-rpc" ->
      let* count = int_ "count" j in
      Ok (Lost_rpc { count })
  | "commit-lost" ->
      let* opnum = int_ "opnum" j in
      let* op = str "op" j in
      let* node = int_ "node" j in
      Ok (Commit_lost { opnum; op; node })
  | "commit-reordered" ->
      let* opnum = int_ "opnum" j in
      let* first = str "first" j in
      let* second = str "second" j in
      let* node = int_ "node" j in
      Ok (Commit_reordered { opnum; first; second; node })
  | "election-overdue" ->
      let* deadline = flt "deadline" j in
      Ok (Election_overdue { deadline })
  | "shed-divergence" ->
      let* node = int_ "node" j in
      let str_list name =
        match Option.bind (Json.member name j) Json.to_list with
        | Some l -> List.filter_map Json.to_string l
        | None -> []
      in
      Ok (Shed_divergence { node; extra = str_list "extra"; missing = str_list "missing" })
  | k -> Error (Printf.sprintf "unknown issue kind %S" k)

(* ------------------------------------------------------------------ *)
(* Judged runs                                                        *)
(* ------------------------------------------------------------------ *)

module Engine = Weakset_sim.Engine
module Event = Weakset_obs.Event
module Digest = Weakset_obs.Digest

type watch = {
  w_eng : Engine.t;
  w_digest : Digest.t;
  mutable unmatched : int;  (* Rpc_call events minus Rpc_done events *)
  (* Live fibers by id, so a leak verdict can say who leaked.  A fiber is
     alive from Fiber_spawn until a Run_end whose park is
     Park_done/Park_crash. *)
  fibers : (int, string) Hashtbl.t;
}

let watch eng =
  let w = { w_eng = eng; w_digest = Digest.create (); unmatched = 0; fibers = Hashtbl.create 32 } in
  let bus = Engine.bus eng in
  Weakset_obs.Bus.attach bus ~name:"run-digest" (Digest.sink w.w_digest);
  Weakset_obs.Bus.attach bus ~name:"run-accounting" (fun ev ->
      match ev.Event.kind with
      | Event.Rpc_call _ -> w.unmatched <- w.unmatched + 1
      | Event.Rpc_done _ -> w.unmatched <- w.unmatched - 1
      | Event.Fiber_spawn { fid; fiber } -> Hashtbl.replace w.fibers fid fiber
      | Event.Run_end { fid; park = Event.Park_done | Event.Park_crash; _ } ->
          Hashtbl.remove w.fibers fid
      | _ -> ());
  w

type evidence = {
  ev_iterations : iteration_input list;
  ev_cache : cache_evidence option;
  ev_repl : repl_evidence option;
}

type run = { digest : string; events : int; steps : int; issues : issue list; evidence : evidence }

let run w ~step_cap evidence =
  let steps = Engine.run ~max_steps:step_cap w.w_eng in
  let ev = evidence () in
  let issues =
    judge
      {
        iterations = ev.ev_iterations;
        engine_crashes =
          List.map
            (fun c -> (c.Engine.crash_fiber, Printexc.to_string c.Engine.crash_exn))
            (Engine.crashes w.w_eng);
        parked_fibers =
          (if Engine.live_fibers w.w_eng = 0 then []
           else Hashtbl.fold (fun _ name acc -> name :: acc) w.fibers [] |> List.sort compare);
        steps;
        step_cap;
        unmatched_rpcs = w.unmatched;
        cache = ev.ev_cache;
        repl = ev.ev_repl;
      }
  in
  let digest = Digest.value w.w_digest in
  { digest; events = Digest.count w.w_digest; steps; issues; evidence = ev }
