(* The parametric visibility-based consistency checker (after
   "Verifying Visibility-Based Weak Consistency", arXiv:1911.01508).

   A recorded computation is read as an operation graph: the captured
   states are the operations, ARBITRATION is the total order of capture
   indices (the simulator is single-threaded, so the order events hit
   the instrument is a linearisation of real time), and VISIBILITY is
   the per-config relation selecting which states an invocation may
   observe.  Each of the paper's figure specifications — and the
   linearizable iterator of arXiv:1705.08885 — is one {!config}: a
   choice of membership anchor, failure mode, constraint scope and
   visibility window.  One generic {!check} judges them all. *)

type anchor = First_state | Pre_state | Snapshot

type failure_mode = No_failures | Pessimistic | Optimistic

type scope = All_pairs | During_run

type config = {
  name : string;
  paper_figure : string;
  description : string;
  constraint_ : Constraint_clause.t;
  scope : scope;
  anchor : anchor;
  failure : failure_mode;
  window : bool;
}

type violation = { where : string; state : Sstate.t option; message : string }

type verdict = Conforms | Violates of violation list

let verdict_ok = function Conforms -> true | Violates _ -> false

let pp_violation fmt v =
  match v.state with
  | Some st -> Format.fprintf fmt "[%s] %s@ at %a" v.where v.message Sstate.pp st
  | None -> Format.fprintf fmt "[%s] %s" v.where v.message

let pp_verdict fmt = function
  | Conforms -> Format.pp_print_string fmt "CONFORMS"
  | Violates vs ->
      Format.fprintf fmt "VIOLATES (%d):@." (List.length vs);
      List.iter (fun v -> Format.fprintf fmt "  %a@." pp_violation v) vs

(* ------------------------------------------------------------------ *)
(* Per-invocation checking                                            *)
(* ------------------------------------------------------------------ *)

type inv_ctx = {
  config : config;
  flip_axiom : bool;  (* the planted membership-axiom inversion *)
  first : Sstate.t;
  pre : Sstate.t;
  post : Sstate.t;
  term : Sstate.termination;
  comp : Computation.t;
}

(* The arbitration anchor: the single state whose [s] the invocation's
   obligations (unyielded sets, boundedness) are evaluated against. *)
let base_of ctx =
  match ctx.config.anchor with
  | First_state -> ctx.first.Sstate.s_value
  | Pre_state | Snapshot -> ctx.pre.Sstate.s_value

(* reachable(base) evaluated in the pre-state. *)
let reach_of ctx = Sstate.reachable_of ctx.pre (base_of ctx)

let unyielded_base ctx = Elem.Set.diff (base_of ctx) ctx.pre.Sstate.yielded
let unyielded_reach ctx = Elem.Set.diff (reach_of ctx) ctx.pre.Sstate.yielded

(* The visibility relation, as a membership pool: the union of [s] over
   every state visible to this invocation.  A windowed config sees every
   state since the first-state; the others see exactly their anchor. *)
let legal_pool ctx =
  if ctx.config.window then
    Computation.s_union_between ctx.comp ~from_:ctx.first.Sstate.index
      ~to_:ctx.pre.Sstate.index
  else base_of ctx

(* An obligation's failure path: the names of the clauses that failed,
   outermost first, or [] when it holds. *)
let clause name holds = if holds then [] else [ name ]
let conj name paths = match List.concat paths with [] -> [] | l -> name :: l

let suspends_failures ctx e =
  conj "suspends obligations"
    [
      conj "yielded_post - yielded_pre = {e}"
        [
          clause "e not already yielded" (not (Elem.Set.mem e ctx.pre.Sstate.yielded));
          clause "yielded grows by exactly e"
            (Elem.Set.equal ctx.post.Sstate.yielded (Elem.Set.add e ctx.pre.Sstate.yielded));
        ];
      clause "e ∈ s (at the spec's vintage)"
        (let ok = Elem.Set.mem e (legal_pool ctx) in
         if ctx.flip_axiom then not ok else ok);
      clause "e ∈ reachable(s)_pre" (Elem.Set.mem e ctx.pre.Sstate.accessible);
      (* Figures 1/3/4 require yielded_post ⊆ s_first and Figure 5 requires
         yielded_post ⊆ s_pre; Figure 6 deliberately has no such clause
         (yielded may retain elements that were removed after being
         yielded). *)
      clause "yielded_post ⊆ s (at the spec's vintage)"
        (ctx.config.failure = Optimistic
        || Elem.Set.subset ctx.post.Sstate.yielded (base_of ctx));
    ]

(* Which terminations does the config allow given the pre-state? *)
type expectation = Expect_suspends | Expect_returns | Expect_fails | Expect_either_suspend_return

let expectation ctx =
  match ctx.config.failure with
  | No_failures ->
      if not (Elem.Set.is_empty (unyielded_base ctx)) then Expect_suspends else Expect_returns
  | Pessimistic ->
      if not (Elem.Set.is_empty (unyielded_reach ctx)) then Expect_suspends
      else if not (Elem.Set.is_empty (unyielded_base ctx)) then Expect_fails
      else Expect_returns
  | Optimistic ->
      if ctx.config.window then
        (* Both a window-yield and (once all current members are yielded) a
           return can be legal; see the disjunction below. *)
        if Elem.Set.is_empty (unyielded_base ctx) then Expect_either_suspend_return
        else Expect_suspends
      else if not (Elem.Set.is_empty (unyielded_base ctx)) then Expect_suspends
      else Expect_returns

let term_name = function
  | Sstate.Suspends _ -> "suspends"
  | Sstate.Returns -> "returns"
  | Sstate.Fails -> "fails"

let check_invocation ctx =
  let expect = expectation ctx in
  match (expect, ctx.term) with
  | (Expect_suspends | Expect_either_suspend_return), Sstate.Suspends e ->
      suspends_failures ctx e
  | Expect_returns, Sstate.Returns -> []
  | Expect_either_suspend_return, Sstate.Returns -> []
  | Expect_fails, Sstate.Fails ->
      (* The paper's fails branch ("a failure occurs if everything
         reachable has been yielded and the reachable set of elements is a
         subset of the original set").  Note ⊆, not =: elements already
         yielded may themselves have become unreachable since. *)
      conj "fails obligations"
        [
          clause "reachable(base)_pre ⊆ yielded_pre"
            (Elem.Set.subset (reach_of ctx) ctx.pre.Sstate.yielded);
          clause "yielded_pre ⊆ base" (Elem.Set.subset ctx.pre.Sstate.yielded (base_of ctx));
        ]
  | expected, got ->
      let expected_str =
        match expected with
        | Expect_suspends -> "suspends"
        | Expect_returns -> "returns"
        | Expect_fails -> "fails"
        | Expect_either_suspend_return -> "suspends-or-returns"
      in
      [ Printf.sprintf "expected %s but iterator %s" expected_str (term_name got) ]

(* ------------------------------------------------------------------ *)
(* Structure (config-independent)                                     *)
(* ------------------------------------------------------------------ *)

let structural_violations comp =
  let vs = ref [] in
  let add where state message = vs := { where; state; message } :: !vs in
  (match Computation.first_state comp with
  | None -> add "structure" None "no first-state recorded"
  | Some first ->
      if not (Elem.Set.is_empty first.Sstate.yielded) then
        add "remembers yielded initially {}" (Some first) "yielded non-empty in first-state");
  (* yielded evolves only at suspends, by exactly the yielded element. *)
  let rec walk = function
    | a :: (b :: _ as rest) ->
        (match b.Sstate.kind with
        | Sstate.Invocation_post (_, Sstate.Suspends e) ->
            if not (Elem.Set.equal b.Sstate.yielded (Elem.Set.add e a.Sstate.yielded)) then
              add "history object discipline" (Some b)
                (Format.asprintf "yielded changed by something other than +%a" Elem.pp e)
        | Sstate.Invocation_post (_, (Sstate.Returns | Sstate.Fails))
        | Sstate.First | Sstate.Invocation_pre _ | Sstate.Mutation _ ->
            if not (Elem.Set.equal b.Sstate.yielded a.Sstate.yielded) then
              add "history object discipline" (Some b) "yielded changed outside a suspends");
        walk rest
    | [ _ ] | [] -> ()
  in
  walk (Computation.states comp);
  (* No invocation activity after a terminating post-state. *)
  let terminal_seen = ref false in
  List.iter
    (fun st ->
      (match st.Sstate.kind with
      | Sstate.Invocation_pre _ | Sstate.Invocation_post _ ->
          if !terminal_seen then
            add "termination is terminal" (Some st) "invocation after returns/fails"
      | Sstate.First | Sstate.Mutation _ -> ());
      match st.Sstate.kind with
      | Sstate.Invocation_post (_, (Sstate.Returns | Sstate.Fails)) -> terminal_seen := true
      | _ -> ())
    (Computation.states comp);
  List.rev !vs

let constraint_violation config comp =
  let result =
    match config.scope with
    | All_pairs -> Constraint_clause.check config.constraint_ comp
    | During_run -> (
        match (Computation.first_state comp, Computation.last_state comp) with
        | Some first, Some last ->
            Constraint_clause.check_between config.constraint_ comp ~from_:first.Sstate.index
              ~to_:last.Sstate.index
        | _ -> None)
  in
  match result with
  | None -> None
  | Some { Constraint_clause.clause; si = _; sj } ->
      Some { where = clause; state = Some sj; message = "set value violated the type constraint" }

(* ------------------------------------------------------------------ *)
(* Weak configs: first-state / pre-state anchors                      *)
(* ------------------------------------------------------------------ *)

let check_weak ~flip_axiom config comp =
  let vs = ref [] in
  let add where state message = vs := { where; state; message } :: !vs in
  (* 1. Structure. *)
  List.iter (fun v -> vs := v :: !vs) (List.rev (structural_violations comp));
  (* 2. Constraint clause (scoped per §3.1/§3.3 for the relaxed variants). *)
  (match constraint_violation config comp with
  | None -> ()
  | Some v -> vs := v :: !vs);
  (* 3. Per-invocation ensures clauses. *)
  (match Computation.first_state comp with
  | None -> ()
  | Some first ->
      List.iter
        (fun (pre, post) ->
          match post.Sstate.kind with
          | Sstate.Invocation_post (i, term) -> (
              let ctx = { config; flip_axiom; first; pre; post; term; comp } in
              match check_invocation ctx with
              | [] -> ()
              | path ->
                  add
                    (Printf.sprintf "ensures (invocation %d)" i)
                    (Some post) (String.concat " > " path))
          | Sstate.First | Sstate.Invocation_pre _ | Sstate.Mutation _ -> ())
        (Computation.invocations comp));
  (* 4. Optimistic configs never signal failure. *)
  (if config.failure = Optimistic then
     List.iter
       (fun st ->
         match st.Sstate.kind with
         | Sstate.Invocation_post (_, Sstate.Fails) ->
             add "signals" (Some st) "optimistic iterator signalled failure"
         | _ -> ())
       (Computation.states comp));
  (* 5. Global membership guarantee for optimistic configs: every yielded
        element was in s at some state between first and last. *)
  (if config.failure = Optimistic then
     match (Computation.first_state comp, Computation.last_state comp) with
     | Some first, Some last ->
         let window =
           Computation.s_union_between comp ~from_:first.Sstate.index ~to_:last.Sstate.index
         in
         let stray = Elem.Set.diff (Computation.final_yielded comp) window in
         if not (Elem.Set.is_empty stray) then
           add "∀e ∈ yielded. ∃σ ∈ [first,last]. e ∈ s_σ" (Some last)
             (Format.asprintf "yielded elements never members during the run: %a" Elem.Set.pp
                stray)
     | _ -> ());
  match List.rev !vs with [] -> Conforms | l -> Violates l

(* ------------------------------------------------------------------ *)
(* Snapshot configs: linearizable iterators (arXiv:1705.08885)        *)
(* ------------------------------------------------------------------ *)

(* A snapshot-anchored run linearizes iff some single state σ between
   the first-state and last-state explains every decision: all yields
   are members of s_σ and, if the run returned, the yielded set at the
   return is exactly s_σ.  Visibility is the snapshot {σ} and
   arbitration is total, so the witness search is a scan over the
   states' s-values — counterexample extraction reports the nearest
   miss when no witness exists. *)
let check_snapshot config comp =
  let vs = ref [] in
  let add where state message = vs := { where; state; message } :: !vs in
  List.iter (fun v -> vs := v :: !vs) (List.rev (structural_violations comp));
  (match constraint_violation config comp with
  | None -> ()
  | Some v -> vs := v :: !vs);
  (* A linearizable iterator never signals failure: it pins a snapshot
     and blocks until every pinned member is fetchable again. *)
  List.iter
    (fun st ->
      match st.Sstate.kind with
      | Sstate.Invocation_post (_, Sstate.Fails) ->
          add "signals" (Some st) "linearizable iterator signalled failure"
      | _ -> ())
    (Computation.states comp);
  (* Witness-independent yield discipline: no element twice. *)
  List.iter
    (fun (pre, post) ->
      match post.Sstate.kind with
      | Sstate.Invocation_post (i, Sstate.Suspends e) ->
          if Elem.Set.mem e pre.Sstate.yielded then
            add
              (Printf.sprintf "ensures (invocation %d)" i)
              (Some post) "suspends obligations > e not already yielded"
      | _ -> ())
    (Computation.invocations comp);
  (* Witness search. *)
  (match (Computation.first_state comp, Computation.last_state comp) with
  | Some first, Some last ->
      let in_window st =
        st.Sstate.index >= first.Sstate.index && st.Sstate.index <= last.Sstate.index
      in
      let candidates = List.filter in_window (Computation.states comp) in
      let returned =
        List.find_opt
          (fun st ->
            match st.Sstate.kind with
            | Sstate.Invocation_post (_, Sstate.Returns) -> true
            | _ -> false)
          (Computation.states comp)
      in
      let yielded = Computation.final_yielded comp in
      let witnesses ~exact st =
        if exact then Elem.Set.equal yielded st.Sstate.s_value
        else Elem.Set.subset yielded st.Sstate.s_value
      in
      let exact = returned <> None in
      if not (List.exists (witnesses ~exact) candidates) then begin
        (* Counterexample: the candidate with the smallest disagreement. *)
        let miss st =
          let stray = Elem.Set.cardinal (Elem.Set.diff yielded st.Sstate.s_value) in
          if exact then stray + Elem.Set.cardinal (Elem.Set.diff st.Sstate.s_value yielded)
          else stray
        in
        let best =
          List.fold_left
            (fun acc st ->
              match acc with
              | Some b when miss b <= miss st -> acc
              | _ -> Some st)
            None candidates
        in
        match best with
        | None -> ()
        | Some b ->
            let detail =
              if exact then
                Format.asprintf
                  "returned with yielded = %a but no state holds exactly that set (closest \
                   s_σ = %a)"
                  Elem.Set.pp yielded Elem.Set.pp b.Sstate.s_value
              else
                Format.asprintf "yielded ⊄ s_σ for every σ; stray at the closest σ: %a"
                  Elem.Set.pp
                  (Elem.Set.diff yielded b.Sstate.s_value)
            in
            add "∃σ ∈ [first,last]. s_σ linearizes the run" (Some b) detail
      end
  | _ -> ());
  match List.rev !vs with [] -> Conforms | l -> Violates l

let check ?(planted = Weakset_obs.Planted.none) config comp =
  match config.anchor with
  | First_state | Pre_state -> check_weak ~flip_axiom:planted.axiom_flip config comp
  | Snapshot -> check_snapshot config comp
