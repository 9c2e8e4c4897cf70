type t = { cname : string; rel : Elem.Set.t -> Elem.Set.t -> bool }

let name t = t.cname
let make ~name rel = { cname = name; rel }
let immutable = make ~name:"constraint: s_i = s_j" Elem.Set.equal
let grow_only = make ~name:"constraint: s_i ⊆ s_j" Elem.Set.subset
let unconstrained = make ~name:"constraint: true" (fun _ _ -> true)
let holds_between t a b = t.rel a b

type violation = { clause : string; si : Sstate.t; sj : Sstate.t }

(* The provided relations are reflexive and transitive, so a violation (if
   any) already appears between some consecutive pair. *)
let scan_states t states =
  let rec scan = function
    | a :: (b :: _ as rest) ->
        if t.rel a.Sstate.s_value b.Sstate.s_value then scan rest
        else Some { clause = t.cname; si = a; sj = b }
    | [ _ ] | [] -> None
  in
  scan states

(* The constraint clause governs the evolution of the set value itself, so
   it is evaluated over the states where that value is authoritative:
   first/mutation/completion observations.  Invocation pre-states record
   the membership a reply delivered (the implementation's linearisation
   point) and may lag the directory by the mutations that landed while the
   reply was in flight; including them would flag that recording skew as a
   type violation. *)
let evolution_state st =
  match st.Sstate.kind with Sstate.Invocation_pre _ -> false | _ -> true

let check t comp = scan_states t (List.filter evolution_state (Computation.states comp))

let check_between t comp ~from_ ~to_ =
  scan_states t
    (List.filter evolution_state
       (List.filter
          (fun st -> st.Sstate.index >= from_ && st.Sstate.index <= to_)
          (Computation.states comp)))
