let summary spec comp verdict =
  let n = List.length (Computation.invocations comp) in
  match verdict with
  | Figures.Conforms -> Printf.sprintf "%s: CONFORMS (%d invocations)" spec.Visibility.name n
  | Figures.Violates vs ->
      Printf.sprintf "%s: VIOLATES %d clause(s) over %d invocations" spec.Visibility.name
        (List.length vs) n

(* One line per state: time, what happened, and the sizes of s,
   reachable(s) and yielded - a quick visual of a run's shape. *)
let pp_timeline fmt comp =
  let open Sstate in
  Format.fprintf fmt "  %10s  %-28s %4s %5s %7s@." "time" "event" "|s|" "|acc|" "|yield|";
  List.iter
    (fun st ->
      let event = Format.asprintf "%a" pp_kind st.kind in
      Format.fprintf fmt "  %10.3f  %-28s %4d %5d %7d@." st.time event
        (Elem.Set.cardinal st.s_value)
        (Elem.Set.cardinal (Elem.Set.inter st.s_value st.accessible))
        (Elem.Set.cardinal st.yielded))
    (Computation.states comp)

let conformance_matrix comp =
  List.map (fun spec -> (spec, Figures.check spec comp)) Figures.all_specs

let pp_matrix fmt matrix =
  List.iter
    (fun (spec, verdict) ->
      Format.fprintf fmt "  %-20s (%-18s): %s@." spec.Visibility.name spec.Visibility.paper_figure
        (match verdict with
        | Figures.Conforms -> "conforms"
        | Figures.Violates vs -> Printf.sprintf "violates (%d)" (List.length vs)))
    matrix
