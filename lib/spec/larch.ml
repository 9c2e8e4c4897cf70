let constraint_line (spec : Figures.spec) =
  let body =
    match Constraint_clause.name spec.Visibility.constraint_ with
    | s -> (
        (* names look like "constraint: s_i = s_j"; keep the relation part *)
        match String.index_opt s ':' with
        | Some i -> String.trim (String.sub s (i + 1) (String.length s - i - 1))
        | None -> s)
  in
  "constraint " ^ body
  ^
  match spec.Visibility.scope with
  | Visibility.All_pairs -> ""
  | Visibility.During_run -> "    % only for states within one run (§3.1/§3.3)"

let base_sym (spec : Figures.spec) =
  match spec.Visibility.anchor with
  | Visibility.First_state -> "s_first"
  | Visibility.Pre_state -> "s_pre"
  (* The lin design point: one snapshot σ ∈ [first, last] explains the
     whole run (arXiv:1705.08885). *)
  | Visibility.Snapshot -> "s_σ"

let signature (spec : Figures.spec) =
  match spec.Visibility.failure with
  | Visibility.Pessimistic -> "elements = iter (s: set) yields (e: elem) signals (failure)"
  | Visibility.No_failures | Visibility.Optimistic -> "elements = iter (s: set) yields (e: elem)"

let suspends_conjuncts (spec : Figures.spec) =
  let base = base_sym spec in
  let yield_bound =
    match spec.Visibility.failure with
    | Visibility.Optimistic -> []
    | Visibility.No_failures | Visibility.Pessimistic ->
        [ Printf.sprintf "yielded_post ⊆ %s" base ]
  in
  let membership =
    if spec.Visibility.window then
      [ "e ∈ s_σ for some σ ∈ [first, pre]"; "e ∈ accessible_pre" ]
    else
      match spec.Visibility.failure with
      | Visibility.No_failures -> [ Printf.sprintf "e ∈ %s - yielded_pre" base ]
      | Visibility.Pessimistic | Visibility.Optimistic ->
          [ Printf.sprintf "e ∈ reachable(%s)_pre" base ]
  in
  ("yielded_post - yielded_pre = {e}" :: yield_bound) @ membership @ [ "suspends" ]

let ensures (spec : Figures.spec) =
  let base = base_sym spec in
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf ("    " ^ s ^ "\n")) fmt in
  line "ensures";
  (match spec.Visibility.failure with
  | Visibility.No_failures ->
      line "  if yielded_pre ⊂ %s" base;
      line "  then   %s" (String.concat "\n         ∧ " (suspends_conjuncts spec) |> String.trim)
  | Visibility.Pessimistic ->
      line "  if yielded_pre ⊂ reachable(%s)_pre" base;
      line "  then   %s" (String.concat "\n         ∧ " (suspends_conjuncts spec) |> String.trim)
  | Visibility.Optimistic ->
      line "  if ∃ e ∈ %s . e ∉ yielded_pre" base;
      line "  then   %s" (String.concat "\n         ∧ " (suspends_conjuncts spec) |> String.trim));
  (match spec.Visibility.failure with
  | Visibility.No_failures -> line "  else returns    %% yielded_pre = %s" base
  | Visibility.Pessimistic ->
      line "  else if reachable(%s)_pre ⊆ yielded_pre ∧ yielded_pre ⊂ %s" base base;
      line "  then fails";
      line "  else returns    %% yielded_pre = %s" base
  | Visibility.Optimistic -> line "  else returns");
  Buffer.contents buf

let render spec =
  String.concat "\n"
    [
      constraint_line spec;
      signature spec;
      "    remembers yielded : set initially {}";
      ensures spec;
    ]

let procedures =
  String.concat "\n"
    [
      "create = proc () returns (t: set)";
      "    ensures t_post = {} ∧ new(t)";
      "";
      "add = proc (s: set, e: elem) returns (t: set)";
      "    ensures t_post = s_pre ∪ {e} ∧ new(t)";
      "";
      "remove = proc (e: elem, s: set) returns (t: set)";
      "    ensures t_post = s_pre - {e} ∧ new(t)";
      "";
      "size = proc (s: set) returns (i: int)";
      "    ensures i_post = |s_pre|";
      "";
    ]

let render_type spec =
  String.concat "\n"
    [ "set = type create, add, remove, size, elements"; ""; procedures; render spec ]

let render_all () =
  String.concat "\n\n"
    (List.map
       (fun spec ->
         Printf.sprintf "%s (%s): %s\n%s"
           (String.make 70 '-')
           spec.Visibility.paper_figure spec.Visibility.description (render spec))
       Figures.all_specs)
