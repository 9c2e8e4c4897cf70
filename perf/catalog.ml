(* The metric catalogue, read from BENCHMARK.json: every metric's unit,
   direction and, for end-to-end metrics, the bound by which it may
   worsen before a change counts as a regression.  The benchmark emits
   exactly these names; the test in test/ holds it to that. *)

module Json = Weakset_obs.Json

type metric = {
  name : string;
  unit_ : string;
  higher_is_better : bool;
  bound : float option;  (** [None] for per-layer metrics *)
}

type t = { workloads : string list; end_to_end : metric list; per_layer : metric list }

let ( let* ) = Result.bind

let field k conv j =
  match Option.bind (Json.member k j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "BENCHMARK.json: missing or ill-typed %S" k)

let metric ~e2e j =
  let* name = field "name" Json.to_string j in
  let* unit_ = field "unit" Json.to_string j in
  let* better = field "better" Json.to_string j in
  let* higher_is_better =
    match better with
    | "higher" -> Ok true
    | "lower" -> Ok false
    | b ->
        Error (Printf.sprintf "BENCHMARK.json: %s: better must be higher or lower, not %S" name b)
  in
  let* bound = if e2e then Result.map Option.some (field "bound" Json.to_float j) else Ok None in
  Ok { name; unit_; higher_is_better; bound }

let all_ok f l =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* v = f x in
      Ok (v :: acc))
    l (Ok [])

let of_string s =
  match Json.of_string s with
  | exception Json.Parse_error e -> Error ("BENCHMARK.json: " ^ e)
  | j ->
      let* workloads = field "workloads" Json.to_list j in
      let* workloads = all_ok (field "name" Json.to_string) workloads in
      let* e2e = field "end_to_end" Json.to_list j in
      let* end_to_end = all_ok (metric ~e2e:true) e2e in
      let* layer = field "per_layer" Json.to_list j in
      let* per_layer = all_ok (metric ~e2e:false) layer in
      Ok { workloads; end_to_end; per_layer }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> of_string s

let find t name = List.find_opt (fun m -> m.name = name) (t.end_to_end @ t.per_layer)
