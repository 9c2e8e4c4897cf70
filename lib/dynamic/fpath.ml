type t = string list (* segments, root-first *)

let of_string s =
  String.split_on_char '/' s |> List.filter (fun seg -> not (String.equal seg ""))

let to_string t = "/" ^ String.concat "/" t
let segments t = t
let basename t = match List.rev t with [] -> None | last :: _ -> Some last

let parent t =
  match List.rev t with [] -> None | _ :: rest -> Some (List.rev rest)

let child t name = t @ [ name ]
let root = []
let is_root t = t = []
let equal = List.equal String.equal
let compare = List.compare String.compare
