type t = { id : int; lbl : string }

let make ?label id =
  { id; lbl = (match label with Some l -> l | None -> "e" ^ string_of_int id) }

let id t = t.id
let label t = t.lbl
let equal a b = Int.equal a.id b.id
let compare a b = Int.compare a.id b.id
let pp fmt t = Format.pp_print_string fmt t.lbl

module Set = struct
  include Set.Make (struct
    type nonrec t = t

    let compare = compare
  end)

  let pp fmt s =
    Format.fprintf fmt "{%a}"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f ", ") pp)
      (elements s)
end
