module Nodeid = Weakset_net.Nodeid

type t = { num : int; home : Nodeid.t }

let make ~num ~home = { num; home }
let num t = t.num
let home t = t.home
let equal a b = a.num = b.num && Nodeid.equal a.home b.home

let compare a b =
  match Int.compare a.num b.num with 0 -> Nodeid.compare a.home b.home | c -> c

let hash t = (t.num * 31) + Nodeid.to_int t.home
let to_string t = "o" ^ string_of_int t.num ^ "@" ^ Nodeid.to_string t.home
let pp fmt t = Format.pp_print_string fmt (to_string t)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
