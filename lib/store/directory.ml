type op = Add of Oid.t | Remove of Oid.t

let pp_op fmt = function
  | Add o -> Format.fprintf fmt "add %a" Oid.pp o
  | Remove o -> Format.fprintf fmt "remove %a" Oid.pp o

type listing = { mutable set : Oid.Set.t; mutable list : Oid.t list }

let listing () = { set = Oid.Set.empty; list = [] }

let list_of l set =
  if l.set == set then l.list
  else begin
    let list = Oid.Set.elements set in
    l.set <- set;
    l.list <- list;
    list
  end

type t = {
  mutable version : Version.t;
  mutable members : Oid.Set.t;
  mutable log : (Version.t * op) list; (* newest first *)
  listed : listing; (* of [members], refreshed on the first read after a change *)
}

let create () = { version = Version.zero; members = Oid.Set.empty; log = []; listed = listing () }

let version t = t.version
let members t = t.members
let mem t o = Oid.Set.mem o t.members
let size t = Oid.Set.cardinal t.members

let apply t op =
  let changed =
    match op with
    | Add o -> not (Oid.Set.mem o t.members)
    | Remove o -> Oid.Set.mem o t.members
  in
  if changed then begin
    t.version <- Version.succ t.version;
    (match op with
    | Add o -> t.members <- Oid.Set.add o t.members
    | Remove o -> t.members <- Oid.Set.remove o t.members);
    t.log <- (t.version, op) :: t.log
  end;
  t.version

let ops_since t v =
  let newer = List.filter (fun (ver, _) -> Version.( < ) v ver) t.log in
  List.rev newer

let members_at t v =
  (* Undo the log entries newer than [v]. *)
  List.fold_left
    (fun acc (ver, op) ->
      if Version.( <= ) ver v then acc
      else
        match op with
        | Add o -> Oid.Set.remove o acc
        | Remove o -> Oid.Set.add o acc)
    t.members t.log

let elements t = list_of t.listed t.members

let elements_at t v =
  if Version.( <= ) t.version v then elements t else Oid.Set.elements (members_at t v)
