module Oid = Weakset_store.Oid
module Svalue = Weakset_store.Svalue
module Client = Weakset_store.Client

type outcome = Yield of Oid.t * Svalue.t | Done | Failed of Client.error

type t = {
  impl_next : unit -> outcome;
  impl_close : unit -> unit;
  mutable terminal : outcome option;
  mutable closed : bool;
}

let make ~next ~close = { impl_next = next; impl_close = close; terminal = None; closed = false }

let do_close t =
  if not t.closed then begin
    t.closed <- true;
    t.impl_close ()
  end

let next t =
  match t.terminal with
  | Some o -> o
  | None -> (
      match t.impl_next () with
      | Yield _ as o -> o
      | (Done | Failed _) as o ->
          t.terminal <- Some o;
          do_close t;
          o)

let close t = do_close t

let closed t = t.closed

let drain ?(limit = max_int) t =
  let rec loop acc n =
    if n >= limit then (List.rev acc, `Limit)
    else
      match next t with
      | Yield (o, v) -> loop ((o, v) :: acc) (n + 1)
      | Done -> (List.rev acc, `Done)
      | Failed e -> (List.rev acc, `Failed e)
  in
  loop [] 0
