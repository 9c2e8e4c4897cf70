(* Chained MD5: state' = md5(state ^ canonical(event)).  Order-sensitive
   and O(1) space; Stdlib.Digest referenced explicitly because this
   module shadows the name.  The hash input is assembled in one reused
   buffer, so feeding an event renders no intermediate strings. *)

type t = { buf : Buffer.t; mutable state : string; mutable count : int }

let seed = Stdlib.Digest.string "obs-trace-v1"
let create () = { buf = Buffer.create 256; state = seed; count = 0 }

let feed t e =
  Buffer.clear t.buf;
  Buffer.add_string t.buf t.state;
  Event.write_canonical t.buf e;
  t.state <- Stdlib.Digest.string (Buffer.contents t.buf);
  t.count <- t.count + 1

let count t = t.count
let value t = Stdlib.Digest.to_hex t.state
let sink t = feed t

let of_events events =
  let d = create () in
  List.iter (feed d) events;
  value d
