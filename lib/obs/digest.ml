(* Block-chained MD5 over the events' binary encodings.  [buf] holds the
   16-byte chain state followed by the pending encodings; once a whole
   event leaves at least [chunk] bytes pending, state' = md5(state ^
   pending) and [buf] restarts from the new state.  [value] hashes
   state ^ pending without consuming it.  Order-sensitive and O(1)
   space; Stdlib.Digest referenced explicitly because this module
   shadows the name. *)

type t = { buf : Buffer.t; mutable scratch : Bytes.t; mutable count : int }

let state_len = 16
let chunk = 4096
let seed = Stdlib.Digest.string "obs-trace-v2"

let create () =
  let buf = Buffer.create (state_len + chunk + 256) in
  Buffer.add_string buf seed;
  { buf; scratch = Bytes.create (state_len + chunk + 256); count = 0 }

(* MD5 of the buffer's bytes, read through [scratch] rather than
   [Buffer.contents], which would allocate a chunk-sized string on the
   major heap at every flush. *)
let hash t =
  let n = Buffer.length t.buf in
  if n > Bytes.length t.scratch then t.scratch <- Bytes.create (2 * n);
  Buffer.blit t.buf 0 t.scratch 0 n;
  Stdlib.Digest.subbytes t.scratch 0 n

let feed t e =
  Event.write_binary t.buf e;
  t.count <- t.count + 1;
  if Buffer.length t.buf - state_len >= chunk then begin
    let state = hash t in
    Buffer.clear t.buf;
    Buffer.add_string t.buf state
  end

let count t = t.count
let value t = Stdlib.Digest.to_hex (hash t)
let sink t = feed t

let of_events events =
  let d = create () in
  List.iter (feed d) events;
  value d
