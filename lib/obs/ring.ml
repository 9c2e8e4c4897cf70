type t = {
  arr : Event.t array;
  cap : int;
  mutable start : int; (* index of oldest element *)
  mutable len : int;
  mutable dropped : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  {
    arr = Array.make capacity Event.dummy;
    cap = capacity;
    start = 0;
    len = 0;
    dropped = 0;
  }

let capacity t = t.cap
let length t = t.len
let dropped t = t.dropped

let push t e =
  if t.len < t.cap then begin
    t.arr.((t.start + t.len) mod t.cap) <- e;
    t.len <- t.len + 1
  end
  else begin
    (* full: overwrite the oldest slot and advance start *)
    t.arr.(t.start) <- e;
    t.start <- (t.start + 1) mod t.cap;
    t.dropped <- t.dropped + 1
  end

let to_list t =
  List.init t.len (fun i -> t.arr.((t.start + i) mod t.cap))

let sink t = push t
