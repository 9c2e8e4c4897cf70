type t = { mutable waiters : (unit -> unit) list; mutable generation : int }

let create () = { waiters = []; generation = 0 }

let generation s = s.generation

let wait eng s =
  Engine.suspend eng (fun resume ->
      s.waiters <- (fun () -> resume (Ok ())) :: s.waiters)

let wait_timeout eng s d =
  Engine.suspend eng (fun resume ->
      let tm = Engine.timer eng ~after:d (fun () -> resume (Ok false)) in
      s.waiters <-
        (fun () ->
          Engine.cancel eng tm;
          resume (Ok true))
        :: s.waiters)

let broadcast _eng s =
  let ws = List.rev s.waiters in
  s.waiters <- [];
  s.generation <- s.generation + 1;
  List.iter (fun w -> w ()) ws
