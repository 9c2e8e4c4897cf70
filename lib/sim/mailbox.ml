type 'a waiter = { mutable alive : bool; deliver : 'a -> unit }

type 'a t = { queue : 'a Queue.t; waiters : 'a waiter Queue.t (* oldest first *) }

let create () = { queue = Queue.create (); waiters = Queue.create () }

let length mb = Queue.length mb.queue

(* Pop the oldest still-alive waiter, discarding dead (timed-out) ones. *)
let rec pop_waiter mb =
  match Queue.take_opt mb.waiters with
  | None -> None
  | Some w -> if w.alive then Some w else pop_waiter mb

let send _eng mb msg =
  match pop_waiter mb with
  | Some w ->
      w.alive <- false;
      w.deliver msg
  | None -> Queue.push msg mb.queue

let recv eng mb =
  match Queue.take_opt mb.queue with
  | Some msg -> msg
  | None ->
      Engine.suspend eng (fun resume ->
          let w = { alive = true; deliver = (fun msg -> resume (Ok msg)) } in
          Queue.push w mb.waiters)

let recv_timeout eng mb d =
  match Queue.take_opt mb.queue with
  | Some msg -> Some msg
  | None ->
      Engine.suspend eng (fun resume ->
          let w = { alive = true; deliver = (fun msg -> resume (Ok (Some msg))) } in
          Queue.push w mb.waiters;
          Engine.schedule eng ~after:d (fun () ->
              if w.alive then begin
                w.alive <- false;
                resume (Ok None)
              end))

let try_recv mb = Queue.take_opt mb.queue

let clear mb = Queue.clear mb.queue
