(* [timer] is the waiter's timeout, or [Engine.no_timer] for [recv];
   [send] cancels it, so a timer that fires always finds its waiter
   alive. *)
type 'a waiter = {
  mutable alive : bool;
  deliver : 'a -> unit;
  mutable timer : Engine.timer;
}

type 'a t = { queue : 'a Queue.t; waiters : 'a waiter Queue.t (* oldest first *) }

let create () = { queue = Queue.create (); waiters = Queue.create () }

let length mb = Queue.length mb.queue

(* Pop the oldest still-alive waiter, discarding dead (timed-out) ones. *)
let rec pop_waiter mb =
  match Queue.take_opt mb.waiters with
  | None -> None
  | Some w -> if w.alive then Some w else pop_waiter mb

let send eng mb msg =
  match pop_waiter mb with
  | Some w ->
      Engine.cancel eng w.timer;
      w.deliver msg
  | None -> Queue.push msg mb.queue

let recv eng mb =
  match Queue.take_opt mb.queue with
  | Some msg -> msg
  | None ->
      Engine.suspend eng (fun resume ->
          let w =
            { alive = true; deliver = (fun msg -> resume (Ok msg)); timer = Engine.no_timer }
          in
          Queue.push w mb.waiters)

let recv_timeout eng mb d =
  match Queue.take_opt mb.queue with
  | Some msg -> Some msg
  | None ->
      Engine.suspend eng (fun resume ->
          let w =
            {
              alive = true;
              deliver = (fun msg -> resume (Ok (Some msg)));
              timer = Engine.no_timer;
            }
          in
          Queue.push w mb.waiters;
          w.timer <-
            Engine.timer eng ~after:d (fun () ->
                w.alive <- false;
                resume (Ok None)))

let try_recv mb = Queue.take_opt mb.queue
