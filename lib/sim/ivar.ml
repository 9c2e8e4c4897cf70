type 'a state = Empty of ('a -> unit) list | Full of 'a

type 'a t = { mutable state : 'a state }

let create () = { state = Empty [] }

let peek iv = match iv.state with Full v -> Some v | Empty _ -> None

let fill _eng iv v =
  match iv.state with
  | Full _ -> invalid_arg "Ivar.fill: already full"
  | Empty waiters ->
      iv.state <- Full v;
      List.iter (fun w -> w v) (List.rev waiters)

let try_fill eng iv v =
  match iv.state with
  | Full _ -> false
  | Empty _ ->
      fill eng iv v;
      true

let read eng iv =
  match iv.state with
  | Full v -> v
  | Empty _ ->
      Engine.suspend eng (fun resume ->
          match iv.state with
          | Full v -> resume (Ok v)
          | Empty waiters -> iv.state <- Empty ((fun v -> resume (Ok v)) :: waiters))

let read_timeout eng iv d =
  match iv.state with
  | Full v -> Some v
  | Empty _ ->
      Engine.suspend eng (fun resume ->
          match iv.state with
          | Full v ->
              resume (Ok (Some v));
              (* Arm and cancel the timer anyway, so its [Sched] event and
                 tick stay where they always were. *)
              Engine.cancel eng (Engine.timer eng ~after:d (fun () -> resume (Ok None)))
          | Empty waiters ->
              let tm = Engine.timer eng ~after:d (fun () -> resume (Ok None)) in
              iv.state <-
                Empty
                  ((fun v ->
                     Engine.cancel eng tm;
                     resume (Ok (Some v)))
                  :: waiters))
