module Engine = Weakset_sim.Engine

type kind = Read | Write

type w_state = Waiting | Granted | Cancelled

type waiter = {
  w_kind : kind;
  w_owner : int;
  w_notify : bool -> unit;
  mutable w_state : w_state;
  mutable w_timer : Engine.timer;  (* patience, cancelled on grant *)
}

type t = {
  engine : Engine.t;
  mutable readers : int list;
  mutable writer : int option;
  queue : waiter Queue.t;
}

let create engine = { engine; readers = []; writer = None; queue = Queue.create () }

let holders t =
  (match t.writer with Some w -> [ (w, Write) ] | None -> [])
  @ List.map (fun r -> (r, Read)) t.readers

let waiting t = Queue.fold (fun n w -> if w.w_state = Waiting then n + 1 else n) 0 t.queue

let compatible t kind =
  match kind with
  | Read -> t.writer = None
  | Write -> t.writer = None && t.readers = []

let hold t kind ~owner =
  match kind with
  | Read -> t.readers <- owner :: t.readers
  | Write -> t.writer <- Some owner

let grant t w =
  w.w_state <- Granted;
  Engine.cancel t.engine w.w_timer;
  hold t w.w_kind ~owner:w.w_owner;
  w.w_notify true

(* Grant from the head of the queue while the head is compatible; strict
   FIFO prevents writer starvation.  Withdrawn waiters are discarded in
   passing so an expired writer cannot block the readers behind it. *)
let rec pump t =
  match Queue.peek_opt t.queue with
  | Some { w_state = Cancelled; _ } ->
      ignore (Queue.pop t.queue);
      pump t
  | Some w when compatible t w.w_kind ->
      ignore (Queue.pop t.queue);
      grant t w;
      pump t
  | Some _ | None -> ()

let involved t owner =
  List.mem owner t.readers
  || t.writer = Some owner
  || Queue.fold (fun acc w -> acc || (w.w_state = Waiting && w.w_owner = owner)) false t.queue

(* Returns true when the lock was granted synchronously (no contention). *)
let fast_path t kind ~owner =
  if involved t owner then invalid_arg "Lockmgr.acquire: owner already involved";
  if waiting t = 0 && compatible t kind then begin
    hold t kind ~owner;
    true
  end
  else false

let acquire t kind ~owner =
  if not (fast_path t kind ~owner) then begin
    let granted =
      Engine.suspend t.engine (fun resume ->
          Queue.push
            {
              w_kind = kind;
              w_owner = owner;
              w_notify = (fun ok -> resume (Ok ok));
              w_state = Waiting;
              w_timer = Engine.no_timer;
            }
            t.queue)
    in
    (* Unbounded waiters are only ever resumed by a grant. *)
    if not granted then assert false
  end

let acquire_within t kind ~owner ~patience =
  if fast_path t kind ~owner then true
  else
    Engine.suspend t.engine (fun resume ->
        let w =
          {
            w_kind = kind;
            w_owner = owner;
            w_notify = (fun ok -> resume (Ok ok));
            w_state = Waiting;
            w_timer = Engine.no_timer;
          }
        in
        Queue.push w t.queue;
        w.w_timer <-
          Engine.timer t.engine ~after:patience (fun () ->
              if w.w_state = Waiting then begin
                w.w_state <- Cancelled;
                (* A withdrawn head must not block compatible waiters
                   behind it. *)
                pump t;
                w.w_notify false
              end))

let release t ~owner =
  (match t.writer with
  | Some w when w = owner -> t.writer <- None
  | Some _ | None -> t.readers <- List.filter (fun r -> r <> owner) t.readers);
  pump t
