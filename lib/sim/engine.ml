(* [slot] is the event's index in [heap], or -1 once it has fired or
   been cancelled. *)
type event = {
  time : float;
  seq : int;
  mutable action : unit -> unit;
  mutable slot : int;
}

type timer = event

type crash = {
  crash_time : float;
  crash_fiber : string;
  crash_exn : exn;
}

(* Two binary min-heaps keyed by [(time, seq)]: [heap] holds the pending
   events, and [tick_time]/[tick_seq] (unboxed, allocated on the first
   cancel) hold the keys of cancelled ones.  [run] pops whichever comes
   first, so a cancelled timer still takes its step at its time. *)
type t = {
  mutable now : float;
  mutable seq : int;
  mutable heap : event array;
  mutable size : int;
  mutable tick_time : float array;
  mutable tick_seq : int array;
  mutable ticks : int;
  root_rng : Rng.t;
  bus : Weakset_obs.Bus.t;
  planted : Weakset_obs.Planted.t;
  mutable tokens : int;
  mutable live : int;
  mutable fiber_counter : int;
  mutable crashed : crash list;
}

type _ Effect.t +=
  | Sleep : float -> unit Effect.t
  | Suspend : ((('a, exn) result -> unit) -> unit) -> 'a Effect.t

let no_timer = { time = 0.0; seq = 0; action = ignore; slot = -1 }

let create ?(seed = 1L) ?bus ?(planted = Weakset_obs.Planted.none) () =
  let bus = match bus with Some b -> b | None -> Weakset_obs.Bus.create () in
  {
    now = 0.0;
    seq = 0;
    heap = [||];
    size = 0;
    tick_time = [||];
    tick_seq = [||];
    ticks = 0;
    root_rng = Rng.create seed;
    bus;
    planted;
    tokens = 0;
    live = 0;
    fiber_counter = 0;
    crashed = [];
  }

let now t = t.now
let rng t = t.root_rng
let bus t = t.bus
let planted t = t.planted

let fresh_token t =
  t.tokens <- t.tokens + 1;
  t.tokens

let metrics t = Weakset_obs.Bus.metrics t.bus
let live_fibers t = t.live
let crashes t = List.rev t.crashed
let pending t = t.size

(* ---- event heap ---- *)

let[@inline] before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let[@inline] place t i ev =
  t.heap.(i) <- ev;
  ev.slot <- i

let rec sift_up t i ev =
  if i = 0 then place t 0 ev
  else
    let p = (i - 1) / 2 in
    let pe = t.heap.(p) in
    if before ev pe then begin
      place t i pe;
      sift_up t p ev
    end
    else place t i ev

let rec sift_down t i ev =
  let l = (2 * i) + 1 in
  if l >= t.size then place t i ev
  else
    let r = l + 1 in
    let c = if r < t.size && before t.heap.(r) t.heap.(l) then r else l in
    let ce = t.heap.(c) in
    if before ce ev then begin
      place t i ce;
      sift_down t c ev
    end
    else place t i ev

let push t ev =
  let cap = Array.length t.heap in
  if t.size = cap then begin
    let heap = Array.make (if cap = 0 then 16 else cap * 2) no_timer in
    Array.blit t.heap 0 heap 0 t.size;
    t.heap <- heap
  end;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) ev

(* Takes the event at slot [i] out of the heap.  The vacated cell gets
   [no_timer] so the heap does not keep a fired closure alive. *)
let remove t i =
  let ev = t.heap.(i) in
  ev.slot <- -1;
  let last = t.size - 1 in
  t.size <- last;
  let moved = t.heap.(last) in
  t.heap.(last) <- no_timer;
  if i < last then
    if i > 0 && before moved t.heap.((i - 1) / 2) then sift_up t i moved
    else sift_down t i moved

(* ---- tick heap ---- *)

let[@inline] tick_before t i j =
  let ti = t.tick_time.(i) and tj = t.tick_time.(j) in
  ti < tj || (ti = tj && t.tick_seq.(i) < t.tick_seq.(j))

let swap_ticks t i j =
  let time = t.tick_time.(i) and seq = t.tick_seq.(i) in
  t.tick_time.(i) <- t.tick_time.(j);
  t.tick_seq.(i) <- t.tick_seq.(j);
  t.tick_time.(j) <- time;
  t.tick_seq.(j) <- seq

let rec tick_up t i =
  if i > 0 then
    let p = (i - 1) / 2 in
    if tick_before t i p then begin
      swap_ticks t i p;
      tick_up t p
    end

let rec tick_down t i =
  let l = (2 * i) + 1 in
  if l < t.ticks then
    let r = l + 1 in
    let c = if r < t.ticks && tick_before t r l then r else l in
    if tick_before t c i then begin
      swap_ticks t i c;
      tick_down t c
    end

let push_tick t time seq =
  let cap = Array.length t.tick_seq in
  if t.ticks = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let times = Array.make ncap 0.0 and seqs = Array.make ncap 0 in
    Array.blit t.tick_time 0 times 0 t.ticks;
    Array.blit t.tick_seq 0 seqs 0 t.ticks;
    t.tick_time <- times;
    t.tick_seq <- seqs
  end;
  t.tick_time.(t.ticks) <- time;
  t.tick_seq.(t.ticks) <- seq;
  t.ticks <- t.ticks + 1;
  tick_up t (t.ticks - 1)

let pop_tick t =
  t.ticks <- t.ticks - 1;
  t.tick_time.(0) <- t.tick_time.(t.ticks);
  t.tick_seq.(0) <- t.tick_seq.(t.ticks);
  tick_down t 0

(* ---- timers ---- *)

let add t after action =
  t.seq <- t.seq + 1;
  let at = t.now +. after in
  if Weakset_obs.Bus.active t.bus then
    Weakset_obs.Bus.emit t.bus ~time:t.now (Weakset_obs.Event.Sched { at });
  let ev = { time = at; seq = t.seq; action; slot = -1 } in
  push t ev;
  ev

let timer t ~after action =
  if after < 0.0 then invalid_arg "Engine.timer: negative delay";
  add t after action

let schedule t ~after action =
  if after < 0.0 then invalid_arg "Engine.schedule: negative delay";
  ignore (add t after action : event)

let cancel t ev =
  let i = ev.slot in
  if i >= 0 then begin
    if i >= t.size || t.heap.(i) != ev then
      invalid_arg "Engine.cancel: timer of another engine";
    remove t i;
    ev.action <- ignore;
    push_tick t ev.time ev.seq
  end

let sleep _t d = Effect.perform (Sleep d)
let yield _t = Effect.perform (Sleep 0.0)
let suspend _t register = Effect.perform (Suspend register)

(* Each scheduler handoff to a fiber is bracketed by Run_begin/Run_end
   events so a profiler can reconstruct per-fiber wait intervals.  Run
   slices have zero virtual duration (time only advances between queue
   pops), so the interesting payload is the *park reason* on Run_end:
   it classifies the wait that follows.  Both are skipped outright when
   nothing listens, so an unobserved run builds no payloads. *)
let run_fiber t fid name body =
  let open Effect.Deep in
  let emit_begin () =
    if Weakset_obs.Bus.active t.bus then
      Weakset_obs.Bus.emit t.bus ~time:t.now
        (Weakset_obs.Event.Run_begin { fid; fiber = name })
  in
  let emit_end park =
    if Weakset_obs.Bus.active t.bus then
      Weakset_obs.Bus.emit t.bus ~time:t.now
        (Weakset_obs.Event.Run_end { fid; fiber = name; park })
  in
  t.live <- t.live + 1;
  let retc () =
    t.live <- t.live - 1;
    emit_end Weakset_obs.Event.Park_done
  in
  let exnc e =
    t.live <- t.live - 1;
    Weakset_obs.Bus.emit t.bus ~time:t.now
      (Weakset_obs.Event.Fiber_crash
         { fiber = name; exn_text = Printexc.to_string e });
    emit_end Weakset_obs.Event.Park_crash;
    t.crashed <- { crash_time = t.now; crash_fiber = name; crash_exn = e } :: t.crashed
  in
  let effc : type b. b Effect.t -> ((b, unit) continuation -> unit) option = function
    | Sleep d ->
        Some
          (fun k ->
            let d = Float.max 0.0 d in
            if Weakset_obs.Bus.active t.bus then
              emit_end
                (if d = 0.0 then Weakset_obs.Event.Park_yield
                 else Weakset_obs.Event.Park_sleep (t.now +. d));
            schedule t ~after:d (fun () ->
                emit_begin ();
                continue k ()))
    | Suspend register ->
        Some
          (fun k ->
            emit_end Weakset_obs.Event.Park_suspend;
            let resumed = ref false in
            let resume r =
              if not !resumed then begin
                resumed := true;
                schedule t ~after:0.0 (fun () ->
                    emit_begin ();
                    match r with Ok v -> continue k v | Error e -> discontinue k e)
              end
            in
            register resume)
    | _ -> None
  in
  emit_begin ();
  match_with body () { retc; exnc; effc }

let spawn t ?name body =
  t.fiber_counter <- t.fiber_counter + 1;
  let fid = t.fiber_counter in
  let name = match name with Some n -> n | None -> "fiber-" ^ string_of_int fid in
  Weakset_obs.Bus.emit t.bus ~time:t.now
    (Weakset_obs.Event.Fiber_spawn { fid; fiber = name });
  schedule t ~after:0.0 (fun () -> run_fiber t fid name body)

(* Whether the next step is the event at the top of [heap] rather than
   a tick. *)
let[@inline] event_next t =
  t.size > 0
  && (t.ticks = 0
     ||
     let ev = t.heap.(0) and tt = t.tick_time.(0) in
     ev.time < tt || (ev.time = tt && ev.seq < t.tick_seq.(0)))

let run ?(until = infinity) ?(max_steps = max_int) t =
  let steps = ref 0 in
  let continue_run = ref true in
  while !continue_run && !steps < max_steps do
    if event_next t then begin
      let ev = t.heap.(0) in
      if ev.time > until then continue_run := false
      else begin
        remove t 0;
        t.now <- Float.max t.now ev.time;
        incr steps;
        ev.action ()
      end
    end
    else if t.ticks > 0 then begin
      let time = t.tick_time.(0) in
      if time > until then continue_run := false
      else begin
        pop_tick t;
        t.now <- Float.max t.now time;
        incr steps
      end
    end
    else continue_run := false
  done;
  !steps

let run_and_check t =
  let (_ : int) = run t in
  match crashes t with
  | [] -> ()
  | { crash_fiber; crash_exn; crash_time } :: _ ->
      failwith
        (Printf.sprintf "fiber %s crashed at t=%.3f: %s" crash_fiber crash_time
           (Printexc.to_string crash_exn))
