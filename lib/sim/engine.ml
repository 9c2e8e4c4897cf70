type event = { time : float; seq : int; action : unit -> unit }

type crash = {
  crash_time : float;
  crash_fiber : string;
  crash_exn : exn;
}

type t = {
  mutable now : float;
  mutable seq : int;
  heap : event Pqueue.t;
  root_rng : Rng.t;
  bus : Weakset_obs.Bus.t;
  mutable live : int;
  mutable fiber_counter : int;
  mutable crashed : crash list;
}

type _ Effect.t +=
  | Sleep : float -> unit Effect.t
  | Suspend : ((('a, exn) result -> unit) -> unit) -> 'a Effect.t

let leq_event a b = a.time < b.time || (a.time = b.time && a.seq <= b.seq)

let create ?(seed = 1L) ?bus () =
  let bus = match bus with Some b -> b | None -> Weakset_obs.Bus.create () in
  {
    now = 0.0;
    seq = 0;
    heap = Pqueue.create ~leq:leq_event;
    root_rng = Rng.create seed;
    bus;
    live = 0;
    fiber_counter = 0;
    crashed = [];
  }

let now t = t.now
let rng t = t.root_rng
let bus t = t.bus
let metrics t = Weakset_obs.Bus.metrics t.bus
let live_fibers t = t.live
let crashes t = List.rev t.crashed

let schedule t ~after action =
  if after < 0.0 then invalid_arg "Engine.schedule: negative delay";
  t.seq <- t.seq + 1;
  let at = t.now +. after in
  if Weakset_obs.Bus.active t.bus then
    Weakset_obs.Bus.emit t.bus ~time:t.now (Weakset_obs.Event.Sched { at });
  Pqueue.push t.heap { time = at; seq = t.seq; action }

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

let run ?(until = infinity) ?(max_steps = max_int) t =
  let steps = ref 0 in
  let continue_run = ref true in
  while !continue_run && !steps < max_steps do
    match Pqueue.peek t.heap with
    | None -> continue_run := false
    | Some ev when ev.time > until -> continue_run := false
    | Some _ ->
        (match Pqueue.pop t.heap with
        | None -> continue_run := false
        | Some ev ->
            t.now <- Float.max t.now ev.time;
            incr steps;
            ev.action ())
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
