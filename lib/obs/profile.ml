(* Simulated-time profiler over the event stream.

   Run slices have zero virtual duration (the engine only advances time
   between queue pops), so all of a fiber's lifetime is spent *waiting*,
   and the profiler's job is to classify those waits.  Each fiber
   alternates Run_begin/Run_end brackets; the park reason on Run_end
   (plus the fiber's outstanding-RPC count) classifies the wait interval
   that follows:

     Park_yield                    -> Runnable (ready, waiting for the scheduler)
     Park_sleep   & no RPC pending -> Sleep    (timer)
     Park_suspend & no RPC pending -> Blocked  (ivar/signal/mailbox)
     any park     & RPC pending    -> Rpc      (an issued call is in flight)

   The accounting rule: for every fiber,
     sleep + blocked + rpc + runnable = (end | profile stop) - spawn
   where "profile stop" is the timestamp of the last event seen. *)

type wait = Sleep | Blocked | Rpc | Runnable

let wait_label = function
  | Sleep -> "sleep"
  | Blocked -> "blocked"
  | Rpc -> "rpc"
  | Runnable -> "runnable"

type fiber = {
  fid : int;
  fname : string;
  spawned : float;
  mutable ended : float option;
  mutable crashed : bool;
  mutable slices : int;
  mutable wait_since : float option;
  mutable wait_kind : wait;
  mutable spans : (int * string) list;  (* innermost first *)
  mutable rpcs : int;
  mutable w_sleep : float;
  mutable w_blocked : float;
  mutable w_rpc : float;
  mutable w_runnable : float;
}

type opstat = { mutable calls : int; mutable total : float; mutable omax : float }

type t = {
  fibers : (int, fiber) Hashtbl.t;
  mutable current : fiber option;
  rpc_owner : (int, fiber) Hashtbl.t;
  span_owner : (int, fiber) Hashtbl.t;
  ops : (string, opstat) Hashtbl.t;
  folds : (string, float) Hashtbl.t;
  mutable events : int;
  mutable t_first : float;
  mutable t_last : float;
  mutable finished : bool;
}

let create () =
  {
    fibers = Hashtbl.create 64;
    current = None;
    rpc_owner = Hashtbl.create 64;
    span_owner = Hashtbl.create 64;
    ops = Hashtbl.create 64;
    folds = Hashtbl.create 64;
    events = 0;
    t_first = nan;
    t_last = nan;
    finished = false;
  }

let fiber_of t fid fname time =
  match Hashtbl.find_opt t.fibers fid with
  | Some f -> f
  | None ->
      (* Stream may start mid-run; treat first sight as the spawn. *)
      let f =
        {
          fid;
          fname;
          spawned = time;
          ended = None;
          crashed = false;
          slices = 0;
          wait_since = Some time;
          wait_kind = Runnable;
          spans = [];
          rpcs = 0;
          w_sleep = 0.0;
          w_blocked = 0.0;
          w_rpc = 0.0;
          w_runnable = 0.0;
        }
      in
      Hashtbl.replace t.fibers fid f;
      f

let add_wait f kind d =
  match kind with
  | Sleep -> f.w_sleep <- f.w_sleep +. d
  | Blocked -> f.w_blocked <- f.w_blocked +. d
  | Rpc -> f.w_rpc <- f.w_rpc +. d
  | Runnable -> f.w_runnable <- f.w_runnable +. d

(* Folded flamegraph stack: fiber name, active spans outer->inner, wait
   category leaf.  Only waits accumulate (slices are zero-width). *)
let fold_key f kind =
  String.concat ";"
    (f.fname :: List.rev_map snd f.spans @ [ wait_label kind ])

let close_wait t f until =
  match f.wait_since with
  | None -> ()
  | Some since ->
      let d = until -. since in
      f.wait_since <- None;
      add_wait f f.wait_kind d;
      if d > 0.0 then begin
        let key = fold_key f f.wait_kind in
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt t.folds key) in
        Hashtbl.replace t.folds key (prev +. d)
      end

let open_wait f kind time =
  f.wait_since <- Some time;
  f.wait_kind <- kind

let handle t (e : Event.t) =
  if t.finished then invalid_arg "Profile.handle: profile already finished";
  t.events <- t.events + 1;
  if Float.is_nan t.t_first then t.t_first <- e.time;
  t.t_last <- e.time;
  match e.kind with
  | Event.Fiber_spawn { fid; fiber } -> ignore (fiber_of t fid fiber e.time)
  | Event.Run_begin { fid; fiber } ->
      let f = fiber_of t fid fiber e.time in
      close_wait t f e.time;
      f.slices <- f.slices + 1;
      t.current <- Some f
  | Event.Run_end { fid; fiber; park } ->
      let f = fiber_of t fid fiber e.time in
      t.current <- None;
      (match park with
      | Event.Park_done -> f.ended <- Some e.time
      | Event.Park_crash ->
          f.ended <- Some e.time;
          f.crashed <- true
      | Event.Park_yield -> open_wait f Runnable e.time
      | Event.Park_sleep _ ->
          open_wait f (if f.rpcs > 0 then Rpc else Sleep) e.time
      | Event.Park_suspend ->
          open_wait f (if f.rpcs > 0 then Rpc else Blocked) e.time)
  | Event.Rpc_call { id; _ } -> (
      match t.current with
      | None -> ()
      | Some f ->
          f.rpcs <- f.rpcs + 1;
          Hashtbl.replace t.rpc_owner id f)
  | Event.Rpc_done { id; _ } -> (
      match Hashtbl.find_opt t.rpc_owner id with
      | None -> ()
      | Some f ->
          f.rpcs <- f.rpcs - 1;
          Hashtbl.remove t.rpc_owner id)
  | Event.Span_start { span; name; _ } -> (
      match t.current with
      | None -> ()
      | Some f ->
          f.spans <- (span, name) :: f.spans;
          Hashtbl.replace t.span_owner span f)
  | Event.Span_end { span; name; dur; _ } -> (
      let stat =
        match Hashtbl.find_opt t.ops name with
        | Some s -> s
        | None ->
            let s = { calls = 0; total = 0.0; omax = 0.0 } in
            Hashtbl.replace t.ops name s;
            s
      in
      stat.calls <- stat.calls + 1;
      stat.total <- stat.total +. dur;
      stat.omax <- Float.max stat.omax dur;
      match Hashtbl.find_opt t.span_owner span with
      | None -> ()
      | Some f ->
          f.spans <- List.filter (fun (id, _) -> id <> span) f.spans;
          Hashtbl.remove t.span_owner span)
  | _ -> ()

let sink t = handle t

let finish t =
  if not t.finished then begin
    t.finished <- true;
    if not (Float.is_nan t.t_last) then
      Hashtbl.iter (fun _ f -> close_wait t f t.t_last) t.fibers
  end

let of_events events =
  let t = create () in
  List.iter (handle t) events;
  finish t;
  t

let events t = t.events

let span t =
  if Float.is_nan t.t_first then (0.0, 0.0) else (t.t_first, t.t_last)

(* --- views ---------------------------------------------------------- *)

type fiber_info = {
  i_fid : int;
  i_name : string;
  i_spawned : float;
  i_ended : float option;
  i_crashed : bool;
  i_slices : int;
  i_sleep : float;
  i_blocked : float;
  i_rpc : float;
  i_runnable : float;
}

type op_info = { o_name : string; o_calls : int; o_total : float; o_max : float }

let fiber_infos t =
  finish t;
  Hashtbl.fold
    (fun _ f acc ->
      {
        i_fid = f.fid;
        i_name = f.fname;
        i_spawned = f.spawned;
        i_ended = f.ended;
        i_crashed = f.crashed;
        i_slices = f.slices;
        i_sleep = f.w_sleep;
        i_blocked = f.w_blocked;
        i_rpc = f.w_rpc;
        i_runnable = f.w_runnable;
      }
      :: acc)
    t.fibers []
  |> List.sort (fun a b -> compare a.i_fid b.i_fid)

let op_infos t =
  finish t;
  Hashtbl.fold
    (fun name s acc ->
      { o_name = name; o_calls = s.calls; o_total = s.total; o_max = s.omax } :: acc)
    t.ops []
  |> List.sort (fun a b -> compare a.o_name b.o_name)

let folded t =
  finish t;
  let lines =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.folds []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s %.6f\n" k v))
    lines;
  Buffer.contents buf

(* --- top-k tables ---------------------------------------------------- *)

(* Fibers aggregate by display name (all rpc-handler-* instances of one
   node fold together only if identically named; engine names are unique
   per instance, so this mostly groups logical roles). *)
let render_top ?(k = 10) t =
  finish t;
  let start, stop = span t in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "profile: %d events, %d fibers, %d ops, span %.2f .. %.2f\n"
       t.events (Hashtbl.length t.fibers) (Hashtbl.length t.ops) start stop);
  let agg = Hashtbl.create 32 in
  List.iter
    (fun f ->
      let key = f.i_name in
      let n, sl, bl, rp, ru =
        Option.value ~default:(0, 0.0, 0.0, 0.0, 0.0) (Hashtbl.find_opt agg key)
      in
      Hashtbl.replace agg key
        (n + 1, sl +. f.i_sleep, bl +. f.i_blocked, rp +. f.i_rpc, ru +. f.i_runnable))
    (fiber_infos t);
  let fibers =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) agg []
    |> List.sort (fun (na, (_, sa, ba, ra, ua)) (nb, (_, sb, bb, rb, ub)) ->
           let ta = sa +. ba +. ra +. ua and tb = sb +. bb +. rb +. ub in
           if ta <> tb then compare tb ta else compare na nb)
  in
  let take n l = List.filteri (fun i _ -> i < n) l in
  Buffer.add_string buf
    (Printf.sprintf "top %d fibers by waited time\n  %-28s %5s %10s %10s %10s %10s %10s\n"
       k "fiber" "n" "sleep" "blocked" "rpc" "runnable" "total");
  List.iter
    (fun (name, (n, sl, bl, rp, ru)) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-28s %5d %10.2f %10.2f %10.2f %10.2f %10.2f\n" name n sl bl
           rp ru
           (sl +. bl +. rp +. ru)))
    (take k fibers);
  let ops =
    op_infos t
    |> List.sort (fun a b ->
           if a.o_total <> b.o_total then compare b.o_total a.o_total
           else compare a.o_name b.o_name)
  in
  Buffer.add_string buf
    (Printf.sprintf "top %d ops by span time\n  %-28s %7s %10s %10s %10s\n" k "op"
       "calls" "total" "mean" "max");
  List.iter
    (fun o ->
      Buffer.add_string buf
        (Printf.sprintf "  %-28s %7d %10.2f %10.2f %10.2f\n" o.o_name o.o_calls o.o_total
           (o.o_total /. float_of_int (max 1 o.o_calls))
           o.o_max))
    (take k ops);
  Buffer.contents buf
