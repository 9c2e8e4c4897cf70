type sink = Event.t -> unit

type t = {
  mutable seq : int;
  mutable sinks : (string * sink) list;
  mutable enabled : bool;
  metrics : Metrics.t;
  mutable next_span : int;
}

let create ?metrics () =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  { seq = 0; sinks = []; enabled = true; metrics; next_span = 0 }

let metrics t = t.metrics

let attach t ~name sink =
  t.sinks <- List.filter (fun (n, _) -> n <> name) t.sinks @ [ (name, sink) ]

let detach t ~name =
  t.sinks <- List.filter (fun (n, _) -> n <> name) t.sinks

let set_enabled t b = t.enabled <- b
let enabled t = t.enabled
let active t = t.enabled && t.sinks <> []

let emit t ~time kind =
  if active t then begin
    let e = { Event.seq = t.seq; time; kind } in
    t.seq <- t.seq + 1;
    List.iter (fun (_, sink) -> sink e) t.sinks
  end

let seq t = t.seq

let fresh_span t =
  let s = t.next_span in
  t.next_span <- s + 1;
  s

let with_span_id t ~time ?node ?parent name f =
  (* The span id is allocated even when nothing is listening: callers
     thread it through RPC frames as the causal parent, and keeping the
     id sequence independent of sink attachment keeps runs comparable. *)
  let span = fresh_span t in
  if not (active t) then f span
  else begin
    let t0 = time () in
    emit t ~time:t0 (Event.Span_start { span; parent; name; node });
    let finish () =
      let t1 = time () in
      emit t ~time:t1 (Event.Span_end { span; name; node; dur = t1 -. t0 })
    in
    match f span with
    | v ->
        finish ();
        v
    | exception exn ->
        finish ();
        raise exn
  end

let with_span t ~time ?node ?parent name f =
  with_span_id t ~time ?node ?parent name (fun _ -> f ())
