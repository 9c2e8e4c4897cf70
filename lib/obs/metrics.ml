type counter = { mutable c : int }
type gauge = { mutable g : float }

(* Histograms hold a deterministic fixed-capacity reservoir instead of
   every sample: below [reservoir_capacity] percentiles are exact; above
   it the retained set is decimated by insertion index (sample [i] is
   kept iff [i mod stride = 0], stride doubling whenever the buffer
   fills) — a uniform-by-index subsample that is a pure function of the
   sample stream, so seed-identical runs keep identical reservoirs.
   Count and sum stay exact regardless.  Memory is O(capacity) however
   long the run. *)
let reservoir_capacity = 512

type histogram = {
  kept : float array; (* retained samples, insertion order, first klen live *)
  mutable klen : int;
  mutable stride : int; (* admit every stride-th observation *)
  mutable n : int;
  mutable sum : float;
  mutable sorted : float array option; (* cache, invalidated on observe *)
  ex : Exemplar.t; (* worst-in-window exemplar per latency bucket *)
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = {
  table : (string, instrument) Hashtbl.t;
  mutable next_instance : int;
}

let create () = { table = Hashtbl.create 64; next_instance = 0 }

let fresh_instance t =
  let i = t.next_instance in
  t.next_instance <- i + 1;
  i

(* Key = name{k=v,...} with labels sorted, so intern order never matters. *)
let key name labels =
  match labels with
  | [] -> name
  | ls ->
      let ls = List.sort (fun (a, _) (b, _) -> compare a b) ls in
      name ^ "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls)
      ^ "}"

let intern t name labels make wrap unwrap what =
  let k = key name labels in
  match Hashtbl.find_opt t.table k with
  | Some inst -> (
      match unwrap inst with
      | Some x -> x
      | None -> invalid_arg (Printf.sprintf "Metrics: %s is not a %s" k what))
  | None ->
      let x = make () in
      Hashtbl.replace t.table k (wrap x);
      x

let counter t ?(labels = []) name =
  intern t name labels
    (fun () -> { c = 0 })
    (fun c -> Counter c)
    (function Counter c -> Some c | _ -> None)
    "counter"

let inc ?(by = 1) c = c.c <- c.c + by
let value c = c.c

let peek_counter t ?(labels = []) name =
  match Hashtbl.find_opt t.table (key name labels) with
  | Some (Counter c) -> c.c
  | _ -> 0

let gauge t ?(labels = []) name =
  intern t name labels
    (fun () -> { g = 0.0 })
    (fun g -> Gauge g)
    (function Gauge g -> Some g | _ -> None)
    "gauge"

let set_gauge g v = g.g <- v
let gauge_value g = g.g

let histogram t ?(labels = []) name =
  intern t name labels
    (fun () ->
      {
        kept = Array.make reservoir_capacity 0.0;
        klen = 0;
        stride = 1;
        n = 0;
        sum = 0.0;
        sorted = None;
        ex = Exemplar.create ();
      })
    (fun h -> Histogram h)
    (function Histogram h -> Some h | _ -> None)
    "histogram"

(* Halve the reservoir in place: the live entries hold original indices
   0, stride, 2*stride, …; keeping every other one leaves exactly the
   multiples of the doubled stride. *)
let compact h =
  let j = ref 0 in
  let i = ref 0 in
  while !i < h.klen do
    h.kept.(!j) <- h.kept.(!i);
    incr j;
    i := !i + 2
  done;
  h.klen <- !j;
  h.stride <- h.stride * 2

let observe h v =
  let idx = h.n in
  h.n <- h.n + 1;
  h.sum <- h.sum +. v;
  if idx mod h.stride = 0 then begin
    if h.klen = Array.length h.kept then compact h;
    (* compaction doubled the stride; re-test admission under it *)
    if idx mod h.stride = 0 then begin
      h.kept.(h.klen) <- v;
      h.klen <- h.klen + 1;
      h.sorted <- None
    end
  end

(* Latency sample with forensic back-pointers: in addition to the
   reservoir, record (time, span) into the histogram's exemplar table so
   a p99 in a dump can name the one trace that caused it. *)
let observe_ex h ~time ?span v =
  observe h v;
  Exemplar.observe h.ex ~time ?span v

let h_count h = h.n
let h_sum h = h.sum
let h_mean h = if h.n = 0 then 0.0 else h.sum /. float_of_int h.n
let h_retained h = h.klen
let h_exemplars h = h.ex

let sorted_samples h =
  match h.sorted with
  | Some a -> a
  | None ->
      let a = Array.sub h.kept 0 h.klen in
      Array.sort compare a;
      h.sorted <- Some a;
      a

let h_percentile h p =
  if h.n = 0 then invalid_arg "Metrics.h_percentile: empty";
  if p < 0.0 || p > 100.0 then
    invalid_arg "Metrics.h_percentile: p out of range";
  let a = sorted_samples h in
  let n = Array.length a in
  if n = 1 then a.(0)
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let frac = rank -. float_of_int lo in
    if lo >= n - 1 then a.(n - 1)
    else (a.(lo) *. (1.0 -. frac)) +. (a.(lo + 1) *. frac)

(* Total-function percentile: a histogram that only ever saw shed
   (never-latency-recorded) traffic has an empty reservoir, and the
   caller gets [None] instead of a phantom value or a raise. *)
let h_percentile_opt h p =
  if h.n = 0 || h.klen = 0 then None else Some (h_percentile h p)

let sorted_entries t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let to_json t =
  let buf = Buffer.create 256 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, inst) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf {|"%s":|} (Event.json_escape k));
      match inst with
      | Counter c -> Buffer.add_string buf (string_of_int c.c)
      | Gauge g -> Buffer.add_string buf (Printf.sprintf "%.9g" g.g)
      | Histogram h ->
          if h.n = 0 then
            Buffer.add_string buf {|{"count":0,"sum":0,"mean":0}|}
          else begin
            Buffer.add_string buf
              (Printf.sprintf
                 {|{"count":%d,"sum":%.9g,"mean":%.9g,"p50":%.9g,"p95":%.9g,"p99":%.9g,"retained":%d|}
                 h.n h.sum (h_mean h) (h_percentile h 50.0)
                 (h_percentile h 95.0) (h_percentile h 99.0) h.klen);
            if Exemplar.count h.ex > 0 then
              Buffer.add_string buf
                (Printf.sprintf {|,"exemplars":%s|} (Exemplar.to_json h.ex));
            Buffer.add_char buf '}'
          end)
    (sorted_entries t);
  Buffer.add_char buf '}';
  Buffer.contents buf

let pp fmt t =
  List.iter
    (fun (k, inst) ->
      match inst with
      | Counter c -> Format.fprintf fmt "%s = %d@." k c.c
      | Gauge g -> Format.fprintf fmt "%s = %g@." k g.g
      | Histogram h ->
          if h.n = 0 then Format.fprintf fmt "%s = (empty)@." k
          else
            Format.fprintf fmt "%s = n=%d mean=%g p95=%g@." k h.n (h_mean h)
              (h_percentile h 95.0))
    (sorted_entries t)
