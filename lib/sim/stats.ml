type t = {
  mutable samples : float list;
  mutable sorted : float array option; (* cache, invalidated by add *)
  mutable n : int;
  mutable sum : float;
  mutable sumsq : float;
  mutable lo : float;
  mutable hi : float;
}

let create () =
  { samples = []; sorted = None; n = 0; sum = 0.0; sumsq = 0.0; lo = infinity; hi = neg_infinity }

let add t x =
  t.samples <- x :: t.samples;
  t.sorted <- None;
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  t.sumsq <- t.sumsq +. (x *. x);
  if x < t.lo then t.lo <- x;
  if x > t.hi then t.hi <- x

let count t = t.n
let total t = t.sum
let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

let stddev t =
  if t.n < 2 then 0.0
  else
    let m = mean t in
    let var = (t.sumsq -. (float_of_int t.n *. m *. m)) /. float_of_int (t.n - 1) in
    sqrt (Float.max 0.0 var)

let min t =
  if t.n = 0 then invalid_arg "Stats.min: empty";
  t.lo

let max t =
  if t.n = 0 then invalid_arg "Stats.max: empty";
  t.hi

let sorted t =
  match t.sorted with
  | Some a -> a
  | None ->
      let a = Array.of_list t.samples in
      Array.sort Float.compare a;
      t.sorted <- Some a;
      a

let percentile t p =
  if t.n = 0 then invalid_arg "Stats.percentile: empty";
  let a = sorted t in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) in
  let idx = Stdlib.max 0 (Stdlib.min (t.n - 1) (rank - 1)) in
  a.(idx)

let percentile_linear t p =
  if t.n = 0 then invalid_arg "Stats.percentile_linear: empty";
  if p < 0.0 || p > 100.0 then
    invalid_arg "Stats.percentile_linear: p out of range";
  let a = sorted t in
  if t.n = 1 then a.(0)
  else
    let rank = p /. 100.0 *. float_of_int (t.n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let frac = rank -. float_of_int lo in
    if lo >= t.n - 1 then a.(t.n - 1)
    else (a.(lo) *. (1.0 -. frac)) +. (a.(lo + 1) *. frac)

let median t = percentile t 50.0

module Histogram = struct
  type h = { lo : float; hi : float; buckets : int; counts : int array }

  let create ~lo ~hi ~buckets =
    if buckets <= 0 || hi <= lo then invalid_arg "Histogram.create";
    { lo; hi; buckets; counts = Array.make (buckets + 2) 0 }

  let add h x =
    let idx =
      if x < h.lo then 0
      else if x >= h.hi then h.buckets + 1
      else
        let w = (h.hi -. h.lo) /. float_of_int h.buckets in
        1 + int_of_float ((x -. h.lo) /. w)
    in
    h.counts.(idx) <- h.counts.(idx) + 1

  let counts h = Array.copy h.counts

  let pp fmt h =
    let w = (h.hi -. h.lo) /. float_of_int h.buckets in
    let peak = Array.fold_left Stdlib.max 1 h.counts in
    Format.fprintf fmt "underflow: %d@." h.counts.(0);
    for i = 1 to h.buckets do
      let lo = h.lo +. (float_of_int (i - 1) *. w) in
      let bar = String.make (h.counts.(i) * 40 / peak) '#' in
      Format.fprintf fmt "[%8.2f,%8.2f) %6d %s@." lo (lo +. w) h.counts.(i) bar
    done;
    Format.fprintf fmt "overflow: %d@." h.counts.(h.buckets + 1)
end
