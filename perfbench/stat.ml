(* Growable float sample buffers and the summaries the benchmark reports. *)

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 256 0.; n = 0 }

let add t x =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0. in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n
let get t i = t.a.(i)

let sum t =
  let s = ref 0. in
  for i = 0 to t.n - 1 do
    s := !s +. t.a.(i)
  done;
  !s

let mean t = if t.n = 0 then 0. else sum t /. float_of_int t.n

(* Interpolated (type-7) percentile, the estimator bench/bench_util.ml
   uses too; 0 on an empty sample. *)
let percentile_of_sorted a p =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = Float.min (float_of_int (n - 1)) (p *. float_of_int (n - 1)) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. Float.floor rank in
    ((1. -. frac) *. a.(lo)) +. (frac *. a.(hi))

let sorted t =
  let b = Array.sub t.a 0 t.n in
  Array.sort Float.compare b;
  b

let percentile t p = percentile_of_sorted (sorted t) p

let median_of_list l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  percentile_of_sorted a 0.5

(* Sum of [v.(i)] over events whose stamp [e.(i)] lies in [lo, hi]. *)
let sum_within ~stamps ~lo ~hi v =
  let s = ref 0. in
  for i = 0 to stamps.n - 1 do
    let e = stamps.a.(i) in
    if e >= lo && e <= hi then s := !s +. v.a.(i)
  done;
  !s

let count_within ~stamps ~lo ~hi =
  let c = ref 0 in
  for i = 0 to stamps.n - 1 do
    let e = stamps.a.(i) in
    if e >= lo && e <= hi then incr c
  done;
  !c

(* The values [v.(i)] of events stamped within [lo, hi]. *)
let within ~stamps ~lo ~hi v =
  let r = create () in
  for i = 0 to stamps.n - 1 do
    let e = stamps.a.(i) in
    if e >= lo && e <= hi then add r v.a.(i)
  done;
  r

(* Piecewise-linear reading of a sampled counter ([ts] ascending) at [t],
   clamped to the first/last sample. *)
let interpolate ~ts ~vs t =
  let n = ts.n in
  if n = 0 then 0.
  else if t <= ts.a.(0) then vs.a.(0)
  else if t >= ts.a.(n - 1) then vs.a.(n - 1)
  else begin
    let i = ref 1 in
    while ts.a.(!i) < t do
      incr i
    done;
    let t0 = ts.a.(!i - 1) and t1 = ts.a.(!i) in
    let v0 = vs.a.(!i - 1) and v1 = vs.a.(!i) in
    if t1 <= t0 then v1 else v0 +. ((v1 -. v0) *. (t -. t0) /. (t1 -. t0))
  end
