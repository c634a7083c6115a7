(* Exact per-op samples and the percentiles computed from them.

   The registry's log-bucketed histograms step about 25% per bucket, so
   a real 10% latency change can hide inside one bucket. The benchmark
   keeps every sample instead and reads percentiles off the sorted
   values (nearest rank). *)

type t = { mutable data : float array; mutable n : int }

let create () = { data = Array.make 256 0.0; n = 0 }

let add t x =
  if t.n = Array.length t.data then begin
    let bigger = Array.make (2 * t.n) 0.0 in
    Array.blit t.data 0 bigger 0 t.n;
    t.data <- bigger
  end;
  t.data.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n

let sorted t =
  let a = Array.sub t.data 0 t.n in
  Array.sort Float.compare a;
  a

(* Nearest-rank index of quantile [q] among [n] sorted samples. *)
let rank n q = Stdlib.max 0 (Stdlib.min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let percentile t q = if t.n = 0 then 0.0 else (sorted t).(rank t.n q)

(* Samples strictly above the percentile's rank. A percentile is only
   worth reporting with at least ten of them. *)
let beyond t q = if t.n = 0 then 0 else t.n - 1 - rank t.n q
let resolved t q = beyond t q >= 10

let median_of = function
  | [] -> 0.0
  | l ->
      let t = create () in
      List.iter (add t) l;
      let a = sorted t in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
