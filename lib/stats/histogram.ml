(* The running total sits in a record of its own: a float field in a
   record of floats is stored flat, so [add] updates it without boxing
   a fresh float per sample. *)
type sum = { mutable total : float }

type t = { least : float; growth : float; counts : int array; mutable n : int; sum : sum }

let create ?(least = 1.0) ?(growth = 1.25) ?(buckets = 128) () =
  if least <= 0.0 then invalid_arg "Histogram.create: least must be positive";
  if growth <= 1.0 then invalid_arg "Histogram.create: growth must exceed 1";
  if buckets < 2 then invalid_arg "Histogram.create: need at least 2 buckets";
  { least; growth; counts = Array.make buckets 0; n = 0; sum = { total = 0.0 } }

let bucket_of h x =
  if x < h.least then 0
  else
    let i = 1 + int_of_float (log (x /. h.least) /. log h.growth) in
    Stdlib.min i (Array.length h.counts - 1)

let upper_edge h i = if i = 0 then h.least else h.least *. (h.growth ** float_of_int i)
let lower_edge h i = if i = 0 then 0.0 else h.least *. (h.growth ** float_of_int (i - 1))

(* Representative value of a bucket: the geometric midpoint of its
   edges, which splits the bucket's relative error evenly — the upper
   edge overstates by up to [growth - 1]. The underflow bucket [0,
   least) has no geometric midpoint (its lower edge is 0); its
   arithmetic midpoint stands in. *)
let midpoint h i =
  if i = 0 then h.least /. 2.0 else sqrt (lower_edge h i *. upper_edge h i)

let add h x =
  let i = bucket_of h x in
  h.counts.(i) <- h.counts.(i) + 1;
  h.n <- h.n + 1;
  h.sum.total <- h.sum.total +. x

let count h = h.n
let total h = h.sum.total
let mean h = if h.n = 0 then 0.0 else h.sum.total /. float_of_int h.n

let quantile h q =
  if h.n = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    (* q = 1.0 must land on the last sample, not past it. *)
    let target =
      Stdlib.min (h.n - 1) (int_of_float (Float.round (q *. float_of_int (h.n - 1))))
    in
    let seen = ref 0 and result = ref (midpoint h (Array.length h.counts - 1)) in
    (try
       Array.iteri
         (fun i c ->
           seen := !seen + c;
           if !seen > target then begin
             result := midpoint h i;
             raise Exit
           end)
         h.counts
     with Exit -> ());
    !result
  end

let median h = quantile h 0.5
let p99 h = quantile h 0.99

let buckets h =
  let acc = ref [] in
  for i = Array.length h.counts - 1 downto 0 do
    if h.counts.(i) > 0 then acc := (lower_edge h i, upper_edge h i, h.counts.(i)) :: !acc
  done;
  !acc

let copy h = { h with counts = Array.copy h.counts; sum = { total = h.sum.total } }

let merge_into ~into src =
  if
    into.least <> src.least || into.growth <> src.growth
    || Array.length into.counts <> Array.length src.counts
  then invalid_arg "Histogram.merge_into: shape mismatch";
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
  into.n <- into.n + src.n;
  into.sum.total <- into.sum.total +. src.sum.total

let reset h =
  Array.fill h.counts 0 (Array.length h.counts) 0;
  h.n <- 0;
  h.sum.total <- 0.0
