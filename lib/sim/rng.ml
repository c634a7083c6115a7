type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 r =
  r.state <- Int64.add r.state golden_gamma;
  mix64 r.state

let split r = { state = bits64 r }

let int r bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free modulo is fine here: bounds are tiny relative to 2^62. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 r) 2) in
  v mod bound

let float r =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 r) 11) in
  v *. 0x1p-53

let uniform r a b = a +. ((b -. a) *. float r)
let bool r p = float r < p

let exponential r mean =
  let u = float r in
  -.mean *. log1p (-.u)

let weighted r choices =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 choices in
  if total <= 0.0 then invalid_arg "Rng.weighted: weights must sum to a positive value";
  let x = float r *. total in
  let rec go acc = function
    | [] -> invalid_arg "Rng.weighted: empty choice list"
    | [ (_, v) ] -> v
    | (w, v) :: rest -> if x < acc +. w then v else go (acc +. w) rest
  in
  go 0.0 choices
