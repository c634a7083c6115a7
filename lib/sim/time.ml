type t = int

let zero = 0
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let sec n = n * 1_000_000_000
let of_sec_f s = int_of_float (Float.round (s *. 1e9))
let of_us_f u = int_of_float (Float.round (u *. 1e3))
let of_ms_f m = int_of_float (Float.round (m *. 1e6))
let to_sec_f t = float_of_int t /. 1e9
let to_ms_f t = float_of_int t /. 1e6
let to_us_f t = float_of_int t /. 1e3
