(** Simulated time.

    Time is an integer count of nanoseconds since the start of the
    simulation. Integers keep the event queue exactly ordered and make
    runs bit-for-bit reproducible; 63-bit nanoseconds cover ~292 years,
    far beyond any experiment here. *)

type t = int
(** Nanoseconds. *)

val zero : t

val ns : int -> t
(** [ns n] is [n] nanoseconds. *)

val us : int -> t
(** [us n] is [n] microseconds. *)

val ms : int -> t
(** [ms n] is [n] milliseconds. *)

val sec : int -> t
(** [sec n] is [n] seconds. *)

val of_sec_f : float -> t
(** [of_sec_f s] converts a duration in (possibly fractional) seconds,
    rounding to the nearest nanosecond. *)

val of_us_f : float -> t
(** [of_us_f u] converts fractional microseconds. *)

val of_ms_f : float -> t
(** [of_ms_f m] converts fractional milliseconds. *)

val to_sec_f : t -> float
(** [to_sec_f t] is [t] expressed in seconds. *)

val to_ms_f : t -> float
(** [to_ms_f t] is [t] expressed in milliseconds. *)

val to_us_f : t -> float
(** [to_us_f t] is [t] expressed in microseconds. *)
