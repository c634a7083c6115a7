(** Service station: a resource with [capacity] identical slots and a
    FIFO queue, with cumulative busy-time accounting.

    Models anything that serves one request at a time per slot — the
    server CPU, a disk mechanism, a network segment. Utilisation over a
    measurement window is computed by snapshotting {!busy_time} at the
    window edges. *)

type t

val create : Engine.t -> ?capacity:int -> string -> t
(** [create eng name] has capacity 1 unless overridden. *)

val use : t -> Time.t -> unit
(** [use r d] parks for a free slot (FIFO among waiters), occupies it
    for [d] of virtual time, then releases it; a release hands its slot
    straight to the longest-waiting process and unparks it. *)

val charge : t -> Time.t -> unit
(** Add to the busy-time account without holding a slot (for costs that
    are modelled as instantaneous but should count as load). *)

val busy_time : t -> Time.t
(** Cumulative busy nanoseconds across all slots since creation. *)

val jobs : t -> int
(** Number of completed {!use} calls. *)

val utilization : t -> busy0:Time.t -> t0:Time.t -> float
(** [utilization r ~busy0 ~t0] is the fraction of slot-capacity used
    since the snapshot [(busy0, t0)] taken with {!busy_time} and
    [Engine.now]. *)
