(** Deterministic disk fault injector.

    {!wrap} interposes on any {!Nfsg_disk.Device.t} — a raw disk, a
    stripe member, or the platter {e underneath} an NVRAM front (so the
    background flusher feels the faults too). Only the timed I/O path
    ([submit], and therefore the [read]/[write] shims over it) is
    guarded, per request: a faulted request is answered by the injector
    and never reaches the device, and a failure ahead of a barrier in a
    batch fails the barrier's dependents too (see {!Nfsg_disk.Io}).
    [flush], [crash]/[recover] and the instantaneous
    [stable_read]/[stable_write] test hooks pass through untouched, so
    recovery and assertions always see the truth, and so do the pages
    [stable_page] lends.

    The one exception is {!fail_stop}: it models the spindle being
    {e gone} — every request errors immediately, the stable paths
    raise and [stable_page] lends nothing — where the transient arms model a disk that is still
    a disk. Fail-stop is what a redundant array ({!Nfsg_disk.Stripe})
    is built to survive; {!revive} models plugging in a replacement
    (whose stale contents the array must then {!Nfsg_disk.Stripe.rebuild}).

    Three fault shapes, all driven by the simulation clock and a seeded
    RNG so a fault schedule replays bit-for-bit from the same seed:

    - {b transient errors}: {!fail_next} deterministically fails the
      next n transactions; {!error_window} fails each transaction in a
      time window with fixed probability. A failed transaction raises
      {!Nfsg_disk.Device.Io_error} in the calling process and performs
      no I/O.
    - {b degraded spindle}: {!slowdown_window} stretches each
      transaction's service time by a factor (the extra time is added
      after the real transaction completes).
    - {b hung requests}: {!hang_window} holds any transaction issued
      inside the window until the window closes — a controller reset,
      from the caller's point of view. *)

type t

val wrap : Nfsg_sim.Engine.t -> ?seed:int -> Nfsg_disk.Device.t -> t * Nfsg_disk.Device.t
(** [wrap eng dev] is [(injector, faulty_dev)]. [faulty_dev] behaves
    exactly like [dev] until faults are armed on [injector]. *)

(** {1 Arming faults} *)

val fail_next : ?n:int -> t -> unit
(** Fail the next [n] (default 1) read/write transactions with
    [Io_error]. Cumulative with pending arms. *)

val error_window : t -> from_:Nfsg_sim.Time.t -> until:Nfsg_sim.Time.t -> prob:float -> unit
(** During [\[from_, until)], each transaction fails independently with
    probability [prob]. Windows may overlap; the first (most recently
    armed) matching window decides. *)

val slowdown_window :
  t -> from_:Nfsg_sim.Time.t -> until:Nfsg_sim.Time.t -> factor:float -> unit
(** Transactions {e starting} inside the window take [factor] times
    their normal service time ([factor >= 1]). *)

val hang_window : t -> from_:Nfsg_sim.Time.t -> until:Nfsg_sim.Time.t -> unit
(** Transactions issued inside the window block until [until], then
    proceed normally. *)

val fail_stop : t -> unit
(** Whole-spindle loss, effective immediately and until {!revive}:
    every submitted request fails with [Io_error], the stable paths
    raise and no page is lent. Distinct from the transient windows, which never guard
    stable ops. Idempotent while already stopped. *)

val revive : t -> unit
(** The replacement disk is in the cage: requests flow again. Platter
    contents are whatever the device held — stale until rebuilt. *)

val is_failed : t -> bool

val clear : t -> unit
(** Disarm everything: pending [fail_next] counts and all windows.
    Does not revive a fail-stopped spindle. *)

(** {1 Statistics} *)

val errors_injected : t -> int
val slowdowns : t -> int
val hangs : t -> int

val fail_stops : t -> int
(** Number of {!fail_stop} transitions (re-stopping while already
    stopped does not count). *)
