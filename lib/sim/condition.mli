(** Condition variable for simulation processes.

    Unlike POSIX condition variables there is no associated mutex:
    simulation processes never run concurrently within an instant, so
    the usual lost-wakeup race cannot occur between testing a predicate
    and calling {!wait}. The idiomatic use is still a re-check loop:
    [while not (pred ()) do Condition.wait c done]. *)

type t

val create : unit -> t

val wait : t -> unit
(** Park the calling process ({!Engine.park}) until {!signal} or
    {!broadcast}. *)

val wait_timeout : Engine.t -> t -> Time.t -> bool
(** [wait_timeout eng c d] parks for at most [d]; returns [true] if
    signalled, [false] on timeout. The waiter's record says which: a
    signal cancels the timer, a timeout leaves the record dead in the
    queue for signals to skip. A signal and a timeout at the same
    instant resolves in favour of whichever event was scheduled
    first. *)

val signal : t -> unit
(** Wake the longest-waiting process, if any. *)

val broadcast : t -> unit
(** Wake every waiting process. *)

