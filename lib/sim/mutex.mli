(** Sleep lock (the "vnode sleep lock" of the paper, section 6.2).

    A FIFO mutex for simulation processes: contenders are granted the
    lock in arrival order. The holder is tracked so misuse (unlocking a
    mutex one does not hold) fails loudly. *)

type t

val create : ?name:string -> unit -> t

val lock : t -> unit
(** Park ({!Engine.park}) until the lock is acquired. Not reentrant: a
    process locking a mutex it holds deadlocks, as in a kernel. *)

val try_lock : t -> bool
(** Acquire without blocking; [true] on success. *)

val unlock : t -> unit
(** Release and hand the lock to the longest-waiting contender, which
    is unparked. Raises [Invalid_argument] if the calling process is not
    the holder; a callback is no process (its {!Engine.self_name} is
    ["?"]), so it cannot unlock a mutex a process holds. *)

val with_lock : t -> (unit -> 'a) -> 'a
(** [with_lock m f] runs [f] holding [m], releasing on any exit. *)

val locked : t -> bool
