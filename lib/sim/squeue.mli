(** Unbounded blocking FIFO queue between simulation processes. *)

type 'a t

val create : unit -> 'a t

val put : 'a t -> 'a -> unit
(** Enqueue; never blocks. Wakes one blocked {!get}ter. *)

val get : 'a t -> 'a
(** Dequeue, blocking the calling process while empty. Competing
    getters are served in arrival order. *)

val length : 'a t -> int
val iter : ('a -> unit) -> 'a t -> unit
(** Iterate over queued (not yet consumed) items, oldest first. *)
