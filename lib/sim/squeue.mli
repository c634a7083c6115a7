(** Unbounded blocking FIFO queue between simulation processes. *)

type 'a t

val create : unit -> 'a t

val put : 'a t -> 'a -> unit
(** Enqueue; never blocks. If a {!get}ter is waiting, the value goes to
    the longest-waiting one instead, which is unparked: the value never
    shows in {!length} or {!iter}, and a [get] issued later in the same
    instant cannot take it. *)

val get : 'a t -> 'a
(** Dequeue, parking the calling process ({!Engine.park}) while empty.
    Competing getters are served in arrival order. A hand-off
    allocates the queue cells for the waiting getter and its value and
    the getter's continuation, and no closure. *)

val length : 'a t -> int
val iter : ('a -> unit) -> 'a t -> unit
(** Iterate over queued (not yet consumed) items, oldest first. *)
