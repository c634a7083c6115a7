(** Counting semaphore with FIFO wakeups. *)

type t

val create : ?name:string -> int -> t
(** [create n] has [n] initial permits; [n >= 0]. *)

val acquire : t -> unit
(** Take one permit, parking ({!Engine.park}) while none are
    available. *)

val try_acquire : t -> bool

val release : t -> unit
(** Return one permit, or hand it to the longest-waiting acquirer and
    unpark it. *)

