(** Counting semaphore with FIFO wakeups. *)

type t

val create : ?name:string -> int -> t
(** [create n] has [n] initial permits; [n >= 0]. *)

val acquire : t -> unit
(** Take one permit, blocking while none are available. *)

val try_acquire : t -> bool

val release : t -> unit
(** Return one permit, waking the longest-waiting acquirer if any. *)

