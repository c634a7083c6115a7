(** Write-once synchronisation variable ("promise").

    Processes block in {!read} until some party calls {!fill}. Used for
    request/response rendezvous (e.g. an RPC reply) and as a join point
    for spawned processes. *)

type 'a t

val create : unit -> 'a t

val fill : 'a t -> 'a -> unit
(** [fill iv v] resolves the ivar, unparks its readers and runs its
    {!upon} callbacks, all in the order they arrived: a reader's wake is
    queued at this instant, a callback runs at once. Raises
    [Invalid_argument] if already filled. *)

val read : 'a t -> 'a
(** Parks the calling process ({!Engine.park}) until filled, then reads
    the value from the ivar; returns immediately if already filled. *)

val upon : 'a t -> ('a -> unit) -> unit
(** [upon iv f] runs [f v] when the ivar is filled with [v] —
    immediately if it already is. Unlike {!read} this does not block
    and may be called outside a process; [f] runs in whatever context
    calls {!fill} and must not block. Completion chaining for device
    request pipelines ({!Nfsg_disk.Io}) without spawning a process per
    link. *)

val is_filled : 'a t -> bool
