(** A bounded flight recorder of typed items: each layer that keeps a
    timeline records its own item type, stamped with the virtual
    instant and the actor (process) that recorded it. The write layer's
    ring is the paper's Figure 1 for any run; the journey plane's is
    its long-op dump.

    Storage is a fixed-capacity ring: once full, each new item
    overwrites the oldest, so arbitrarily long runs hold memory
    constant. The slots are allocated by the first {!record}, and
    instants, actors and items live in parallel arrays, so a recorder
    that never records costs no slots and a record allocates nothing
    beyond its item. *)

type 'a t

val create : Nfsg_sim.Engine.t -> capacity:int -> dummy:'a -> 'a t
(** An empty recorder that keeps the newest [capacity] items; the
    capacity must be positive. [dummy] fills the slots no record has
    reached and is never returned. Make it an immediate (a constant
    constructor) or a value made well before the first record: making
    the slots from a young value forces a minor collection. *)

val record : 'a t -> actor:string -> 'a -> unit
(** Keep an item for [actor] at the current virtual time, overwriting
    the oldest once the ring is full. *)

val events : 'a t -> (Nfsg_sim.Time.t * string * 'a) list
(** The retained (newest [capacity]) items, oldest first. *)

val dropped : 'a t -> int
(** Items overwritten since creation. *)
