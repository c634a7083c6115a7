(** Timeline event recorder, used to regenerate the paper's Figure 1
    (packet/disk activity of a standard vs a gathering server).

    Storage is a fixed-capacity ring buffer: once full, each new event
    overwrites the oldest, so arbitrarily long traced runs hold memory
    constant. *)

type t

val create : ?capacity:int -> Nfsg_sim.Engine.t -> t
(** [capacity] bounds retained events (default 4096); must be
    positive. Untraced code passes no recorder at all. *)

val capacity : t -> int

val dropped : t -> int
(** Events overwritten since creation (or the last {!clear}). *)

val emit : t -> actor:string -> string -> unit
(** Record an event for [actor] at the current virtual time. *)

val events : t -> (Nfsg_sim.Time.t * string * string) list
(** The retained (newest [capacity]) events, oldest first. *)

val render : t -> string
(** Text timeline: one line per event, ["  t=+12.34ms  actor  event"],
    with time relative to the first retained event; notes dropped
    events when the ring has wrapped. *)

val clear : t -> unit
