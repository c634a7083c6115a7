(** Discrete-event simulation engine with lightweight processes.

    The engine maintains a virtual clock and an event queue. Processes
    are ordinary OCaml functions run on top of effect handlers: inside
    a process, {!delay} suspends it for a span of virtual time and
    {!suspend} parks it until some other party wakes it. Events
    scheduled for the same instant run in schedule order, so a whole
    simulation is deterministic.

    {!delay}, {!suspend} and {!yield} may only be called from inside a
    process started with {!spawn} (directly or transitively); calling
    them elsewhere raises {!Not_in_process}. *)

type t
(** A simulation world: clock plus pending events. *)

exception Not_in_process
(** Raised when a blocking primitive is used outside of {!spawn}. *)

val create : unit -> t
(** A fresh world with the clock at {!Time.zero} and no events. *)

val now : t -> Time.t
(** Current virtual time. *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** [spawn t f] creates a process that starts running at the current
    instant (after already-queued events for this instant). An
    exception escaping [f] aborts the whole simulation: it propagates
    out of {!run}. *)

val schedule : t -> after:Time.t -> (unit -> unit) -> unit
(** [schedule t ~after f] runs callback [f] (not a process; it must not
    block) [after] nanoseconds from now. *)

type timer

val timer : t -> after:Time.t -> (unit -> unit) -> timer
(** Like {!schedule} but cancellable. *)

val cancel : timer -> bool
(** [cancel tm] prevents the timer from firing. Returns [false] if it
    already fired (or was already cancelled). *)

val run : ?until:Time.t -> t -> unit
(** [run t] executes events until the queue is empty, or until the
    clock would pass [until] (events at exactly [until] are executed,
    and the clock is left at [until]). Can be called repeatedly to
    resume a paused simulation. However it returns, normally or by an
    exception escaping a process, {!self_name} is ["?"] afterwards. *)

val suspended_count : t -> int
(** Number of processes currently parked in {!suspend} or {!delay};
    useful to detect deadlocks in tests. *)

val events_processed : t -> int
(** Total events executed by {!run} over this world's lifetime.
    Divided by wall-clock elapsed time it yields the events/sec
    figure the bench suite tracks; it never affects simulation
    behaviour. *)

(** {1 Inside a process} *)

val delay : Time.t -> unit
(** Suspend the calling process for the given virtual duration. *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend register] parks the calling process and calls
    [register wake]. Whoever calls [wake v] (exactly once) resumes the
    process at the instant of the call, with [suspend] returning [v].
    Waking the same suspension twice raises [Invalid_argument]. *)

val yield : unit -> unit
(** Re-queue the calling process behind other events at this instant. *)

val self_name : unit -> string
(** Name of the calling process ("?" outside of one). *)

val yield_primitives : (string * string * [ `Park | `Delay ]) list
(** The canonical list of blocking primitives, as (module, function,
    class) triples. [`Park] is an open-ended wait for another party
    ({!suspend}); [`Delay] completes after a bounded span of virtual
    time ({!delay}, {!yield}). The nfsrace static analysis seeds its
    transitive may-yield inference from this list, so a new primitive
    added here is picked up by the checker without touching it. *)
