(** Discrete-event simulation engine with lightweight processes.

    The engine maintains a virtual clock and an event queue. Processes
    are ordinary OCaml functions run on top of effect handlers: inside
    a process, {!delay} suspends it for a span of virtual time and
    {!park} parks it until some other party {!unpark}s it. Events
    scheduled for the same instant run in schedule order, so a whole
    simulation is deterministic.

    A process is a record ({!proc}) that {!spawn} allocates once. A
    wait queues that record's own run event and keeps the process's
    continuation in it, so a switch ({!delay}, {!yield}, {!park} then
    {!unpark}) allocates only the continuation the runtime captures:
    two words on OCaml 5.1. A primitive that needs a value or a reason
    to go with a wake-up keeps it in its own structures, next to the
    queued {!proc}.

    {!self}, {!park}, {!delay}, {!suspend} and {!yield} may only be
    called from inside a process started with {!spawn} (directly or
    transitively); calling them elsewhere raises {!Not_in_process}.
    A {!schedule} or {!timer} callback is not a process: inside one
    {!self} raises and {!self_name} is ["?"]. *)

type t
(** A simulation world: clock plus pending events. *)

exception Not_in_process
(** Raised when a blocking primitive is used outside of {!spawn}. *)

type proc
(** A process: its name, its engine and, while it waits, its
    continuation and queue state. *)

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
(** [cancel tm] takes the timer out of the event queue at once
    (O(log n) in queued events) and returns [true]: its callback never
    runs, and it is neither counted by {!events_processed} nor able to
    move the clock. Returns [false], and changes nothing, if the timer
    already fired or was already cancelled. *)

val run : ?until:Time.t -> t -> unit
(** [run t] executes events until the queue is empty, or until the
    clock would pass [until] (events at exactly [until] are executed,
    and the clock is left at [until]). Without [until] the clock is
    left at the instant of the last event executed; a timer cancelled
    before its instant is not an event, so it cannot carry the clock
    past that. Can be called repeatedly to resume a paused simulation.
    However it returns, normally or by an exception escaping a
    process, {!self_name} is ["?"] afterwards. *)

val suspended_count : t -> int
(** Number of processes currently parked in {!park}, {!suspend} or
    {!delay}, counted until their run event executes; useful to detect
    deadlocks in tests. *)

val events_processed : t -> int
(** Total events executed by {!run} over this world's lifetime; a
    cancelled timer is never executed, so it is not counted. Divided
    by wall-clock elapsed time it yields the events/sec figure the
    bench suite tracks; it never affects simulation behaviour. *)

(** {1 Inside a process} *)

val delay : Time.t -> unit
(** Suspend the calling process for the given virtual duration. *)

val self : unit -> proc
(** The calling process, to hand to whoever will {!unpark} it. *)

val park : unit -> unit
(** Park the calling process until some party calls {!unpark} on it.
    If it was unparked already (for instance by a wake-up registered
    just before parking), its run event is queued and [park] returns
    when that event executes. *)

val unpark : proc -> unit
(** [unpark p] queues [p]'s run event at the current instant, behind
    the events already queued for this instant, exactly where a
    callback scheduled now would go; [p] resumes from {!park} when it
    executes. May be called from a process or a callback. Raises
    [Invalid_argument] if [p]'s run event is already queued (unparked
    twice, or inside {!delay} or {!yield}). *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend register] calls [register wake] and parks the calling
    process. Whoever calls [wake v] (exactly once) resumes the process
    at the instant of the call, with [suspend] returning [v]; a [wake]
    from inside [register] queues the process there and then. Waking
    the same suspension twice raises [Invalid_argument]. Built on
    {!park} and {!unpark}; it allocates the wake closure and a slot for
    the value, which the primitives in this library avoid. *)

val yield : unit -> unit
(** Re-queue the calling process behind other events at this instant. *)

val self_name : unit -> string
(** Name of the calling process ("?" outside of one, including inside
    a callback). *)

val yield_primitives : (string * string * [ `Park | `Delay ]) list
(** The canonical list of blocking primitives, as (module, function,
    class) triples. [`Park] is an open-ended wait for another party
    ({!park}, {!suspend}); [`Delay] completes after a bounded span of
    virtual time ({!delay}, {!yield}). The nfsrace static analysis
    seeds its transitive may-yield inference from this list, so a new
    primitive added here is picked up by the checker without touching
    it. *)
