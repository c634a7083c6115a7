(** Array-based binary min-heap used as the simulator event queue.

    Entries are ordered by an integer key with an integer sequence
    number as tie-breaker, so two entries with equal keys pop in
    insertion order. This FIFO tie-break is what makes simultaneous
    simulation events deterministic.

    Reordering the heap moves only ints: a payload is stored once when
    it is added and dropped when its entry leaves, so the heap keeps no
    popped or removed payload alive. Any entry can be removed early
    through the handle {!add} returned for it. *)

type 'a t

type handle
(** Names one entry of the heap that issued it. Once the entry has left
    the heap (popped or removed) the handle is stale: it never names
    another entry, even one that later reuses the same storage. *)

val create : dummy:'a -> 'a t
(** [create ~dummy] is an empty heap. [dummy] fills the storage of
    absent entries and is never returned. *)

val size : 'a t -> int
(** Number of entries currently in the heap. *)

val is_empty : 'a t -> bool

val add : 'a t -> key:int -> seq:int -> 'a -> handle
(** [add h ~key ~seq v] inserts [v] with priority [(key, seq)] and
    returns the entry's handle. O(log n); allocation-free except when
    the heap outgrows its capacity. *)

val remove : 'a t -> handle -> bool
(** [remove h hd] deletes the entry [hd] names and returns [true], or
    returns [false] and changes nothing when [hd] is stale. O(log n),
    allocation-free. *)

val pop : 'a t -> (int * int * 'a) option
(** [pop h] removes and returns the minimum entry as
    [(key, seq, value)], or [None] if the heap is empty. *)

val min_key : 'a t -> int
(** [min_key h] is the key of the minimum entry without removing it.
    Allocation-free. Raises [Invalid_argument] on an empty heap. *)

val pop_min : 'a t -> 'a
(** [pop_min h] removes the minimum entry and returns its value alone.
    Allocation-free. Raises [Invalid_argument] on an empty heap. *)

val clear : 'a t -> unit
(** Remove every entry, making every handle stale. Costs O(current
    size), not O(capacity). *)
