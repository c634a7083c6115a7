(** Byte-extent map: sparse, ordered collection of non-overlapping,
    non-adjacent byte ranges carrying data.

    Used for the NVRAM dirty map (Prestoserve) and anywhere a sparse
    overlay over a flat device is needed. Inserting an extent
    overwrites any overlapped bytes and coalesces with adjacent
    extents, so a sequential stream of 8 KB writes collapses into one
    big extent — which is exactly what makes the flusher's clustering
    work.

    The cost is linear in the bytes written. An extent is a list of
    slices of the buffers the map copied on {!insert}, never changed
    afterwards: a merge or a trim slices its neighbours instead of
    copying them, and only {!take_after} and {!iter} join an extent's
    slices into one buffer. *)

type t

val create : unit -> t
val is_empty : t -> bool

val total_bytes : t -> int
(** Sum of extent lengths, kept as a count. *)

val insert : t -> off:int -> Bytes.t -> unit
(** [insert m ~off data] writes [data] at byte offset [off],
    overwriting overlaps and merging with adjacent extents. The map
    copies [data]; the caller keeps ownership of its buffer. Empty
    [data] is a no-op. *)

val apply : t -> off:int -> Bytes.t -> unit
(** [apply m ~off buf] overlays onto [buf] (representing device bytes
    starting at [off]) every stored byte in range. *)

val covers : t -> off:int -> len:int -> bool
(** Whether every byte of [off, off+len) is present in the map. *)

val take_after : t -> off:int -> max:int -> (int * Bytes.t) option
(** Remove and return (a prefix of at most [max] bytes of) the first
    extent at or above [off], wrapping to the lowest — an elevator
    sweep, so a hot extent at a low offset cannot monopolise the drain.
    This is the flusher's unit of clustering: one contiguous run per
    call. Only the bytes taken are joined into a new buffer; what is
    left of the extent stays in the map as slices. *)

val remove_range : t -> off:int -> len:int -> unit
(** Delete any stored bytes within the range, trimming partial
    overlaps. *)

val iter : (int -> Bytes.t -> unit) -> t -> unit
(** Iterate extents in offset order, each joined into a new buffer. Do
    not mutate the map during iteration. *)
