(** Block buffer cache over a {!Nfsg_disk.Device}.

    Caches whole filesystem blocks. Reads miss through to the device
    (costing simulated time); writes are {e delayed} — the dirty-in-core
    state the paper's IO_DELAYDATA flag creates — until the filesystem
    gathers them with {!prepare} and submits the clusters itself,
    in few large transactions ([MCVO91]-style clustering). That is how
    every write path of {!Fs} reaches the device: VOP_WRITE's
    synchronous modes and VOP_SYNCDATA ({!Fs.syncdata}) as gathered
    clusters, VOP_FSYNC(FWRITE_METADATA) ({!Fs.fsync_metadata}) as
    the one metadata commit.

    Buffers returned by {!get} and {!peek} are the cache's own, for
    reading: every change to a block goes through {!modify}, which
    marks it dirty. A cluster write carries the blocks' own buffers,
    not copies; a block stays {e busy} until its request completes,
    and {!modify} changes a busy block in a private copy, so the
    request writes exactly the bytes it was submitted with. The whole
    cache is volatile: {!crash} drops everything.

    {b Lent pages.} A clean block holds the device's own page of
    stable storage ([Nfsg_disk.Device.stable_page]) instead of a
    private copy, whenever the device lends a page of the block's size.
    The cache learns that a block matches stable storage in three
    places, and takes the page in each: a write of the block completes
    without error while the block still holds the buffer written; a
    demand read fills the block; read-ahead installs it. So does
    {!install}. In each place it takes the page only if the page holds
    the block's bytes and no write of the block is left to complete:
    the device may land two writes of one block in either order (an
    elevator, a barrier), and a block that left the cache, evicted or
    dropped, may still have one in flight. The rule that keeps this
    invisible:

    - A lent page is stable storage. The cache reads it and never
      writes into it.
    - Its bytes change only when a write of its range lands on the
      device. No write of the block is outstanding when the cache
      takes the page, and the cache issues a later one only from a
      private copy: {!modify} copies a lent page before it changes it,
      as it copies a busy block, and so does {!await_prepared} before
      it dirties a block again.
    - So a lent page read through {!get} behaves like the private clean
      copy it replaces.

    A device that lends nothing (NVRAM, a stripe set) leaves every
    block in a private buffer.

    {b Spares.} The cache recycles its buffers, as 4.4BSD's [getnewbuf]
    hands the LRU victim's buffer to the next block. A buffer the cache
    lets go joins a stack of spares, and a spare backs the next fill
    before anything new is allocated: a demand read, a prefetch, a
    block {!modify} starts without reading, or {!modify}'s copy of a
    busy block or a lent page. Giving a buffer back allocates nothing.
    A buffer joins the spares:

    - when its block takes the device's page in its place;
    - when its block leaves the cache, evicted to make room or
      {!drop}ped because the filesystem freed it, unless a write
      request holds it (only a drop takes a busy block);
    - when the write request that holds it completes, if its block has
      left the cache meanwhile or {!modify} copied it on write;
    - when a read into it fails, or lands after another reader has
      already cached the block.

    A buffer joins the spares at most once, and never while a request
    or a cached block holds it; a lent page never does. {!crash}
    forgets the spares. So a buffer from {!get} or {!peek} is valid
    only until the caller's next cache fill or yield: a yield lets
    another process free the block and fill the cache. Copy what must
    outlive either. *)

type kind = Data | Metadata

type t

type readahead = {
  window : int;  (** blocks to keep prefetched ahead of a stream *)
  min_run : int;  (** sequential blocks before prefetch arms *)
  max_streams : int;  (** tracked streams; LRU slot recycling beyond *)
}
(** Sequential read-ahead policy, sized after the LNFS batch constants
    scaled to this simulator's block size. *)

val default_readahead : readahead
(** 16-block (128KB) window, armed after 2 sequential blocks, 64
    stream slots. *)

val create :
  Nfsg_disk.Device.t ->
  bsize:int ->
  ?max_blocks:int ->
  ?metrics:Nfsg_stats.Metrics.t ->
  ?ns:string ->
  unit ->
  t
(** [max_blocks] bounds the cache (default: unbounded); on overflow the
    least-recently-used block that is clean and not busy is evicted,
    and its buffer, unless it is a lent page, backs a later fill. Dirty blocks are pinned, exactly
    like real buffer-cache buffers awaiting write, and busy ones until
    their write completes, so a failed write can re-dirty them. An
    unbounded cache still reuses what {!drop} and copy-on-write let go.
    When [metrics] and [ns] are both given, the cache counts in that
    namespace (the per-export read plane, e.g. ["read_plane.vol2"]);
    otherwise in a private registry. The accessors below read it. *)

val enable_readahead : t -> Nfsg_sim.Engine.t -> ?config:readahead -> unit -> unit
(** Arm the sequential-detecting read-ahead engine. Prefetch batches
    are submitted asynchronously through the device's scheduler as
    [`Read]-class requests; a spawned fiber installs the filled
    buffers. Off by default: a cache without read-ahead behaves (and
    costs) exactly as before. *)

val readahead_active : t -> bool

val note_read : t -> stream:int -> fbn:int -> nblocks:int -> map:(int -> int) -> limit:int -> unit
(** Feed the read-ahead engine one demand access: [stream] identifies
    the reader (e.g. client × file), [fbn]/[nblocks] the file blocks
    being read, [map] translates a file block to its device block (0
    for a hole or a mapping that is not resident — never performs
    I/O), and [limit] is the exclusive file-block bound (EOF). When the
    access extends a sequential run past the arming threshold, the
    engine submits an async prefetch batch for the next [window] file
    blocks that are mapped, not resident and not already in flight.
    No-op unless {!enable_readahead} was called. Never blocks. *)

val get : t -> int -> Bytes.t
(** [get c b] is block [b]'s buffer, reading it from the device
    (blocking, timed) on a miss. A miss on a block with a prefetch in
    flight parks on the prefetch's completion instead of duplicating
    the device read. The buffer is valid until the caller's next cache
    fill or yield. *)

val peek : t -> int -> Bytes.t option
(** Cached buffer if present; no I/O. Valid as long as {!get}'s. *)

type fill =
  | From_disk  (** the change keeps some old bytes: a miss reads the block, like {!get} *)
  | Zeroed  (** a newly allocated block: a miss installs zeros *)
  | Overwritten  (** the change rewrites every byte: a miss installs an uninitialised buffer *)
(** What {!modify} starts from when the block is not cached. Only
    [From_disk] reads the device or counts a miss. *)

val modify : t -> int -> kind -> fill -> (Bytes.t -> unit) -> unit
(** [modify c b kind fill change] applies [change] to block [b]'s
    buffer, then marks the block dirty as a delayed write of [kind]: it
    must reach the device eventually. The one way to change a cached
    block. A hit counts and ages like {!get}. If the block is busy in a
    write request or holds a lent page, [change] runs on a copy that
    replaces it in the cache (a spare buffer, filled with the block's
    bytes unless [Overwritten]), so the request keeps the bytes it was
    submitted with, and its buffer backs a later fill once the request
    completes; a lent page stays the device's, unchanged. [change] must not block. A block
    already dirty as [Metadata] stays [Metadata] even if re-marked
    [Data]. *)

val is_dirty : t -> int -> bool

type prepared
(** A set of cluster writes whose dirty flags have been cleared, paired
    with the restore records needed to re-dirty them if a request
    fails. *)

val prepare : t -> class_:Nfsg_disk.Io.class_ -> max_cluster:int -> int list -> prepared
(** [prepare c ~class_ ~max_cluster blocks] gathers the dirty subset of
    [blocks] into device-contiguous {!Nfsg_disk.Io.write_req}s (at most
    [max_cluster] bytes each), whose gather lists are the blocks' own
    buffers, and marks the blocks clean and busy until their request
    completes. Nothing is copied and nothing is submitted: the caller
    interleaves the items from
    {!prepared_items} with barriers and other work in a single
    [Device.submit], then calls {!await_prepared}. *)

val prepared_items : prepared -> Nfsg_disk.Io.item list

val await_prepared : t -> prepared list -> unit
(** Block until every request of every prepared set completes. Blocks
    of failed requests are re-dirtied (they never reached stable
    storage, so a later sync must retry them), and keep their own
    buffers: a failed write lends no page. A block that a later write
    made clean meanwhile is dirtied in a private copy, as {!modify}
    changes one, if it holds a lent page or a buffer a request holds.
    Then the first failure is re-raised. *)

val install : t -> int -> unit
(** Seed the cache with block [b]'s stable bytes, clean, without
    simulated I/O (mount-time prewarm): the device's page when it
    lends one, else a copy from its [stable_read]. No-op if the block
    is already cached. *)

val drop : t -> int -> unit
(** Forget one block (e.g. after freeing it). Its buffer backs a later
    fill, once any write request that holds it completes. *)

val crash : t -> unit
(** Volatile: lose every buffer, spare ones included, and all dirty
    state. The counters keep their totals. *)

val hits : t -> int
val misses : t -> int
val resident : t -> int
val evictions : t -> int

(** {1 Read-ahead accounting} *)

val readahead_batches : t -> int
(** Prefetch batches submitted. *)

val readahead_blocks : t -> int
(** Blocks requested across all prefetch batches. *)

val readahead_hits : t -> int
(** Prefetched blocks later consumed by a demand read (resident or
    awaited in flight). *)

val readahead_wasted : t -> int
(** Prefetched blocks evicted/dropped unconsumed, or whose demand read
    raced ahead of the prefetch completion. *)

val is_prefetched : t -> int -> bool
(** Resident, installed by read-ahead, and not yet consumed. *)
