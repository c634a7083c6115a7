(** The filesystem proper: in-core inodes, block mapping with indirect
    blocks, directory operations, and the write/flush machinery the
    server write layer drives.

    All operations that may touch the device must run inside a
    simulation process; they block for the modelled I/O time.

    Consistency model (matching the paper's UFS): data blocks and
    metadata (inode, indirect, directory) are written synchronously
    where the caller asks ([`Sync]); delayed data lives in the buffer
    cache until {!syncdata}; the block bitmap is never written on the
    write path and is rebuilt fsck-style at {!mount} from reachable
    blocks. The file-modify-time-only inode update may be left dirty
    in core ([`Time_only]) — the one promise the reference port also
    breaks for performance (section 4.4).

    The server calls this module directly: there is no separate VOP
    layer. The paper's interface (section 6.4) maps onto it as
    VOP_WRITE with IO_SYNC, IO_SYNC|IO_DATAONLY or IO_DELAYDATA =
    {!write_view} with [~mode:Sync], [Sync_data_only] or [Delay_data];
    VOP_SYNCDATA = {!syncdata}; VOP_FSYNC(FWRITE_METADATA) =
    {!fsync_metadata}; the vnode sleep lock = {!lock}, {!unlock} and
    {!with_lock}. *)

type t

type inode
(** In-core inode (the vnode's private data). Holds the sleep lock the
    server layer serialises on. *)

type attr = {
  ftype : Layout.ftype;
  nlink : int;
  size : int;
  mtime : Nfsg_sim.Time.t;
  atime : Nfsg_sim.Time.t;
  ctime : Nfsg_sim.Time.t;
  inum : int;
  gen : int;
}

exception Stale of int
(** Inode number whose generation no longer matches. *)

exception Not_dir of int
exception Is_dir of int
exception Not_symlink of int
exception Exists of string

exception Not_empty of int
(** Inode number of a directory that {!rmdir} was asked to remove while
    it still has entries (maps to [NFSERR_NOTEMPTY] on the wire). *)

exception No_space
(** Re-export of {!Alloc.No_space} at this level. *)

exception File_too_big of int
(** Inode number of a file that {!write_view} or {!truncate} was asked
    to take past the size limit, {!Layout.max_file_size}; nothing was
    changed (maps to [NFSERR_FBIG] on the wire). *)

(** {1 Formatting and mounting} *)

val mkfs : Nfsg_disk.Device.t -> ?bsize:int -> ?ninodes:int -> unit -> unit
(** Write a fresh filesystem (instantaneously — formatting happens
    before the experiment starts). Defaults: 8 KiB blocks, 4096
    inodes. The root directory is inode 1. The superblock's format
    generation is one more than that of the filesystem it overwrites,
    or 1 on a device that holds none. *)

val mount :
  Nfsg_sim.Engine.t ->
  ?cache_blocks:int ->
  ?metrics:Nfsg_stats.Metrics.t ->
  ?ns:string ->
  ?readahead:Buffer_cache.readahead ->
  Nfsg_disk.Device.t ->
  t
(** Read the superblock and inode table from stable storage
    (instantaneous, "boot time"), rebuilding the block bitmap from
    reachable blocks — the fsck pass that makes the
    bitmap-is-never-synced policy safe. It lists each live inode's
    blocks with {!Layout.walk}, reading indirect blocks from stable
    storage; a pointer outside the data area is neither claimed nor
    read through, so a stray pointer cannot set a bitmap bit that
    lies in another block or make the mount fail ({!check} reports
    it). [cache_blocks] bounds the
    buffer cache (default unbounded: plenty of RAM); it is clamped up
    so the metadata area always fits. [metrics]/[ns] give the buffer
    cache a read-plane namespace to mirror its counters into;
    [readahead] arms the sequential prefetch engine (off by
    default). *)

val device : t -> Nfsg_disk.Device.t
val cache : t -> Buffer_cache.t
val bsize : t -> int

val format_generation : t -> int
(** The superblock's format generation ({!mkfs}): a server's handles
    carry it, so a reformat stales them and a remount does not. *)

val accelerated : t -> bool
(** Whether the device is NVRAM-accelerated right now (the server
    write layer "queries Presto as to acceleration state"). *)

(** {1 Inodes and handles} *)

val root : t -> inode
val iget : t -> inum:int -> gen:int -> inode
(** Raises {!Stale} when the slot was freed or reused. *)

val inum : inode -> int
val generation : inode -> int
val lock_of : inode -> Nfsg_sim.Mutex.t

val lock : inode -> unit
(** Acquire the inode's sleep lock — the paper's vnode lock (FIFO). *)

val unlock : inode -> unit

val with_lock : inode -> (unit -> 'a) -> 'a
(** [with_lock ino f] runs [f] holding the lock, releasing it on any
    exit. *)

val getattr : inode -> attr

val meta_dirty : inode -> [ `Clean | `Time_only | `Dirty ]
(** Whether the on-disk inode lags the in-core one. *)

(** {1 Files} *)

val read : t -> inode -> off:int -> len:int -> Bytes.t
(** Short reads at EOF; holes read as zeros. *)

val read_ahead : t -> inode -> stream:int -> off:int -> len:int -> Nfsg_rpc.Xdr.view
(** {!read} as a view, feeding the access to the buffer cache's
    read-ahead engine first. A range that lies in one block is a window
    into the cache block itself, not a copy: it is valid only until the
    caller next yields or fills the cache, after which a change may land
    in that buffer in place, or another block may take it over. Any
    other range is a view of a private {!read}. [stream]
    identifies the reader (client × file) for sequential-run detection.
    The stream bookkeeping and async prefetch submission run under the
    inode lock but never park — the block mapping consults only
    resident indirect blocks — so the lock is not held across any
    device wait; the demand read runs after release. With read-ahead
    disabled this is exactly {!read}, as a view. *)

type write_mode =
  | Sync  (** IO_SYNC: data and metadata to stable storage before
              returning *)
  | Sync_data_only  (** IO_SYNC|IO_DATAONLY: data written through,
                        metadata left dirty in core *)
  | Delay_data  (** IO_DELAYDATA: data dirty in cache, metadata dirty
                    in core *)

val write : t -> inode -> off:int -> Bytes.t -> mode:write_mode -> unit
(** {!write_view} over the whole of the given buffer. *)

val write_view : t -> inode -> off:int -> Nfsg_rpc.Xdr.view -> mode:write_mode -> unit
(** Extends the file as needed, allocating data and indirect blocks.
    The data arrives as a zero-copy window into the request datagram
    and is blitted into buffer-cache blocks here — the one place on
    the write path where payload bytes are copied.
    In [Sync] mode, a write that changed nothing but the modify time
    leaves the inode [`Time_only] dirty instead of forcing a
    synchronous inode write (the reference port's special case).
    Raises {!File_too_big}, before it changes anything, when the range
    ends past {!Layout.max_file_size}. *)

val syncdata : t -> inode -> off:int -> len:int -> unit
(** VOP_SYNCDATA: flush delayed data blocks overlapping the byte
    range, clustering device-contiguous runs up to 64 KiB. The part of
    the range past the size limit holds no blocks and is skipped. *)

val fsync_metadata : t -> inode -> unit
(** VOP_FSYNC(FWRITE_METADATA): {!commit_range_begin} with [len = 0],
    awaited — the inode and any dirty indirect blocks in one device
    submission, the inode table block ordered behind the indirects by
    a barrier. No-op when clean. An inode change made while the commit
    is in flight leaves the inode dirty for the next one. *)

val commit_range_begin : t -> inode -> off:int -> len:int -> unit -> unit
(** The one metadata commit. [commit_range_begin t ino ~off ~len]
    gathers the range's delayed data clusters, then — behind
    barriers — the dirty indirect blocks, then the inode, and puts them
    on the device as a single submission: semantically {!syncdata}
    followed by {!fsync_metadata}, but the device may overlap and merge
    the data clusters while the barriers keep metadata from becoming
    stable ahead of the data it describes. With [len = 0] it commits
    metadata only.

    It is split for lock hygiene: [begin] runs every in-core step —
    block mapping, gathering the dirty blocks, marking the inode clean — and
    the submission is down when it returns; the returned thunk merely
    blocks until it is durable (re-dirtying what failed, then
    re-raising). Call [begin] under the inode's lock; the await may
    run with the lock released, so writers arriving mid-flush are not
    convoyed behind the device. *)

val truncate : t -> inode -> int -> unit
(** Grow (sparse) or shrink; shrinking frees blocks. Metadata is left
    dirty; call {!fsync_metadata} to commit. Raises {!File_too_big}
    past {!Layout.max_file_size}. *)

val touch : t -> inode -> mtime:Nfsg_sim.Time.t -> unit

(** {1 Directories} *)

val lookup : t -> inode -> string -> inode
(** Raises [Not_found], or {!Not_dir} if the vnode is not a
    directory. *)

val create : t -> inode -> string -> Layout.ftype -> inode
(** Create a file or directory; directory update and both inodes are
    committed synchronously before returning (NFS requires CREATE to
    be stable). Raises {!Exists}. *)

val remove : t -> inode -> string -> unit
(** Unlink; frees the inode and its blocks when nlink reaches zero.
    Raises [Not_found]; {!Is_dir} when used on a directory. *)

val rmdir : t -> inode -> string -> unit
(** Raises {!Not_empty} on a non-empty directory; [Not_found] when the
    name is absent; {!Not_dir} when it names a non-directory. *)

val rename : t -> src_dir:inode -> src:string -> dst_dir:inode -> dst:string -> unit
val readdir : t -> inode -> (string * int) list

val symlink : t -> inode -> string -> target:string -> inode
(** Create a symbolic link whose target string is stored as the link's
    file data, committed synchronously like {!create}. *)

val readlink : t -> inode -> string
(** Raises {!Not_symlink} when the inode is not a symlink. *)

(** {1 Whole-filesystem} *)

type fsstat = { total_blocks : int; free_blocks : int; bsize : int }

val statfs : t -> fsstat
val crash : t -> unit
(** Drop all volatile state (buffer cache, in-core inodes) and crash
    the device. Mount a fresh [t] over the recovered device to model
    reboot. *)

val check : t -> (unit, string list) result
(** Offline consistency check: every reachable block allocated exactly
    once, bitmap matches reachability, sizes within
    {!Layout.max_file_size}, directory entries point at live inodes,
    link counts correct. Block trees are listed with {!Layout.walk}
    through the buffer cache; a pointer outside the data area is
    reported as ["inode N references out-of-range block B"] and not
    read through. *)
