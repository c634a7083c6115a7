(** Block allocator over the on-disk bitmap.

    Next-fit with a locality hint: asking for a block [~near] the
    file's previous one yields mostly-contiguous files, which is what
    lets the clustering layer build 64 KB transactions. Bitmap blocks
    are modified through the buffer cache as delayed metadata; after a
    crash the bitmap is rebuilt from reachable blocks (fsck-style), so
    it is never synchronously written on the write path — matching the
    paper's count of data + inode + indirect as the per-write disk
    transactions. *)

exception No_space

type t

val create : Buffer_cache.t -> Layout.superblock -> t

val alloc : t -> ?near:int -> unit -> int
(** A free block number, marked allocated. Raises {!No_space}. *)

val free : t -> int -> unit
(** Raises [Invalid_argument] if the block is not currently allocated
    or is below the data area. *)

val is_allocated : t -> int -> bool
val set_allocated : t -> int -> unit
(** Unconditionally mark a block allocated (mkfs and fsck only). *)

val clear_all_data_area : t -> unit
(** Reset the bitmap for the whole data area (fsck rebuild step 1). *)
