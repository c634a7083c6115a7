(** On-disk format of the simplified FFS ("UFS") used by the server.

    Everything here is pure byte twiddling: encoding and decoding of
    the superblock, inodes and directory entries, plus the geometry
    arithmetic mapping structures to disk blocks. All multi-byte
    fields are big-endian. This module is the format's one home: the
    inode record the in-core inode carries, and the block tree — the
    slot rule, the size limit and the walk — that the filesystem maps,
    truncates, rebuilds and checks files through.

    Layout of a volume with block size [bsize]:
    {v
    block 0                  superblock
    bitmap_start ..          one bit per block, 1 = allocated
    itable_start ..          inode table, 128-byte inodes
    data_start ..            data and indirect blocks
    v} *)

val inode_size : int
(** 128 bytes on disk. *)

val nd_direct : int
(** Number of direct block pointers per inode (12, as in FFS). *)

type ftype = Free | Regular | Directory | Symlink

type superblock = {
  bsize : int;
  nblocks : int;  (** total blocks on the volume *)
  ninodes : int;
  bitmap_start : int;  (** block number *)
  bitmap_blocks : int;
  itable_start : int;
  itable_blocks : int;
  data_start : int;
  root_inum : int;
  format_gen : int;  (** 1 at a device's first format, one more at each reformat *)
}

val make_superblock : bsize:int -> capacity:int -> ninodes:int -> superblock
(** Compute a layout, of format generation 1, for a device of
    [capacity] bytes. Raises [Invalid_argument] if the device is too
    small. *)

val encode_superblock : superblock -> Bytes.t
(** One [bsize] block. *)

val decode_superblock : Bytes.t -> superblock
(** Raises [Failure] on bad magic or garbage fields. *)

(** An inode, on disk and in core alike: the filesystem's in-core
    inode carries one of these and changes it in place, so
    {!encode_dinode} and {!decode_dinode} are the whole of inode I/O. *)
type dinode = {
  mutable ftype : ftype;
  mutable nlink : int;
  mutable size : int;  (** bytes *)
  mutable mtime : int;  (** simulated ns *)
  mutable atime : int;
  mutable ctime : int;
  direct : int array;  (** [nd_direct] block numbers, 0 = hole *)
  mutable single_ind : int;  (** indirect block number, 0 = none *)
  mutable double_ind : int;
  mutable gen : int;
      (** generation number, bumped at every reuse of the inode slot so
          stale NFS file handles can be detected *)
}

val new_dinode : ftype -> gen:int -> now:int -> dinode
(** A fresh inode of generation [gen]: one link, no blocks, every time
    [now]. *)

val encode_dinode : dinode -> Bytes.t
(** Exactly [inode_size] bytes. *)

val decode_dinode : ?pos:int -> Bytes.t -> dinode
(** [decode_dinode ~pos b] decodes the inode at byte [pos] (default 0)
    of [b] in place, e.g. a slot of a cached inode-table block. Raises
    [Failure] if [b] holds fewer than [inode_size] bytes from [pos]. *)

val dinode_ftype : Bytes.t -> pos:int -> ftype
(** The [ftype] of the inode at byte [pos] of [b], read in place without
    decoding the rest. Raises [Failure] as {!decode_dinode} does. *)

val dinode_gen : Bytes.t -> pos:int -> int
(** The [gen] of the inode at byte [pos] of [b], read in place; a free
    slot keeps the generation of its last use. *)

val inode_block : superblock -> int -> int * int
(** [inode_block sb inum] is [(block number, byte offset within
    block)] of that inode's slot. *)

(** {1 The block tree}

    An inode maps its file blocks through [nd_direct] direct pointers,
    then a single-indirect block of {!pointers_per_block} pointers,
    then a double-indirect block whose pointers name level-2 blocks of
    as many pointers each. A pointer is a block number; 0 is a hole. *)

val pointers_per_block : superblock -> int

(** Where the pointer to a file block lives: the slot rule. *)
type slot =
  | Direct of int  (** [direct.(i)] *)
  | Single of int  (** slot [i] of the single-indirect block *)
  | Double of int * int
      (** slot [j] of the level-2 block named by slot [i] of the
          double-indirect block *)
  | Beyond  (** past the largest file the tree can map *)

val slot : superblock -> int -> slot
(** [slot sb fbn] is where file block [fbn]'s pointer lives, [Beyond]
    from file block [max_file_size sb / bsize] on. Raises
    [Invalid_argument] on a negative [fbn]. *)

val max_file_size : superblock -> int
(** The size limit: bytes in the largest file the tree can map. *)

val get_pointer : Bytes.t -> int -> int
(** [get_pointer block i] reads the [i]-th 32-bit block pointer of an
    indirect block. *)

val set_pointer : Bytes.t -> int -> int -> unit

val walk :
  superblock -> dinode -> read:(int -> Bytes.t) -> stray:(int -> unit) -> (int -> unit) -> unit
(** [walk sb di ~read ~stray visit] calls [visit] on every block of
    [di]'s tree, in tree order: the direct blocks, then the
    single-indirect block and the blocks it names, then the
    double-indirect block and each level-2 block followed by the blocks
    it names. An indirect block is visited before [read] fetches it and
    its pointers are followed. The walk copies an indirect block's
    pointers before it descends, so [read] may hand out a buffer that a
    later [read] refills (the buffer cache's). The walk follows, and
    visits, only pointers inside the data area: any other nonzero
    pointer goes to [stray], and is neither visited nor read through. *)

(** {1 Directory entries}

    A directory's data is a packed sequence of entries, rewritten
    wholesale on modification (directories here are small). *)

val encode_dirents : (string * int) list -> Bytes.t
val decode_dirents : Bytes.t -> (string * int) list

val find_dirent : Bytes.t -> string -> int option
(** [find_dirent b name] is the inode of the first entry of [b] named
    [name], as [List.assoc_opt name (decode_dirents b)] finds it: the
    scan stops where {!decode_dirents} stops. It copies no name and
    builds no list. *)
