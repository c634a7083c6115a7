(** On-disk format of the simplified FFS ("UFS") used by the server.

    Everything here is pure byte twiddling: encoding and decoding of
    the superblock, inodes and directory entries, plus the geometry
    arithmetic mapping structures to disk blocks. All multi-byte
    fields are big-endian.

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
}

val make_superblock : bsize:int -> capacity:int -> ninodes:int -> superblock
(** Compute a layout for a device of [capacity] bytes. Raises
    [Invalid_argument] if the device is too small. *)

val encode_superblock : superblock -> Bytes.t
(** One [bsize] block. *)

val decode_superblock : Bytes.t -> superblock
(** Raises [Failure] on bad magic or garbage fields. *)

type dinode = {
  ftype : ftype;
  nlink : int;
  size : int;  (** bytes *)
  mtime : int;  (** simulated ns *)
  atime : int;
  ctime : int;
  direct : int array;  (** [nd_direct] block numbers, 0 = hole *)
  single_ind : int;  (** indirect block number, 0 = none *)
  double_ind : int;
  gen : int;
      (** generation number, bumped at every reuse of the inode slot so
          stale NFS file handles can be detected *)
}

val zero_dinode : dinode

val encode_dinode : dinode -> Bytes.t
(** Exactly [inode_size] bytes. *)

val decode_dinode : Bytes.t -> dinode

val inode_block : superblock -> int -> int * int
(** [inode_block sb inum] is [(block number, byte offset within
    block)] of that inode's slot. *)

val pointers_per_block : superblock -> int

val max_file_blocks : superblock -> int
(** Largest file the direct + single + double indirect scheme can map. *)

val get_pointer : Bytes.t -> int -> int
(** [get_pointer block i] reads the [i]-th 32-bit block pointer of an
    indirect block. *)

val set_pointer : Bytes.t -> int -> int -> unit

(** {1 Directory entries}

    A directory's data is a packed sequence of entries, rewritten
    wholesale on modification (directories here are small). *)

val encode_dirents : (string * int) list -> Bytes.t
val decode_dirents : Bytes.t -> (string * int) list
