(** VFS layer: the vnode interface the NFS server layer programs
    against, including the paper's {e new} flags (section 6.4).

    [vop_write] flag combinations and what they mean:
    - [IO_SYNC] alone — traditional stable write: data then metadata
      synchronously (with the mtime-only asynchronous special case);
    - [IO_SYNC + IO_DATAONLY] — deliver data to the (accelerated)
      device now but delay all metadata copies;
    - [IO_DELAYDATA] — let UFS keep the data dirty in the buffer cache
      and choose its own clustering policy later.

    [vop_fsync ~flags:[FWRITE; FWRITE_METADATA]] flushes only the inode
    and indirect blocks; [vop_syncdata] flushes delayed data with
    begin/end offsets as hints. *)

type vnode
(** A file or directory as seen by the server layer. *)

type io_flag = IO_SYNC | IO_DATAONLY | IO_DELAYDATA
type fsync_flag = FWRITE | FWRITE_METADATA

val vnode_of_inode : Fs.t -> Fs.inode -> vnode
val fs_of : vnode -> Fs.t
val inode_of : vnode -> Fs.inode
val vnode_id : vnode -> int
(** The inode number: stable identity for "same file" comparisons. *)

val lock : vnode -> unit
(** Acquire the vnode sleep lock (FIFO). *)

val unlock : vnode -> unit
val with_lock : vnode -> (unit -> 'a) -> 'a
val locked : vnode -> bool
val contenders : vnode -> int
(** Number of processes waiting on the sleep lock right now — the
    "another nfsd blocked on the same vnode" test of the gathering
    algorithm. *)

val accelerated : vnode -> bool
(** Whether the underlying device is NVRAM-accelerated (the server
    write layer "queries Presto as to acceleration state"). *)

val vop_getattr : vnode -> Fs.attr

(** [vop_read_ahead] is VOP_READ via {!Fs.read_ahead}: feeds the
    sequential prefetch engine (no-op when read-ahead is off).
    [stream] identifies the reader for run detection. *)
val vop_read_ahead : vnode -> stream:int -> off:int -> len:int -> Bytes.t
val vop_write : vnode -> off:int -> Nfsg_rpc.Xdr.view -> flags:io_flag list -> unit
val vop_fsync : vnode -> flags:fsync_flag list -> unit
val vop_syncdata : vnode -> off:int -> len:int -> unit

val vop_commit_begin : vnode -> off:int -> len:int -> unit -> unit
(** Gathered flush of data plus metadata as one device submission
    ({!Fs.commit_range}): data clusters overlap and merge, barriers
    keep the inode and indirect blocks ordered behind the data. It is
    split for lock hygiene ({!Fs.commit_range_begin}): call it under
    {!lock}; the submission is down when it returns, and the returned
    await thunk may park on the device with the vnode lock released.
    With [len = 0] it commits metadata only, the unlocked twin of
    [vop_fsync ~flags:[FWRITE; FWRITE_METADATA]]. *)

val vop_lookup : vnode -> string -> vnode
val vop_create : vnode -> string -> Layout.ftype -> vnode
val vop_remove : vnode -> string -> unit
val vop_mkdir : vnode -> string -> vnode
val vop_rmdir : vnode -> string -> unit
val vop_rename : vnode -> src:string -> dst_dir:vnode -> dst:string -> unit
val vop_readdir : vnode -> (string * int) list
val vop_symlink : vnode -> string -> target:string -> vnode
val vop_readlink : vnode -> string
val vop_truncate : vnode -> int -> unit
val vop_touch : vnode -> mtime:Nfsg_sim.Time.t -> unit
