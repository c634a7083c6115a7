(** NFS version 2 protocol (RFC 1094): procedure arguments and results
    with their XDR wire encodings.

    File handles are the protocol's 32-byte opaque cookies; here they
    carry the volume id ([fsid]), volume generation ([vgen]), inode
    number and inode generation, so a server can route a handle to the
    right export and detect stale handles after remove/reuse — or
    after the volume itself was reformatted — exactly like a real
    one. *)

type fh = { fsid : int; vgen : int; inum : int; gen : int }

type ftype = NFNON | NFREG | NFDIR | NFLNK

type timeval = { sec : int; usec : int }

val timeval_of_ns : int -> timeval
val ns_of_timeval : timeval -> int

type fattr = {
  ftype : ftype;
  mode : int;
  nlink : int;
  uid : int;
  gid : int;
  size : int;
  blocksize : int;
  rdev : int;
  blocks : int;
  fsid : int;
  fileid : int;
  atime : timeval;
  mtime : timeval;
  ctime : timeval;
}

val max_size : int
(** The largest file size an {!fattr} carries: its [size] is 32 bits. *)

val max_data : int
(** RFC 1094's NFS_MAXDATA, 8192: the most data one READ returns. *)

type sattr = {
  s_mode : int;  (** -1 = don't set *)
  s_uid : int;
  s_gid : int;
  s_size : int;  (** -1 = don't set; 0 = truncate *)
  s_atime : timeval option;
  s_mtime : timeval option;
}

val sattr_none : sattr
val sattr_truncate : int -> sattr

type status =
  | NFS_OK
  | NFSERR_PERM
  | NFSERR_NOENT
  | NFSERR_IO
  | NFSERR_EXIST
  | NFSERR_NOTDIR
  | NFSERR_ISDIR
  | NFSERR_FBIG
  | NFSERR_NOSPC
  | NFSERR_ROFS
  | NFSERR_NOTEMPTY
  | NFSERR_STALE
  | NFSERR_XDEV
      (** Cross-device link/rename: the two handles name different
          volumes. *)

val status_to_int : status -> int
val status_of_int : int -> status
val string_of_status : status -> string

(** {1 Procedure numbers} *)

val proc_null : int
val proc_getattr : int
val proc_lookup : int
val proc_read : int
val proc_write : int
val proc_create : int
val proc_remove : int
val proc_rename : int
val proc_readdir : int
val proc_statfs : int

val proc_write3 : int
(** NFS version 3 WRITE (procedure 7 of program version 3): carries a
    stability level and returns a write verifier — the paper's Future
    Work environment ("The NFS Version 3 protocol supports reliable
    asynchronous writes"). *)

val proc_commit : int
(** NFS version 3 COMMIT (procedure 21). *)

type stable_how = Unstable | Data_sync | File_sync

type args =
  | Null
  | Getattr of fh
  | Setattr of fh * sattr
  | Lookup of fh * string
  | Read of { fh : fh; offset : int; count : int }
  | Write of { fh : fh; offset : int; data : Nfsg_rpc.Xdr.view }
  | Create of { dir : fh; name : string; sattr : sattr }
  | Remove of { dir : fh; name : string }
  | Rename of { from_dir : fh; from_name : string; to_dir : fh; to_name : string }
  | Mkdir of { dir : fh; name : string; sattr : sattr }
  | Rmdir of { dir : fh; name : string }
  | Readdir of { fh : fh; cookie : int; count : int }
  | Statfs of fh
  | Readlink of fh
  | Symlink of { dir : fh; name : string; target : string; sattr : sattr }
  | Write3 of { fh : fh; offset : int; stable : stable_how; data : Nfsg_rpc.Xdr.view }
  | Commit of { fh : fh; offset : int; count : int }

val proc_of_args : args -> int

val put_args : Nfsg_rpc.Xdr.Enc.t -> args -> unit
(** Write the arguments' XDR in place, e.g. straight into a call
    datagram ({!Nfsg_rpc.Rpc_client.call_with}). *)

val encode_args : args -> Bytes.t
(** {!put_args} into a buffer of its own. *)

type statfs_ok = { tsize : int; bsize : int; blocks : int; bfree : int; bavail : int }

type res =
  | RNull
  | RAttr of (fattr, status) result
  | RDirop of (fh * fattr, status) result
  | RRead of (fattr * Nfsg_rpc.Xdr.view, status) result
      (** The data is a view, like a WRITE's. On the server it may be a
          window into a buffer-cache block, valid only until the server
          next yields: the reply funnel encodes it into the datagram at
          once. Decoded, it is a window into the reply datagram. *)
  | RStatus of status
  | RReaddir of ((string * int) list * bool, status) result
      (** entries as (name, fileid), plus EOF flag *)
  | RStatfs of (statfs_ok, status) result
  | RReadlink of (string, status) result
  | RWrite3 of (fattr * stable_how * int, status) result
      (** attributes, how the data was committed, write verifier *)
  | RCommit of (fattr * int, status) result  (** attributes, verifier *)

val put_res : Nfsg_rpc.Xdr.Enc.t -> res -> unit
(** Write the result's XDR in place, e.g. straight into a reply
    datagram ({!Nfsg_rpc.Svc.encode_reply}). *)

val encode_res : res -> Bytes.t
(** {!put_res} into a buffer of its own. *)

(** {1 The procedures}

    {!procs} is this module's list of procedures: one row per procedure
    number, stating every fact the server and the client need about it.
    A number without a row is not offered (RPC [PROC_UNAVAIL]). Looking
    a row up allocates nothing; each function below reads one. *)

type shape =
  | SNull | SAttr | SDirop | SRead | SStatus | SReaddir | SStatfs | SReadlink | SWrite3 | SCommit
(** Which {!res} constructor carries the procedure's result. *)

type proc = private {
  num : int;
  name : string;  (** as in the metrics, e.g. [ops_WRITE] *)
  mutates : bool;  (** changes the file system: a read-only export refuses it *)
  klass : Nfsg_rpc.Rpc_client.op_class;  (** the client's retransmission timer *)
  decode : Nfsg_rpc.Xdr.Dec.t -> args;
  shape : shape;
}

val procs : proc list
(** Every row, in procedure-number order. *)

val proc_limit : int
(** The length of an array indexed by procedure number. *)

val find_proc : int -> proc option

val proc_name : int -> string
(** ["PROC<n>"] for a number without a row. *)

val mutates : int -> bool
val op_class : int -> Nfsg_rpc.Rpc_client.op_class

val decode_args : proc:int -> Nfsg_rpc.Xdr.view -> args
(** Raises [Nfsg_rpc.Xdr.Decode_error] on garbage, truncation or an
    unknown procedure, for a file name that is empty or longer than
    RFC 1094's 255 bytes, and for a time to set whose microseconds
    make a second. *)

val decode_res : proc:int -> Nfsg_rpc.Xdr.view -> res

val error_res : proc:int -> status -> res
(** The error result of procedure [proc] carrying [st], in the shape
    {!decode_res} expects for it. *)

(** {1 Mount protocol (mini)}

    A toy MOUNT (RPC program {!Nfsg_rpc.Rpc.mount_program}) with the
    single MNT procedure: export name in, root filehandle out. *)

val proc_mnt : int

val put_mnt_args : Nfsg_rpc.Xdr.Enc.t -> string -> unit
val decode_mnt_args : Nfsg_rpc.Xdr.view -> string

val put_mnt_res : Nfsg_rpc.Xdr.Enc.t -> (fh * bool, status) result -> unit
(** A successful reply carries the root filehandle and the export's
    read-only flag. *)

val decode_mnt_res : Nfsg_rpc.Xdr.view -> (fh * bool, status) result

(** {1 Scanning helpers (the mbuf hunter)} *)

val peek_write : Bytes.t -> (fh * int * int) option
(** If the raw datagram is an NFS WRITE call, its (fh, offset, length)
    — what the mbuf hunter greps the socket buffer for. *)
