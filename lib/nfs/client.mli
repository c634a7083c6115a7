(** NFS v2 client model: an 8 KB block cache with write-behind through
    a pool of biod daemons (paper section 4.1).

    A client process writing a file fills 8 KB cache blocks; each time
    a block is complete "it needs to go to the wire": it is handed to
    a free biod, which performs the WRITE RPC asynchronously while the
    application keeps running. If every biod is busy, the application
    process itself blocks doing the RPC — the natural flow control the
    paper describes. [close] implements sync-on-close: it flushes the
    partial tail block and waits for every outstanding write, raising
    any asynchronous error (the ENOSPC-capture semantic). *)

exception Error of Proto.status

exception Verifier_changed
(** An NFSv3 COMMIT (or write) returned a different write verifier than
    earlier writes saw: the server rebooted and uncommitted data may be
    lost; the application must rewrite. *)

type protocol = V2 | V3
(** V2: every WRITE is stable-on-reply (RFC 1094). V3: writes go out
    UNSTABLE and {!close} issues a COMMIT — the paper's Future Work
    environment. *)

type t

val create :
  Nfsg_sim.Engine.t ->
  rpc:Nfsg_rpc.Rpc_client.t ->
  ?biods:int ->
  ?protocol:protocol ->
  ?metrics:Nfsg_stats.Metrics.t ->
  unit ->
  t
(** [biods] defaults to 4 (a typical workstation); 0 means a fully
    synchronous, "dumb PC" client. Reads and writes go to the wire in
    8 KB blocks. [protocol] defaults to {!V2}. *)

val mount : t -> string -> Proto.fh
(** Resolve an export name (e.g. ["/export0"]) to its root filehandle
    via the server's mini MOUNT service. Raises [Error NFSERR_NOENT]
    for an unknown export. *)

val mount_flags : t -> string -> Proto.fh * bool
(** Like {!mount}, also returning the export's advertised read-only
    flag — what a diskless client checks before trying to write its
    root. *)

(** {1 File I/O} *)

type file

val open_file : t -> Proto.fh -> file

val write : file -> off:int -> Bytes.t -> unit
(** Buffered write-behind. Sequential writes coalesce into whole
    blocks; a non-contiguous write flushes the current block first.
    [data] is copied once, into the staged block; the WRITE call is
    encoded straight from that block, which the file reuses once the
    call returns. *)

val flush : file -> unit
(** Push the partial current block to the wire (without waiting for
    outstanding replies). *)

val close : file -> unit
(** Sync-on-close: flush, wait for all outstanding writes, raise
    {!Error} if any write failed asynchronously. A {!V3} client then
    issues COMMIT for the written range and raises {!Verifier_changed}
    if the server's write verifier moved under it. *)

val commit : file -> unit
(** Explicit NFSv3 COMMIT of everything written so far through this
    handle (no-op for a {!V2} client or an unwritten file). *)

val read : t -> Proto.fh -> off:int -> len:int -> Bytes.t
(** Synchronous READ in <= 8 KB wire chunks; short at EOF. *)

(** {1 Name and attribute operations}

    Thin RPC wrappers; all raise {!Error} on a non-OK status. *)

val getattr : t -> Proto.fh -> Proto.fattr
val setattr : t -> Proto.fh -> Proto.sattr -> Proto.fattr
val lookup : t -> Proto.fh -> string -> Proto.fh * Proto.fattr
val create_file : t -> Proto.fh -> string -> Proto.fh * Proto.fattr
val remove : t -> Proto.fh -> string -> unit
val rename : t -> from_dir:Proto.fh -> from_name:string -> to_dir:Proto.fh -> to_name:string -> unit
val mkdir : t -> Proto.fh -> string -> Proto.fh * Proto.fattr
val rmdir : t -> Proto.fh -> string -> unit
val readdir : t -> Proto.fh -> (string * int) list
val symlink : t -> Proto.fh -> string -> target:string -> Proto.fh * Proto.fattr
val readlink : t -> Proto.fh -> string
val statfs : t -> Proto.fh -> Proto.statfs_ok
val null_ping : t -> unit

(** {1 Statistics} *)

val commits_sent : t -> int
val wire_writes : t -> int
(** WRITE RPCs issued (not counting RPC-level retransmissions). *)

val last_write_mtimes : t -> int list
(** mtimes (ns) returned by the most recent [close]'s write replies,
    oldest first — lets tests verify that gathered writes share one
    modify time. *)
