(** The server write layer: the paper's contribution, and the one
    place a WRITE or COMMIT takes its trip into UFS. [Server] routes
    those procedures here; it answers UNSTABLE writes and COMMITs
    itself, and this layer answers every other write.

    Two modes:

    - {b Standard}: the reference-port path. Each WRITE does
      VOP_WRITE(IO_SYNC) ([Fs.write_view ~mode:Sync]) — data then
      metadata synchronously (with the mtime-only asynchronous special
      case) — and replies. Up to three disk transactions per 8 KB
      write.

    - {b Gathering} (section 6.8): VOP_WRITE delivers the data
      (IO_SYNC|IO_DATAONLY, [~mode:Sync_data_only], when the device is
      NVRAM-accelerated; IO_DELAYDATA, [~mode:Delay_data], otherwise),
      then the nfsd tries to leave the metadata update to a
      {e following} nfsd: if another nfsd is in the write path for the
      same file, or the socket buffer holds another WRITE for it (the
      mbuf hunter, section 6.5), it queues its reply descriptor and
      goes back for more work ([Reply_pending] through a fresh
      transport handle). Otherwise it procrastinates once (section
      6.6) and re-checks. The last nfsd standing becomes the
      {e metadata writer}: it flushes the gathered data (VOP_SYNCDATA
      with range hints; clustered 64 KB transactions) and does one
      VOP_FSYNC(FWRITE_METADATA), both in the single device submission
      of [Fs.commit_range_begin], then sends every pending reply in
      FIFO order, all carrying the same file modify time. Crash semantics are preserved: no reply leaves
      before the covering metadata update is stable.

    The [`First_write] latency device reproduces the [SIVA93] variant
    the paper rejects (send the first write to disk as the delay
    instead of sleeping), for the ablation benchmark. *)

type mode =
  | Standard
  | Gathering
  | Unsafe_async
      (** "dangerous mode" (paper section 4.3): reply as soon as the
          data is in volatile memory. Some vendors shipped this as the
          default, with or without a UPS; it is fast and it breaks the
          NFS crash-recovery design — the crash-injection tests prove
          the breakage. *)

type config = {
  mode : mode;
  procrastinate : Nfsg_sim.Time.t;
      (** 8 ms for Ethernet, 5 ms for FDDI in the paper *)
  use_mbuf_hunter : bool;
  reply_order : [ `Fifo | `Lifo ];  (** paper kept FIFO; LIFO is the rejected variant *)
  latency_device : [ `Procrastinate | `First_write ];
  learn_clients : bool;
      (** Jeff Mogul's suggestion from the paper's Future Work: build a
          small database of learned per-client behaviour and use it to
          direct gathering. When on, a client whose writes repeatedly
          fail to gather (a single-threaded "dumb PC") stops paying the
          procrastination penalty; a client that gathers keeps the full
          treatment. Off by default — the paper's server doesn't have
          it. *)
}

val default_gathering : config
val standard : config
val unsafe_async : config

type t

val create :
  Nfsg_sim.Engine.t ->
  fs:Nfsg_ufs.Fs.t ->
  sock:Nfsg_net.Socket.t ->
  cpu:Nfsg_sim.Resource.t ->
  costs:Cpu_model.t ->
  send_reply:(Nfsg_rpc.Svc.transport -> Nfsg_nfs.Proto.res -> unit) ->
  ?metrics:Nfsg_stats.Metrics.t ->
  ns:string ->
  fsid:int ->
  config ->
  t
(** [metrics] registers the layer's instruments under namespace [ns]
    (["write_layer"] for a single-volume server,
    ["write_layer.vol<fsid>"] per volume of a multi-volume one): the
    counters exposed by the accessors below plus
    [metadata_flushes_saved], the gather [batch_size] histogram and the
    deferred-reply latency histogram [reply_latency_us] (private
    registry when omitted). [fsid] is stamped into reply attributes and
    constrains the mbuf hunter to WRITEs for this volume. [send_reply]
    sends a reply, paying its encode; this layer charges only its UFS
    trips. *)

val handle_write :
  t ->
  Nfsg_rpc.Svc.transport ->
  respond:(Nfsg_nfs.Proto.fattr -> Nfsg_nfs.Proto.res) ->
  fail:(Nfsg_nfs.Proto.status -> Nfsg_nfs.Proto.res) ->
  Nfsg_ufs.Fs.inode ->
  off:int ->
  data:Nfsg_rpc.Xdr.view ->
  Nfsg_rpc.Svc.disposition
(** Always arranges the reply itself (through [send_reply]) and
    returns [Reply_pending]; the caller must not reply again.
    [respond] formats the success reply from the post-flush attributes
    (the v2 [RAttr] shape, or the v3 [RWrite3] one for stable v3
    writes, which therefore share gather batches with v2 writes).
    [fail] formats error replies the same way. A write refused before
    its data reached the cache fails alone, answered [NFSERR_NOSPC]
    when the volume is full, [NFSERR_FBIG] when it would take the file
    past {!Nfsg_ufs.Layout.max_file_size}, or [NFSERR_IO] on a disk
    error: its gathered company is still flushed and answered. A disk
    error during a gathered flush fails every descriptor in the batch
    with [NFSERR_IO] in FIFO order — no reply may claim success after
    the covering metadata update failed — and the simulation keeps
    running. *)

val delayed_write :
  t -> Nfsg_rpc.Svc.transport -> Nfsg_ufs.Fs.inode -> off:int -> data:Nfsg_rpc.Xdr.view -> unit
(** IO_DELAYDATA, for NFSv3 UNSTABLE writes and [Unsafe_async] mode:
    fill the cache under the vnode lock and stamp the journey queued.
    Nothing goes to disk. The caller replies; a failed fill raises
    (a write past the size limit raises {!Nfsg_ufs.Fs.File_too_big}
    before it changes anything). *)

val commit : t -> Nfsg_rpc.Svc.transport -> Nfsg_ufs.Fs.inode -> off:int -> count:int -> unit
(** NFSv3 COMMIT: under the vnode lock, sync the data of
    [off, off+count) ([count] 0: to end of file) that lies below the
    size limit, then the metadata.
    The caller replies; a disk error raises and leaves the data dirty
    in the cache. *)

val rescue : t -> inum:int -> unit
(** Orphan protection (section 6.9): called when a duplicate WRITE was
    dropped from the socket buffer — if that drop stranded queued
    descriptors with no nfsd left to elect a metadata writer, the
    calling process flushes and replies itself. Must run in a
    simulation process. *)

(** {1 Statistics} *)

val writes_handled : t -> int
val batches : t -> int
(** Metadata updates performed (gathering mode: one per gather). *)

val gathered_replies : t -> int
val procrastinations : t -> int
val procrastinate_failures : t -> int
(** Times the server procrastinated and still ended up flushing a
    single write — the dumb-PC worst case. *)

val mbuf_hits : t -> int

val flush_failures : t -> int
(** Gathered batches whose data/metadata flush hit a disk error; every
    descriptor in such a batch was answered [NFSERR_IO]. The count
    lives in the registry, so after a restart it includes every earlier
    incarnation's failures. *)

val mean_batch_size : t -> float

(** {1 Flight recorder}

    Every write layer keeps the newest 4096 events of its write path,
    each stamped with the virtual instant and the nfsd that recorded
    it: the paper's Figure 1, for any run. A restarted server's layer
    starts an empty ring. *)

type event =
  | Received of { bytes : int; off : int }  (** a gathering nfsd took a WRITE *)
  | To_presto of { bytes : int }  (** its data went into the NVRAM front *)
  | Procrastinating  (** the nfsd sleeps, waiting for company *)
  | To_disk of { bytes : int; clustered : bool }
      (** data went down: one WRITE's, or a gathered range in clusters *)
  | Metadata_to_disk
  | Replied  (** the standard path answered its WRITE *)
  | Replied_batch of int  (** a metadata writer answered its batch, FIFO *)
  | Replied_volatile  (** dangerous mode answered from memory *)
  | Write_failed  (** a WRITE answered [NFSERR_IO] alone *)
  | Flush_failed of int  (** a gathered batch answered [NFSERR_IO] *)

val events : t -> (Nfsg_sim.Time.t * string * event) list
(** The retained events, oldest first, as (instant, nfsd, event). *)

val describe : event -> string
(** Figure 1's label for an event, e.g. ["40K data to disk (clustered)"]
    or ["5 Write Replies"]. *)
