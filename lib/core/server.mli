(** The NFS server: socket, nfsd pool, duplicate cache, CPU model, and
    an {e export table} of volumes — each volume a device (optionally
    NVRAM-accelerated and/or striped) with its own filesystem, buffer
    cache, and write-gathering plane.

    Single-volume use: create a device, run {!make} over it, and point
    NFS clients at [addr] on the same segment. Multi-volume use: pass
    {!make_exports} a list of {!Volume.spec}s; dispatch routes each
    filehandle to its volume by fsid, unknown or pre-reformat handles
    earn [NFSERR_STALE], and cross-volume renames earn
    [NFSERR_XDEV]. *)

type config = {
  nfsds : int;
  write_layer : Write_layer.config;
  costs : Cpu_model.t;
  dupcache : bool;
  rcvbuf : int;  (** server socket buffer (DEC OSF/1: 256 KiB max) *)
  cache_blocks : int option;  (** buffer-cache bound; None = plenty of RAM *)
  readahead : Nfsg_ufs.Buffer_cache.readahead option;
      (** sequential prefetch policy for the single-volume {!make}
          constructor; [None] = read-ahead off. Multi-volume exports
          carry the policy in their {!Volume.spec} instead *)
  long_op_threshold : Nfsg_sim.Time.t option;
      (** ops slower end-to-end than this emit a long-op record into the
          journey plane's ring; [None] disables long-op tracing (journey
          histograms and station attribution stay on regardless) *)
}

val default_config : config
(** 8 nfsds, gathering write layer, default costs, dupcache on. *)

type t

val make :
  Nfsg_sim.Engine.t ->
  segment:Nfsg_net.Segment.t ->
  addr:string ->
  device:Nfsg_disk.Device.t ->
  ?trace:Nfsg_stats.Trace.t ->
  ?metrics:Nfsg_stats.Metrics.t ->
  ?mkfs:bool ->
  config ->
  t
(** Formats the device (unless [mkfs:false]), mounts, attaches the
    socket, spawns the nfsds. [metrics] is the registry every layer of
    this server registers its instruments in (namespaces ["server"],
    ["write_layer"], ["rpc.svc"], ["rpc.dupcache"]); {!recover} passes
    the same registry to the next incarnation so counts accumulate
    across restarts (private registry when omitted).

    Equivalent to a 1-volume {!make_exports}, except the metrics keep
    the historical single-volume namespaces. *)

val make_exports :
  Nfsg_sim.Engine.t ->
  segment:Nfsg_net.Segment.t ->
  addr:string ->
  ?trace:Nfsg_stats.Trace.t ->
  ?metrics:Nfsg_stats.Metrics.t ->
  ?mkfs:bool ->
  config ->
  Volume.spec list ->
  t
(** Multi-volume server over an export table (nonempty, else
    [Invalid_argument]). Volume [i] gets fsid [i+1] and registers its
    instruments under namespaces [server.vol<fsid>] and
    [write_layer.vol<fsid>], so per-volume gather batches and op mixes
    never share a counter. All volumes share the socket, nfsd pool,
    duplicate cache, CPU, and write verifier. *)

val volumes : t -> Volume.t list
(** The export table, fsid order. *)

val exports : t -> (string * Nfsg_nfs.Proto.fh) list
(** [(export name, root filehandle)] per volume — what the MOUNT
    service hands out. *)

val root_fh : t -> Nfsg_nfs.Proto.fh
(** Root handle of the first volume. *)

val fs : t -> Nfsg_ufs.Fs.t
(** First volume's filesystem (the only one, for {!make} servers). *)

val cpu : t -> Nfsg_sim.Resource.t

val write_layer : t -> Write_layer.t
(** First volume's write layer. *)

val socket : t -> Nfsg_net.Socket.t

val write_verifier : t -> int
(** The NFSv3 write verifier: this server's incarnation number, 1 from
    {!make} or {!make_exports}; {!recover} yields the next one, which
    is how v3 clients learn that uncommitted data may have been
    lost. *)

val op_count : t -> int -> int
(** Requests this incarnation dispatched for an NFS procedure number:
    its share of the [server/ops_<PROC>] counter, which the registry
    keeps across restarts. *)

val metrics : t -> Nfsg_stats.Metrics.t
(** The registry this server's layers report into (per-procedure
    counters live under namespace ["server"] as [ops_<PROC>]). *)

val journeys : t -> Nfsg_stats.Journey.plane
(** The live operability plane: per-phase journey histograms
    (namespace ["journey"]), per-client station attribution
    (namespaces ["station.<client>"]) and the long-op record ring. *)

val crash : t -> unit
(** Power-fail the server: volatile state gone, in-flight requests
    lost. The device survives (platter + NVRAM). *)

val recover : t -> t
(** Reboot after {!crash}: per-volume device recovery (NVRAM replay)
    and fsck-style remount, fresh daemons, same network address (the
    crashed incarnation left the wire), and the next incarnation number
    as the shared write verifier.
    Volume generations are preserved, so handles minted before the
    crash stay valid; clients that keep retransmitting ride through
    the outage: their RPCs go unanswered while the server is down and
    are answered by the new incarnation. *)

val restart : t -> t
(** Alias for {!recover} — the crash/restart pair used by the fault
    rig. *)
