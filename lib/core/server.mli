(** The NFS server: socket, nfsd pool, duplicate cache, CPU model, and
    an {e export table} of volumes — each volume a device (optionally
    NVRAM-accelerated and/or striped) with its own filesystem, buffer
    cache, and write-gathering plane.

    Single-volume use: create a device, run {!make} over it, and point
    NFS clients at [addr] on the same segment. Multi-volume use: pass
    {!make_exports} a list of {!Volume.spec}s; dispatch routes each
    filehandle to its volume by fsid, unknown or pre-reformat handles
    earn [NFSERR_STALE], and cross-volume renames earn
    [NFSERR_XDEV]. Every WRITE and COMMIT takes its trip into UFS
    through the volume's {!Write_layer}, which writes and syncs all
    file data; the server itself only reads, truncates and runs
    directory operations. *)

type config = {
  nfsds : int;
  write_layer : Write_layer.config;
  costs : Cpu_model.t;
  dupcache : bool;
  rcvbuf : int;  (** server socket buffer (DEC OSF/1: 256 KiB max) *)
  cache_blocks : int option;
      (** every volume's buffer-cache bound; None = plenty of RAM *)
  readahead : Nfsg_ufs.Buffer_cache.readahead option;
      (** every volume's sequential prefetch policy; [None] = read-ahead
          off *)
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
  ?metrics:Nfsg_stats.Metrics.t ->
  config ->
  t
(** {!make_exports} over one export, ["/export"] on [device]. With one
    export, the volume counts under the plain namespaces ["server"],
    ["write_layer"] and ["read_plane"]. *)

val make_exports :
  Nfsg_sim.Engine.t ->
  segment:Nfsg_net.Segment.t ->
  addr:string ->
  ?metrics:Nfsg_stats.Metrics.t ->
  config ->
  Volume.spec list ->
  t
(** Formats each export's device, mounts it, attaches the socket and
    spawns the nfsds. The export table must be nonempty, else
    [Invalid_argument]. Volume [i] gets fsid [i+1]. All volumes share
    the socket, nfsd pool, duplicate cache, CPU, and write verifier.

    [metrics] is the registry every layer registers in (private when
    omitted); {!restart} passes it on, so counts accumulate across
    restarts. The server counts under ["server"], ["rpc.svc"] and
    ["rpc.dupcache"]; each volume's namespaces are the plain ones on a
    one-export server and [*.vol<fsid>] otherwise ({!Volume.mount}). *)

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
    {!make} or {!make_exports}; {!restart} yields the next one, which
    is how v3 clients learn that uncommitted data may have been
    lost. *)

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

val restart : t -> t
(** Reboot after {!crash}: per-volume device recovery (NVRAM replay)
    and fsck-style remount, fresh daemons, same network address (the
    crashed incarnation left the wire), and the next incarnation number
    as the shared write verifier.
    Each volume remounts with the generation on its platter and keeps
    its read-only flag ({!Volume.set_read_only}), so
    handles minted before the crash stay valid; clients that keep
    retransmitting ride through the outage: their RPCs go unanswered
    while the server is down and are answered by the new incarnation. *)
