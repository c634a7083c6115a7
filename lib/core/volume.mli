(** One export of a multi-volume server: a device (plain, NVRAM, or
    stripe) with its mounted filesystem, buffer cache, and its own
    write-gathering plane.

    The paper's testbed serves several disks — single spindles and a
    3-disk stripe set — from one machine. A [Volume.t] is that unit of
    service: gathering, procrastination, and metadata election happen
    per volume, so a flush on one export never blocks batch formation
    on another. The server routes each filehandle to its volume by
    [fsid] and rejects dead identities by [vgen] (see {!owns}). *)

type spec = {
  export : string;  (** name a client mounts, e.g. ["/export0"] *)
  device : Nfsg_disk.Device.t;
}

val spec : string -> Nfsg_disk.Device.t -> spec

type t

val mount :
  Nfsg_sim.Engine.t ->
  fsid:int ->
  exports:int ->
  format:bool ->
  sock:Nfsg_net.Socket.t ->
  cpu:Nfsg_sim.Resource.t ->
  costs:Cpu_model.t ->
  send_reply:(Nfsg_rpc.Svc.transport -> Nfsg_nfs.Proto.res -> unit) ->
  ?metrics:Nfsg_stats.Metrics.t ->
  cache_blocks:int option ->
  readahead:Nfsg_ufs.Buffer_cache.readahead option ->
  wl_config:Write_layer.config ->
  spec ->
  t
(** Mounts the device and builds the volume's write layer on the
    shared server socket/CPU, with a buffer cache of [cache_blocks]
    ([None] = plenty) and the [readahead] policy ([None] = off). The
    volume is exported read-write.

    With [format], the volume is new: the device is formatted first,
    which stamps the next volume generation ({!Nfsg_ufs.Fs.mkfs}) and
    so invalidates every handle of the filesystem it overwrites.
    Without it, the recovery path, the device is mounted as it stands,
    generation included, so client handles survive a reboot.

    [exports] is the size of the server's export table, and it picks
    the metrics namespaces: the only export of a server counts under
    ["server"] / ["write_layer"] / ["read_plane"], and each of several
    under [server.vol<fsid>] / [write_layer.vol<fsid>] /
    [read_plane.vol<fsid>]. *)

val export : t -> string
val fsid : t -> int

val vgen : t -> int
(** Volume generation carried in every filehandle this volume mints:
    the filesystem's {!Nfsg_ufs.Fs.format_generation}. *)

val device : t -> Nfsg_disk.Device.t
val fs : t -> Nfsg_ufs.Fs.t
val write_layer : t -> Write_layer.t

val server_ns : t -> string
(** Metrics namespace for this volume's per-procedure op counters. *)

val read_only : t -> bool
(** Is the export currently write-protected? *)

val set_read_only : t -> bool -> unit
(** Flip the export's write protection at runtime ("exportfs -o ro"):
    an experiment populates a volume read-write, then protects it
    before unleashing the fleet. Mutating procedures on a protected
    export earn [NFSERR_ROFS]. *)

val root_fh : t -> Nfsg_nfs.Proto.fh

val fh : t -> Nfsg_ufs.Fs.inode -> Nfsg_nfs.Proto.fh
(** The handle this volume incarnation mints for an inode. *)

val owns : t -> Nfsg_nfs.Proto.fh -> bool
(** Does this filehandle name this volume incarnation? False when the
    fsid differs {e or} the vgen is from before a reformat. *)

val crash : t -> unit
(** Drop volatile filesystem state and crash the device (power fail);
    the platter and any NVRAM contents, generation included, survive
    for {!mount} without [format] to recover. *)
