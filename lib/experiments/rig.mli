(** Experiment rig: a fresh simulated world per measurement — segment,
    device stack (raw disk, optional stripe set, optional Prestoserve),
    server, and any number of client hosts. *)

type spec = {
  net : Calib.net;
  accel : bool;  (** Prestoserve NVRAM in front of the device *)
  spindles : int;  (** 1, or n for an n-drive stripe set *)
  volumes : int;
      (** exports served; each volume gets its own device stack
          ([spindles] disks, optional stripe/Presto). 1 = the classic
          single-volume rig via [Server.make]; >1 goes through
          [Server.make_exports] with exports "/export0".."/exportN" *)
  nfsds : int;
  gathering : bool;
  trace : bool;
  cache_blocks : int option;
      (** server buffer-cache bound, to force read misses under LADDIS
          working sets; [None] = unbounded *)
  readahead : Nfsg_ufs.Buffer_cache.readahead option;
      (** sequential prefetch policy armed in every volume's buffer
          cache; [None] = read-ahead off (the historical behaviour) *)
  disk_scheduler : Nfsg_disk.Disk.scheduler;
  write_layer_overrides : Nfsg_core.Write_layer.config -> Nfsg_core.Write_layer.config;
      (** applied after the mode/procrastination defaults; identity for
          most experiments, used by the ablations *)
}

val default_spec : spec
(** FDDI, no accel, 1 spindle, 1 volume, 8 nfsds, gathering, no
    trace. *)

(** How a caller configures every world it builds, beyond the
    experiment's own {!spec}: where the instruments go, and the
    storage and operability settings the nfsgather flags force. Passed
    to {!make} as a value and kept in the rig, so {!run} honours it
    too. *)
type env = {
  metrics : Nfsg_stats.Metrics.t option;
      (** a registry shared by every world built with this env — how
          [--metrics-json] collects an experiment's instruments across
          the many worlds it builds (they accumulate by
          find-or-create); [None] gives each rig a fresh one *)
  scheduler : Nfsg_disk.Disk.scheduler option;
      (** the I/O scheduler of every spindle, in place of the spec's
          [disk_scheduler] ([--scheduler]) *)
  raid_level : Nfsg_disk.Stripe.level option;
      (** the array level of every multi-spindle world ([--raid-level]);
          one-spindle specs are unaffected, and the level must fit the
          spindle count (RAID-1 needs 2 members, RAID-5 needs 3).
          [None] is the plain RAID-0 stripe set *)
  monitor_interval : Nfsg_sim.Time.t option;
      (** drive a {!Nfsg_stats.Monitor} over the rig's registry for the
          duration of every {!run} ([--monitor-interval]) *)
  emit : (string -> unit) option;
      (** where monitor chunks and long-op dumps go (the owning
          binary's stdout, typically); the rig itself never prints *)
  long_op_threshold : Nfsg_sim.Time.t option;
      (** arm long-op journey tracing in the server: ops slower
          end-to-end than this leave a journey record, dumped through
          [emit] when {!run}'s load is over ([--long-op-threshold]) *)
}

val default_env : env
(** Everything off: a fresh registry per rig and the spec's own
    settings. *)

type t = {
  eng : Nfsg_sim.Engine.t;
  segment : Nfsg_net.Segment.t;
  disks : Nfsg_disk.Device.t array;
  device : Nfsg_disk.Device.t;
  server : Nfsg_core.Server.t;
  trace : Nfsg_stats.Trace.t option;
  metrics : Nfsg_stats.Metrics.t;
  env : env;  (** what {!make} was given *)
}

val make : ?env:env -> spec -> t
(** A fresh world for [spec] under [env] (default {!default_env}).
    Every layer registers its instruments in [metrics]: [env.metrics]
    when set, else a fresh registry. *)

val metrics : t -> Nfsg_stats.Metrics.t

val new_client :
  t -> ?biods:int -> ?protocol:Nfsg_nfs.Client.protocol -> string -> Nfsg_nfs.Client.t
(** Attach a client host with the given address to the segment. *)

val root : t -> Nfsg_nfs.Proto.fh
(** Root filehandle of the first (or only) volume. *)

val roots : t -> Nfsg_nfs.Proto.fh list
(** Per-volume root filehandles, fsid order. *)

val run : t -> (unit -> 'a) -> 'a
(** Run [f] as the driver process and drain the simulation, with the
    rig env's monitor and long-op dump around it. *)

val spindle_stats : t -> Nfsg_disk.Device.stats
(** Aggregate over the raw spindles. *)

type window = {
  elapsed : Nfsg_sim.Time.t;
  cpu_pct : float;
  disk_kb_s : float;
  disk_trans_s : float;
}

val measure : t -> (unit -> 'a) -> 'a * window
(** Snapshot CPU and spindle counters around [f] (which must be called
    from inside a driver process — compose with {!run}). *)
