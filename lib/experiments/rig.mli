(** Experiment rig: the one place a simulated world is built.

    {!world} makes the engine, the metrics registry and the network
    segment; the experiment puts its own devices on it, and {!serve}
    puts the calibrated server over them. {!make} does both with the
    paper's testbed stack (raw disks, an optional stripe set, optional
    Prestoserve). Client hosts attach with {!new_client}. *)

type spec = {
  seed : int;  (** the segment's RNG seed (datagram loss and duplication) *)
  net : Calib.net;
  accel : bool;  (** Prestoserve NVRAM in front of the device *)
  spindles : int;  (** 1, or n for an n-drive stripe set *)
  nfsds : int;
  gathering : bool;
  cache_blocks : int option;
      (** server buffer-cache bound, to force read misses under LADDIS
          working sets; [None] = unbounded *)
  readahead : Nfsg_ufs.Buffer_cache.readahead option;
      (** sequential prefetch policy armed in every volume's buffer
          cache; [None] = read-ahead off (the historical behaviour) *)
  disk_scheduler : Nfsg_disk.Disk.scheduler;
  server_overrides : Nfsg_core.Server.config -> Nfsg_core.Server.config;
      (** applied last to the calibrated config {!serve} builds;
          identity for most experiments *)
}

val default_spec : spec
(** FDDI, no accel, 1 spindle, 8 nfsds, gathering, and the segment's
    own default seed (0x5e9). *)

(** How a caller configures every world it builds, beyond the
    experiment's own {!spec}: where the instruments go, and the
    storage and operability settings the nfsgather flags force. Passed
    to {!world} as a value and kept in the rig, so {!run} honours it
    too. *)
type env = {
  metrics : Nfsg_stats.Metrics.t option;
      (** a sink that collects the registry of every world built with
          this env ([--metrics-json]). Each world still counts into its
          own registry, which {!run} merges into the sink when the run
          ends, so no running world can read another world's counts *)
  scheduler : Nfsg_disk.Disk.scheduler option;
      (** the I/O scheduler of every spindle, in place of the spec's
          or the experiment's own choice ([--scheduler]) *)
  raid_level : Nfsg_disk.Stripe.level option;
      (** the array level of every stripe set ([--raid-level]);
          one-spindle worlds are unaffected, and the level must fit the
          spindle count (RAID-1 needs 2 members, RAID-5 needs 3).
          [None] is the plain RAID-0 stripe set *)
  monitor_interval : Nfsg_sim.Time.t option;
      (** drive a {!Nfsg_stats.Monitor} over the rig's registry for the
          duration of every {!run} ([--monitor-interval]), reporting
          through [emit]; without [emit] no monitor runs *)
  emit : (string -> unit) option;
      (** where monitor chunks and long-op dumps go (the owning
          binary's stdout, typically); the rig itself never prints *)
  long_op_threshold : Nfsg_sim.Time.t option;
      (** arm long-op journey tracing in the server: ops slower
          end-to-end than this leave a journey record, dumped through
          [emit] when {!run}'s load is over ([--long-op-threshold]) *)
}

val default_env : env
(** Everything off: no sink and the spec's own settings. *)

(** {1 Building a world} *)

type world = {
  eng : Nfsg_sim.Engine.t;
  segment : Nfsg_net.Segment.t;
  metrics : Nfsg_stats.Metrics.t;
  spec : spec;
  env : env;
  cpu : (Nfsg_sim.Time.t -> unit) ref;
      (** charges the server CPU; a no-op until {!serve} points it at
          the server, so devices built first can take it as a hook *)
}

val world : ?env:env -> spec -> world
(** A fresh engine, a fresh registry and a segment seeded from
    [spec.seed], under [env] (default {!default_env}). *)

val spindle : world -> ?merge:bool -> ?deadline:Nfsg_sim.Time.t -> string -> Nfsg_disk.Device.t
(** A calibrated RZ26 of the given name under [env.scheduler], else
    [spec.disk_scheduler], charging the calibrated driver cost to the
    server CPU per transaction. *)

val stripe : world -> Nfsg_disk.Device.t array -> Nfsg_disk.Device.t
(** The testbed's stripe set: 32 KB chunks at [env.raid_level]. *)

type t = private {
  eng : Nfsg_sim.Engine.t;
  segment : Nfsg_net.Segment.t;
  disks : Nfsg_disk.Device.t array;  (** the raw spindles *)
  mutable server : Nfsg_core.Server.t;  (** the live incarnation *)
  metrics : Nfsg_stats.Metrics.t;  (** the world's own registry *)
  env : env;  (** what {!world} was given *)
  mutable ran : bool;  (** set by {!run}: a world runs once *)
}

val serve : world -> disks:Nfsg_disk.Device.t array -> Nfsg_disk.Device.t list -> t
(** The server over [devices], with the world's CPU hook wired. Its
    config is calibrated for [spec.net] (CPU costs, procrastination),
    takes the spec's nfsds, write mode, cache bound and read-ahead and
    [env.long_op_threshold], then [spec.server_overrides]. One device
    gets {!Nfsg_core.Server.make}; several get
    {!Nfsg_core.Server.make_exports} as "/export0".."/exportN". [disks]
    are the raw spindles under the devices, for {!spindle_stats}. *)

val make : ?env:env -> spec -> t
(** The paper's testbed: [spec.spindles] {!spindle}s named "rz26-<i>",
    a {!stripe} over several, optional Prestoserve, then {!serve}. *)

val new_client :
  t -> ?biods:int -> ?protocol:Nfsg_nfs.Client.protocol -> string -> Nfsg_nfs.Client.t
(** Attach a client host with the given address to the segment. *)

val root : t -> Nfsg_nfs.Proto.fh
(** Root filehandle of the first (or only) volume. *)

val roots : t -> Nfsg_nfs.Proto.fh list
(** Per-volume root filehandles, fsid order. *)

val restart : t -> downtime:Nfsg_sim.Time.t -> unit
(** Crash the server, wait [downtime], restart it and keep the new
    incarnation in the rig. Runs inside a simulation process. *)

val run : t -> (unit -> 'a) -> 'a
(** Run [f] as the driver process and drain the simulation, with the
    rig env's monitor and long-op dump (from the live incarnation)
    around it, then merge the world's registry into [env.metrics], if
    set. A world runs once: a second [run] raises [Invalid_argument]
    rather than merge the registry twice. *)

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
