(** The I/O-scheduler comparison bench: the same mixed multi-client
    LADDIS-style load over one spindle, once per scheduling policy —
    [`Fifo] with merging off (the reference port's driver), [`Elevator]
    with coalescing, and [`Deadline] with coalescing and starvation
    control. Everything derives from the config seed, so equal configs
    give equal bytes. *)

type config = {
  load : Nfsg_workload.Laddis.config;
      (** the LADDIS load, [biods_per_proc] biods per client; its seed
          also seeds the segment *)
  offered : float;  (** aggregate offered ops/sec *)
  nfsds : int;
}

val default : config
(** The one workload, the committed artifact's: saturating, so a queue
    builds and the policies diverge. *)

type variant = { label : string; scheduler : Nfsg_disk.Disk.scheduler; merge : bool }
(** One compared policy. {!run} walks three, in bench-row order: fifo
    (merge off), elevator, deadline+merge (promoting requests that
    waited 300 ms). *)

type row = {
  variant : variant;
  point : Nfsg_workload.Laddis.point;
  write_mean_us : float;
  write_p50_us : float;
  write_p99_us : float;
  transactions : int;  (** physical disk transactions (post-merge) *)
  merged : int;  (** requests coalesced away *)
  promotions : int;  (** deadline promotions of starved requests *)
  barriers : int;
  queue_wait_p99_us : float;
}

val run : ?env:Rig.env -> ?cfg:config -> unit -> row list
(** One world per variant, same seed: only the spindle's service order
    differs between rows. Each world is built under [env]
    ({!Rig.default_env} by default), whose [scheduler] replaces every
    variant's own. A row reads its world's own registry; [env.metrics]
    receives a copy of it once the world is done. *)

val bench_iosched : ?env:Rig.env -> unit -> Nfsg_stats.Json.t
(** The committed BENCH_iosched.json artifact ([nfsgather iosched]):
    {!run} of {!default}, byte-deterministic. CI regenerates it and
    byte-diffs. *)

val investigate : ?env:Rig.env -> string -> string
(** [investigate label] reruns the bench world of the named variant
    with journey tracing armed at 300 ms and renders the evidence side
    by side: client-visible WRITE latency,
    the server's journey total and per-phase p99s, RPC retransmission
    counters, duplicate-cache activity, and every retained long-op
    record. The reproducible form of the EXPERIMENTS.md tail
    investigation ([nfsgather iosched-probe]). Raises
    [Invalid_argument] for an unknown variant label. *)
