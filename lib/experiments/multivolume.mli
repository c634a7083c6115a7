(** Multi-volume exports experiment: three volumes — two single
    spindles and a 3-drive stripe set, the paper-testbed disk
    complement — served by one machine under simultaneous LADDIS-style
    load spread round-robin over the exports.

    Two claims are measured. {e Independence}: gather batches form per
    volume (each [write_layer.vol<k>] batch-size histogram fills on its
    own, metadata-flush savings accrue per volume). {e Isolation}: an
    error window opened on volume 1's spindle mid-measurement leaves
    the WRITE latency of the other two volumes at its fault-free
    level — a flush failing on one export never blocks another's
    plane. *)

type config = {
  load : Nfsg_workload.Laddis.config;
      (** the LADDIS load, its processes round-robin over the 3
          exports with [biods_per_proc] biods each; its seed also seeds
          the segment and the fault injector *)
  offered : float;  (** aggregate offered load, ops/sec *)
  nfsds : int;
  fault_prob : float;  (** per-transaction failure probability in the window *)
}

val default : config
(** The one workload, the committed artifact's. *)

type vol_stats = {
  export : string;
  fsid : int;
  writes : int;  (** WRITE RPCs executed on this volume *)
  batches : int;  (** gather batches flushed *)
  mean_batch : float;
  flushes_saved : int;
  write_mean_us : float;  (** client-side WRITE latency *)
  write_p50_us : float;
  write_p99_us : float;
}

type phase = { point : Nfsg_workload.Laddis.point; vols : vol_stats list }

type result = {
  clean : phase;
  faulted : phase;  (** same seed, error window on volume 1's spindle *)
  errors_injected : int;
}

val run : ?env:Rig.env -> ?cfg:config -> unit -> result
(** Two same-seed worlds: fault-free, then with the error window armed
    inside the measurement interval. Deterministic in [cfg] and [env]
    ({!Rig.default_env} by default). [env.raid_level] sets the stripe
    set's level and [env.scheduler] every spindle's. The stats read each
    world's own registries; [env.metrics] receives a copy of them once
    the world is done. *)

val bench_multivolume : ?env:Rig.env -> unit -> Nfsg_stats.Json.t
(** The committed [BENCH_multivolume.json] artifact ([nfsgather
    multivolume]): per-volume gather and latency rows plus the
    fault-isolation summary, from {!run} of {!default}. Volume
    generations never appear in the document. *)
