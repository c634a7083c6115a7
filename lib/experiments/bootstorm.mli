(** Boot-storm capacity bench: ladder a fleet of diskless clients all
    booting from one shared read-only export, with server read-ahead
    off vs on. Offered load for a fleet of [k] is [k] times the
    one-client rate (perfect scaling), so the achieved curve knees
    exactly like the LADDIS sweep — and the knee is the export's
    capacity in {e clients}. *)

type sweep = {
  nfsds : int;
  cache_blocks : int;
      (** server buffer-cache bound — deliberately smaller than the
          fleet's hot set so the cold storm actually misses *)
  clients_max : int;  (** ladder cap *)
  stagger : Nfsg_sim.Time.t;  (** power-on spacing between fleet members *)
  knee_frac : float;  (** saturated when achieved < frac * offered *)
}

val default_sweep : sweep

val ladder : int -> int list
(** Fleet sizes walked for a cap: 1, 2, 4, ... cap (pure, testable). *)

(** {1 Running} *)

type point = {
  clients : int;
  offered : float;  (** clients x the one-client rate, ops/s *)
  achieved : float;  (** ops/s over the storm window *)
  avg_latency_ms : float;  (** per-RPC *)
  ops_completed : int;
  mean_boot_ms : float;  (** per-client MOUNT-to-prompt time *)
  cache_hit_rate : float;  (** server cache, storm window only *)
  readahead_blocks : int;
  readahead_hits : int;
  readahead_wasted : int;
}

type curve = {
  label : string;  (** ["no-readahead"] or ["readahead"] *)
  readahead_on : bool;
  points : point list;  (** ladder order *)
  knee : int option;  (** index of the first sagging rung *)
  capacity_ops : float;  (** ops/s, per {!Laddis_curve.capacity_rating} *)
  capacity_clients : int;  (** biggest fleet the export kept up with *)
}

val curve : ?env:Rig.env -> sweep -> readahead:bool -> curve
(** One side: [sweep]'s fleet ladder with server read-ahead off, or on
    at the default policy; every rung is a fresh world built under
    [env]. *)

val bench_bootstorm : ?env:Rig.env -> unit -> Nfsg_stats.Json.t
(** The committed BENCH_bootstorm.json artifact ([nfsgather
    bootstorm]): both sides' {!curve} over {!default_sweep}, read-ahead
    off first. *)
