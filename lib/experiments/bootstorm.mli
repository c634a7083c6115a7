(** Boot-storm capacity bench: ladder a fleet of diskless clients all
    booting from one shared read-only export, with server read-ahead
    off vs on. Offered load for a fleet of [k] is [k] times the
    one-client rate (perfect scaling), so the achieved curve knees
    exactly like the LADDIS sweep — and the knee is the export's
    capacity in {e clients}. *)

type sweep = {
  seed : int;
  nfsds : int;
  cache_blocks : int;
      (** server buffer-cache bound — deliberately smaller than the
          fleet's hot set so the cold storm actually misses *)
  clients_max : int;  (** ladder cap *)
  stagger : Nfsg_sim.Time.t;  (** power-on spacing between fleet members *)
  knee_frac : float;  (** saturated when achieved < frac * offered *)
  readahead_side : bool option;
      (** run one side of the pair only ([Some true] = read-ahead on,
          [Some false] = off); [None] = both *)
}

val default_sweep : sweep

val ladder : int -> int list
(** Fleet sizes walked for a cap: 1, 2, 4, ... cap (pure, testable). *)

type variant = { label : string; readahead : Nfsg_ufs.Buffer_cache.readahead option }

val variants : variant list
(** The configuration pair: ["no-readahead"] and ["readahead"]. *)

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
  label : string;
  readahead_on : bool;
  points : point list;  (** ladder order *)
  knee : int option;  (** index of the first sagging rung *)
  capacity_ops : float;  (** ops/s, per {!Laddis_curve.capacity_rating} *)
  capacity_clients : int;  (** biggest fleet the export kept up with *)
}

val run : ?env:Rig.env -> ?sweep:sweep -> unit -> curve list
(** Walk [sweep] (default {!default_sweep}); every rung is a fresh
    world built under [env]. *)

val report : ?env:Rig.env -> ?sweep:sweep -> unit -> Nfsg_stats.Report.t

val bench_bootstorm : ?env:Rig.env -> ?sweep:sweep -> unit -> Nfsg_stats.Json.t
(** The committed BENCH_bootstorm.json artifact: one fixed modest
    ladder (same bytes regardless of quick/full); a caller's [sweep]
    replaces it. *)
