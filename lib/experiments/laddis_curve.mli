(** Capacity-curve sweep: walk an offered-load ladder per server
    configuration until the achieved rate falls below the offered rate
    (the saturation knee), LADDIS style. Each configuration's curve
    yields a capacity rating — the paper's Figure 2/3 comparison run
    as one deterministic benchmark over the gathering / NVRAM /
    scheduler / stripe-width grid. *)

type sweep = {
  seed : int;
  files_per_proc : int;
  file_size : int;  (** bytes per pre-created file *)
  warmup : Nfsg_sim.Time.t;
  measure : Nfsg_sim.Time.t;
  nfsds : int;
  offered_start : float;  (** first rung, ops/s *)
  offered_step : float;  (** rung spacing, ops/s *)
  max_points : int;  (** ladder cap if the knee never appears *)
  procs_max : int;  (** load-generator pool ceiling *)
  knee_frac : float;  (** saturated when achieved < frac * offered *)
  configs : string list option;
      (** run only the {!grid} configurations with these labels, in
          grid order; [None] = the whole grid. An unknown label makes
          the sweep raise [Invalid_argument] before it builds a world. *)
}

val default_sweep : sweep

val procs_for : procs_max:int -> float -> int
(** Load stations driving a given offered rate: one per ~10 ops/s,
    clamped to [4, procs_max]. *)

type variant = { label : string; spec : Rig.spec }

val grid : variant list
(** The curated configuration grid: baseline, gather, gather+deadline,
    nvram, gather+stripe3. *)

val detect_knee : ?frac:float -> (float * float) list -> int option
(** [detect_knee points] is the index of the first (offered, achieved)
    rung where achieved < frac * offered, in ladder order; [None] when
    the ladder never saturates. Pure — unit-testable on synthetic
    curves. [frac] defaults to [default_sweep.knee_frac]. *)

val capacity_rating : ?frac:float -> (float * float) list -> float
(** Best achieved rate among rungs the server kept up with
    (achieved >= frac * offered); falls back to the best achieved
    anywhere when every rung sagged, and 0 for an empty ladder. *)

(** {1 Running} *)

type curve = {
  label : string;
  spec : Rig.spec;
  points : Nfsg_workload.Laddis.point list;  (** ladder order *)
  knee : int option;  (** index of the first sagging rung *)
  capacity : float;  (** ops/s rating per {!capacity_rating} *)
}

val run : ?env:Rig.env -> ?sweep:sweep -> unit -> curve list
(** Walk [sweep] (default {!default_sweep}); every rung is a fresh
    world built under [env]. *)

val report : ?env:Rig.env -> ?sweep:sweep -> unit -> Nfsg_stats.Report.t

val bench_laddis_curve : ?env:Rig.env -> ?sweep:sweep -> unit -> Nfsg_stats.Json.t
(** The committed BENCH_laddis_curve.json artifact: one fixed modest
    sweep (same bytes regardless of quick/full); a caller's [sweep]
    replaces it. *)
