(** Capacity-curve sweep: walk an offered-load ladder per server
    configuration until the achieved rate falls below the offered rate
    (the saturation knee), LADDIS style. Each configuration's curve
    yields a capacity rating — the paper's Figure 2/3 comparison run
    as one deterministic benchmark over the gathering / NVRAM /
    scheduler / stripe-width grid. {!curve} is the one ladder walker:
    the grid and {!Experiments.figure2}/[figure3] both climb it. *)

val procs_for : procs_max:int -> float -> int
(** Load stations driving a given offered rate: one per ~10 ops/s,
    clamped to [4, procs_max]. *)

type variant = { label : string; spec : Rig.spec }

val grid : variant list
(** The curated configuration grid: baseline, deadline, gather, nvram,
    gather+stripe3. *)

val detect_knee : frac:float -> (float * float) list -> int option
(** [detect_knee ~frac points] is the index of the first (offered,
    achieved) rung where achieved < frac * offered, in ladder order;
    [None] when the ladder never saturates. Pure — unit-testable on
    synthetic curves. *)

val capacity_rating : frac:float -> (float * float) list -> float
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

val curve :
  ?env:Rig.env ->
  knee_frac:float ->
  label:string ->
  Rig.spec ->
  load:(float -> Nfsg_workload.Laddis.config) ->
  float list ->
  curve
(** [curve ~knee_frac ~label spec ~load loads] walks the offered rates
    [loads] in order, one fresh world [Rig.make spec] built under [env]
    per rung, driven by [load offered] from clients of its
    [biods_per_proc] biods. It stops after the first rung whose
    achieved rate is below [knee_frac] x offered, the knee. With
    [knee_frac = 0.0] every load runs and [capacity] is the best
    achieved rate. *)

val bench_laddis_curve : ?env:Rig.env -> unit -> Nfsg_stats.Json.t
(** The committed BENCH_laddis_curve.json artifact ([nfsgather
    laddis-curve]): each {!grid} variant's {!curve} over one arithmetic
    ladder of up to 12 rungs, 60 ops/s apart, with {!procs_for}
    stations per rung and a knee fraction of 0.9. *)
