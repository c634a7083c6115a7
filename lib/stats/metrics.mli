(** Typed metrics registry: counters, gauges and log-bucketed
    histograms under per-subsystem namespaces, with a deterministic
    JSON reporter.

    Registration is {e find-or-create}: asking for an instrument that
    already exists returns the existing one, so a server restarted
    within one world keeps counting where its previous incarnation
    stopped. Each world has its own registry; a sink that collects
    several worlds does so through {!merge_into}. Asking for a name
    that exists with a different kind raises [Invalid_argument].

    Everything here is driven by the simulation, so a registry's JSON
    is a pure function of the run: same seed, same bytes. *)

type t
type counter
type gauge

type peak
(** A high-watermark: a gauge that only {!set_max} raises, and that
    {!merge_into} merges by maximum. It reads back, and is reported,
    as a gauge. *)

val create : unit -> t

(** {1 Registration} *)

val counter : t -> ns:string -> string -> counter
val gauge : t -> ns:string -> string -> gauge
val peak : t -> ns:string -> string -> peak

val histogram :
  t -> ns:string -> ?least:float -> ?growth:float -> ?buckets:int -> string -> Histogram.t
(** Bucket parameters are used only on first registration; later calls
    return the existing histogram unchanged. *)

(** {1 Instrument operations} *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val set : gauge -> float -> unit

val set_max : peak -> float -> unit
(** Keep the high-watermark: [set_max p v] raises [p] to [v] if larger. *)

val span : Nfsg_sim.Engine.t -> Histogram.t -> (unit -> 'a) -> 'a
(** [span eng h f] runs [f] and records its elapsed {e simulated} time
    in [h], in microseconds — including time blocked on resources,
    disks or the network. Records on exception too, then re-raises.
    Must run inside a simulation process. *)

(** {1 Reading back} (reporters and tests) *)

val namespaces : t -> string list
(** Every namespace with at least one instrument, sorted. *)

val find_counter : t -> ns:string -> string -> int option

val find_gauge : t -> ns:string -> string -> float option
(** A gauge's or a peak's value. *)

val find_histogram : t -> ns:string -> string -> Histogram.t option

val count : t -> ns:string -> string -> int
(** A counter's value; 0 when it was never registered. *)

val stat : t -> ns:string -> string -> (Histogram.t -> float) -> float
(** [stat t ~ns name f] is [f] of a histogram; 0.0 when it was never
    registered. *)

val merge_into : into:t -> t -> unit
(** Fold every instrument of the second registry into [into]: counters
    add, a gauge takes the second registry's value (so a sink keeps the
    last world's gauge), a peak keeps the larger of the two (so a sink
    holds the highest peak of any world), histograms add their buckets;
    an instrument [into] lacks arrives as a copy. Kind mismatches raise
    [Invalid_argument], as registration does. *)

(** {1 Reporting} *)

val to_string : ?pretty:bool -> t -> string
(** [{"schema": "nfsgather-metrics/1", "namespaces": {ns: {"counters":
    {...}, "gauges": {...}, "histograms": {name: {count, total, mean,
    p50, p99, buckets: [[lo, hi, count], ...]}}}}}] with namespaces and
    names sorted — byte-identical for identical runs. Peaks are listed
    among the gauges. *)
