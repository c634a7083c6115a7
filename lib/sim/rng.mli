(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the simulation draws from an [Rng.t]
    seeded explicitly, so experiment runs are reproducible and
    independent streams can be split off for independent subsystems. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds give equal
    streams. *)

val split : t -> t
(** [split r] derives an independent generator from [r], advancing
    [r]. *)

val bits64 : t -> int64
(** Next raw 64 random bits. *)

val int : t -> int -> int
(** [int r bound] is uniform in [\[0, bound)]. [bound] must be
    positive. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val uniform : t -> float -> float -> float
(** [uniform r a b] is uniform in [\[a, b)]. *)

val bool : t -> float -> bool
(** [bool r p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential r mean] draws from an exponential distribution with
    the given mean (used for Poisson arrival processes). *)

val weighted : t -> (float * 'a) list -> 'a
(** [weighted r choices] picks an element with probability
    proportional to its weight. Weights must be non-negative with a
    positive sum. *)
