(** Log-bucketed histogram for latency-like quantities.

    Buckets grow geometrically from [least] with ratio [growth], so a
    histogram spanning nanoseconds to seconds needs only a few dozen
    buckets while keeping relative error bounded by [growth - 1]. *)

type t

val create : ?least:float -> ?growth:float -> ?buckets:int -> unit -> t
(** Defaults: [least = 1.0], [growth = 1.25], [buckets = 128]. Values
    below [least] land in bucket 0 (the underflow bucket); values
    beyond the last bucket are clamped into it. *)

val add : t -> float -> unit
val count : t -> int
val total : t -> float
(** Sum of all recorded values. *)

val mean : t -> float

val quantile : t -> float -> float
(** [quantile h q] for [q] in [\[0,1\]] (clamped), estimated as the
    {e geometric midpoint} of the bucket containing the [q]-th sample —
    the upper edge would systematically overstate by up to
    [growth - 1]. The underflow bucket reports its arithmetic midpoint
    [least / 2]. [q = 1.0] lands on the last sample. 0 when empty. *)

val median : t -> float
val p99 : t -> float

val buckets : t -> (float * float * int) list
(** Non-empty buckets, ascending, as [(lower_edge, upper_edge, count)].
    The underflow bucket's lower edge is 0. *)

val copy : t -> t
(** An independent histogram with the same shape and counts. *)

val merge_into : into:t -> t -> unit
(** Add [src]'s counts into [into]. Raises [Invalid_argument] if the
    two histograms have different shapes. *)

val reset : t -> unit
