(** Per-operation journey records — the live operability plane.

    A journey is created by the RPC service loop when a request is
    admitted, stamped by each layer it passes through (socket pickup,
    duplicate cache, gather plane, disk flush) and finished when its
    reply goes out. Finishing aggregates per-phase latency histograms
    (namespace ["journey"]), attributes the op to its client station
    (namespace ["station.<client>"]) and, when the end-to-end latency
    crosses the plane's threshold, keeps the journey in a dedicated
    long-op ring, rendered only when the ring is dumped.

    The long-op ring is separate from the write layers' event rings on
    purpose: a saturating write load wraps an event ring in seconds,
    and long-op evidence must not be overwritten by routine events.
    Each long-op record lost counts in ["trace"]/["dropped"]. *)

type t
(** One operation's journey. *)

type plane
(** The aggregation plane: histograms, station counters, long-op ring. *)

val create :
  Nfsg_sim.Engine.t ->
  metrics:Metrics.t ->
  ?threshold:Nfsg_sim.Time.t ->
  unit ->
  plane
(** [threshold] enables long-op records for ops slower end-to-end than
    the given span (disabled when omitted); the long-op ring keeps the
    newest 512 of them. *)

val start : plane -> client:string -> xid:int -> arrival:Nfsg_sim.Time.t -> t
(** A fresh journey whose arrival stamp is the datagram's enqueue time
    at the server socket. *)

val set_op : t -> proc:string -> bytes:int -> unit
(** Fill in the decoded procedure name and payload size. *)

val set_cache_phase : t -> hit:bool -> unit
(** Attribute this journey's middle phase to the buffer cache (READ
    path) instead of the write plane: [hit] means every block was
    resident, [not hit] that the op waited on the device or an
    in-flight prefetch. Finishing then feeds the cache-phase histograms
    and the long-op record renders [cache=hit|miss cache_wait=..us]
    in place of the write-oriented [gather_wait]/[disk] fields. *)

(** Stamps are idempotent where re-stamping would distort the phase
    (pickup/admitted/queued take the first call), and last-write-wins
    for the disk pair (a failed flush retries; the completed submission
    is the one the reply waited on). *)

val stamp_pickup : t -> now:Nfsg_sim.Time.t -> unit
val stamp_admitted : t -> now:Nfsg_sim.Time.t -> unit
val stamp_queued : t -> now:Nfsg_sim.Time.t -> unit
val stamp_disk_submit : t -> now:Nfsg_sim.Time.t -> unit
val stamp_disk_complete : t -> now:Nfsg_sim.Time.t -> unit

val finish : plane -> t -> unit
(** Stamp the reply instant, normalize the timeline (unset stamps
    collapse onto their predecessor, so phases are non-negative and sum
    exactly to the total), aggregate, attribute, and emit a long-op
    record if over threshold. Call exactly once, from the reply path. *)

type phases = {
  sock_wait : Nfsg_sim.Time.t;  (** arrival → nfsd pickup *)
  dupcache : Nfsg_sim.Time.t;  (** pickup → dupcache admission *)
  prep : Nfsg_sim.Time.t;  (** admission → descriptor on the gather plane *)
  gather_wait : Nfsg_sim.Time.t;  (** gather plane → flush submission *)
  disk : Nfsg_sim.Time.t;  (** flush submission → completion *)
  reply_path : Nfsg_sim.Time.t;  (** completion → reply on the wire *)
  total : Nfsg_sim.Time.t;
}

val phases : t -> phases
(** Valid after {!finish} (timestamps normalized). *)

val dropped : plane -> int
(** Long-op records lost to ring wrap-around: the ["trace"/"dropped"]
    counter, which every plane on the registry adds its own losses to
    as they happen, so a restarted server's losses add to its earlier
    incarnations'. *)

val long_op_count : plane -> int

val render_long_ops : plane -> string
(** Every retained long-op record, oldest first, one line each, with a
    leading notice of the records this plane's ring overwrote. *)
