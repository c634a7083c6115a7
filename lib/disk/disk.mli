(** Moving-head disk model (the paper's RZ26-class SCSI spindle).

    Service time for a request is

    [command overhead + seek(cylinder distance) + rotational alignment
     + length / media rate]

    Seek time follows the classical [a + b*sqrt(d)] curve, normalised
    by the cylinder span so small test disks seek like big ones.
    Rotational alignment is positional: the platter angle advances with
    the simulation clock, so a stream of back-to-back sequential 8K
    writes that each arrive "just too late" pays nearly a full rotation
    — the "missed rotations" the paper says clustering avoids.

    The drive consumes a tagged submission queue ({!Io}): batches of
    requests separated by barriers, serviced by a daemon whose
    scheduler works over the whole pending window. [`Fifo] serves in
    arrival order (the reference port's driver behaviour); [`Elevator]
    is a C-LOOK sweep serving the nearest cylinder at or beyond the
    head, wrapping to the lowest; [`Deadline] is the elevator plus
    starvation control — a request whose queue wait exceeds the
    deadline is served next regardless of position, bounding the tail
    of the [queue_wait_us] histogram. Physically adjacent
    same-direction requests are coalesced into single transactions
    (one seek, one rotational wait, one transfer), counted by the
    [merged_requests] metric. A barrier fences only its own
    submission batch: the batch's later items wait for its earlier
    ones, while other batches' requests are scheduled straight across
    it — one gathered flush's data/metadata ordering never collapses
    the whole queue into submission order. *)

type geometry = {
  capacity : int;  (** bytes *)
  track_bytes : int;  (** bytes per cylinder *)
  rpm : float;
  media_rate : float;  (** sustained transfer, bytes/sec *)
  seek_single : Nfsg_sim.Time.t;  (** track-to-track seek *)
  seek_full : Nfsg_sim.Time.t;  (** full-span seek *)
  command_overhead : Nfsg_sim.Time.t;  (** fixed per-request cost *)
}

val rz26 : ?capacity:int -> unit -> geometry
(** RZ26-inspired default geometry (5400 RPM, ~2.6 MB/s media rate).
    Default [capacity] is 96 MiB — big enough for every experiment. A
    disk's memory grows with the bytes written to it, not with its
    capacity. *)

type scheduler = Fifo | Elevator | Deadline

val create :
  Nfsg_sim.Engine.t ->
  ?name:string ->
  ?metrics:Nfsg_stats.Metrics.t ->
  ?on_transaction:(bytes:int -> unit) ->
  ?scheduler:scheduler ->
  ?deadline:Nfsg_sim.Time.t ->
  ?merge:bool ->
  ?merge_limit:int ->
  geometry ->
  Device.t
(** A fresh zero-filled disk served by a spawned daemon process. The
    platter is held in pages of {!Device.page_bytes} (8 KB), each
    allocated by the first write that touches it; never-written bytes
    read as zeros. [stable_page] lends a page once a write has created
    it, changes it in place whenever a write of its range lands, and
    lends neither a page never written nor the short last page of a
    capacity that is not a whole number of pages.
    [on_transaction] fires at each physical transaction completion
    (once per merged chain), letting the caller account
    driver/interrupt CPU cost. [deadline] (default 30 ms) is the
    [`Deadline] scheduler's promotion threshold; [merge] (default on)
    enables adjacent-request coalescing bounded by [merge_limit]
    (default 128 KiB). [metrics] registers the spindle's instruments
    under namespace ["disk.<name>"]: read/write counters, the
    seek/rotation/transfer service-time split (histograms, µs),
    queue-depth and queue-wait distributions, and
    merge/promotion/barrier counters (private registry when
    omitted). *)

val seek_time : geometry -> cylinders:int -> distance:int -> Nfsg_sim.Time.t
(** Exposed for tests: seek duration for a head movement of [distance]
    cylinders on a disk with [cylinders] total. *)
