(** Prestoserve-style NVRAM write accelerator (paper section 6.3).

    Sits in front of a slower device. Writes no larger than
    [accept_limit] are copied into battery-backed RAM — stable by
    definition — and acknowledged after a fast copy; a background
    flusher drains dirty bytes to the underlying device, doing {e its
    own} clustering of contiguous ranges ("Presto does its own
    clustering"). Writes above the limit are declined and passed
    through synchronously, so "performance degrades to underlying disk
    speed" exactly as the paper warns.

    When the cache is full, accepted writes block until the flusher
    frees space — the accelerated device degrades toward the drain
    rate of the spindle underneath, which is what bounds Table 4.

    The board lends no page ([stable_page] is {!Device.no_page}): its
    newest bytes may sit in NVRAM, not in a page of the platter. *)

type params = {
  capacity : int;  (** NVRAM bytes (Prestoserve boards: ~1 MB) *)
  accept_limit : int;  (** largest request accepted (typically 8 KB) *)
  copy_rate : float;  (** bytes/sec for the CPU copy into NVRAM *)
  copy_overhead : Nfsg_sim.Time.t;  (** fixed cost per accepted write *)
  flush_cluster : int;  (** max bytes per flush transaction *)
  flush_trigger : int;  (** dirty high-watermark starting the flusher *)
  flush_idle : Nfsg_sim.Time.t;  (** age before a below-watermark flush *)
}

val default_params : params

type t
(** One board: the handle its fault hooks and gauges take. *)

val create :
  Nfsg_sim.Engine.t ->
  ?name:string ->
  ?params:params ->
  ?metrics:Nfsg_stats.Metrics.t ->
  ?cpu_charge:(Nfsg_sim.Time.t -> unit) ->
  Device.t ->
  t * Device.t
(** [create eng backing] is [(board, device)]; the device reports
    [accelerated = true]. [cpu_charge] is called with the duration of
    every NVRAM copy so the server CPU account sees the cost the paper
    attributes to Presto ("copy data to NVRAM"). [metrics] registers
    the board's instruments under namespace ["nvram.<name>"]:
    accepted/declined/pass-through write counters, read hit/miss
    counters, flush counters, the [flush_batch_bytes] coalescing
    histogram, and [dirty_bytes] / [battery_ok] gauges (private
    registry when omitted). *)

val dirty_bytes : t -> int
(** Bytes the board's RAM holds or has promised to writes still being
    copied in; never more than its capacity. *)

val drain : t -> unit
(** Push every dirty byte down to the backing device and return once
    the board is clean. Blocks the calling simulation process. *)

(** {1 Fault hooks} *)

val fail_battery : t -> unit
(** Detected battery fault: the board stops accepting new dirty data
    (writes become synchronous pass-through and [accelerated] reports
    false) and starts draining its contents to the backing device. Until
    the drain completes the board's RAM is volatile: a {!Device.t.crash}
    in that window loses it ({!Device.t.recover} replays nothing). *)

val repair_battery : t -> unit
(** Battery replaced: the board accepts and acknowledges writes from
    RAM again. *)

val flush_retries : t -> int
(** Backing-store {!Device.Io_error}s the background flusher absorbed
    (each is retried after a pause; battery-backed data is never lost
    to a transient spindle error). *)
