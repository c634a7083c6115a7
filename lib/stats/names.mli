(** Central registry of metric namespaces and instrument names.

    The M001 lint rule forbids inline string literals at
    [Metrics.counter]/[gauge]/[peak]/[histogram]/[find_*] call sites: all
    names come from here, so a namespace typo is a compile error.
    These strings appear in the metrics JSON and the committed
    BENCH_*.json artifacts — renaming one breaks CI's byte-diffs. *)

module Ns : sig
  val net : string
  val rpc_svc : string
  val rpc_client : string
  val rpc_dupcache : string
  val nfs_client : string
  val server : string
  val write_layer : string

  val disk : string -> string
  (** [disk name] is ["disk." ^ name], e.g. ["disk.rz26-0"]. *)

  val nvram : string -> string
  (** [nvram name] is ["nvram." ^ name]. *)

  val raid : string -> string
  (** [raid name] is ["raid." ^ name] (redundant array instruments). *)

  val server_vol : int -> string
  (** [server_vol k] is ["server.vol<k>"] (multi-volume exports). *)

  val write_layer_vol : int -> string
  (** [write_layer_vol k] is ["write_layer.vol<k>"]. *)

  val read_plane : string
  (** Buffer-cache and read-ahead accounting (one-export server). *)

  val read_plane_vol : int -> string
  (** [read_plane_vol k] is ["read_plane.vol<k>"]. *)

  val journey : string
  (** Per-op journey phase decomposition (the live operability plane). *)

  val trace : string
  (** Flight-recorder health: the long-op rings' loss counter. *)

  val station : string -> string
  (** [station c] is ["station." ^ c] — per-client attribution. *)

  val station_of : string -> string option
  (** [station_of ns] is [Some client] iff [ns] is a station namespace. *)
end

(** {1 net} *)

val datagrams_sent : string
val datagrams_lost : string
val datagrams_duplicated : string
val datagrams_blackholed : string
val bytes_sent : string

(** {1 rpc.svc} *)

val received : string
val garbage : string
val dispatch_errors : string
val duplicate_drops : string
val duplicate_replays : string

(** {1 rpc.client} *)

val retransmissions : string
val stale_replies : string
val timeouts : string
val rtt_us : string

(** {1 rpc.dupcache} *)

val drops : string
val replays : string
val evictions : string
val expirations : string
val overflows : string

(** {1 disk.<name>} *)

val reads : string
val writes : string
val bytes_read : string
val bytes_written : string
val seek_us : string
val rotation_us : string
val transfer_us : string
val service_us : string
val queue_depth : string
val queue_depth_peak : string

val queue_wait_us : string
(** Histogram: submission-to-service-start wait per request, µs — the
    starvation measure the Deadline scheduler bounds. *)

val merged_requests : string
(** Counter: requests absorbed into a physically adjacent neighbour's
    transaction (k-way merge counts k-1). *)

val deadline_promotions : string
(** Counter: starved requests the Deadline scheduler served out of
    elevator order. *)

val barriers : string
(** Counter: barrier items retired by the scheduler. *)

(** {1 nvram.<name>} *)

val writes_accepted : string
val writes_declined : string
val writes_passthrough : string
val read_hits : string
val read_misses : string
val flushes : string
val flush_retries : string
val battery_failures : string
val flush_batch_bytes : string
val dirty_bytes : string
val dirty_bytes_peak : string
val battery_ok : string

(** {1 raid.<name>} *)

val degraded_reads : string
val degraded_writes : string
val full_stripe_writes : string
val rmw_writes : string
val member_failures : string
val rebuilds_started : string
val rebuilds_completed : string
val rebuild_chunks : string
val rebuild_bytes : string
val rebuild_active : string
val journal_replays : string

(** {1 write_layer[.vol<k>]} *)

val batches : string
val gathered_replies : string
val procrastinations : string
val procrastinate_failures : string
val mbuf_hits : string
val rescues : string
val flush_failures : string
val metadata_flushes_saved : string
val batch_size : string
val reply_latency_us : string

(** {1 read_plane[.vol<k>]} *)

val cache_hits : string
(** Counter: demand reads served from a resident block. *)

val cache_misses : string
(** Counter: demand reads that waited — on the device or on an
    in-flight prefetch. *)

val cache_evictions : string
(** Counter: clean blocks evicted under the capacity budget. *)

val readahead_batches : string
(** Counter: prefetch batches submitted by the read-ahead engine. *)

val readahead_blocks : string
(** Counter: blocks requested across all prefetch batches. *)

val readahead_hits : string
(** Counter: prefetched blocks later consumed by a demand read. *)

val readahead_wasted : string
(** Counter: prefetched blocks evicted (or dropped) before any demand
    read touched them — the cost of guessing wrong. *)

(** {1 server[.vol<k>]} *)

val rofs_rejections : string
(** Counter: mutating procs bounced off a read-only export with
    NFSERR_ROFS before reaching the write layer. *)

(** {1 journey} *)

val records : string
(** Counter: journeys finished (one per dispatched, replied-to op). *)

val long_ops : string
(** Counter: journeys whose total latency crossed the long-op
    threshold; each emitted a record into the long-op ring. *)

val total_us : string
(** Histogram: end-to-end journey latency (datagram arrival at the
    server socket to reply transmission), µs. *)

val phase_us : string -> string
(** [phase_us p] is ["phase_us_" ^ p] — per-phase journey histograms. *)

val phase_sock_wait : string
val phase_dupcache : string
val phase_prep : string
val phase_gather_wait : string
val phase_disk : string
val phase_reply : string

val journey_phases : string list
(** The six phases, in journey order. *)

val phase_cache_hit : string
(** READ journeys whose blocks were all resident: the cache phase is
    the (near-zero) in-core copy time. *)

val phase_cache_miss_wait : string
(** READ journeys that waited on the device or an in-flight prefetch;
    the histogram records the wait. *)

(** {1 trace} *)

val dropped : string
(** Counter: long-op records the journey rings overwrote, summed over
    incarnations — nonzero means the operability plane lost history. *)

(** {1 station.<client>} *)

val station_ops : string
val station_bytes : string
val station_lat_us : string

(** {1 per-procedure families} *)

val ops : string -> string
(** [ops p] is ["ops_" ^ p] — the server[.vol<k>] op counters. *)

val lat_us : string -> string
(** [lat_us p] is ["lat_us_" ^ p] — nfs.client latency histograms. *)
