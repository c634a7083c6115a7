(* The central registry of metric namespaces and instrument names.

   Every [Metrics.counter]/[gauge]/[histogram] registration and every
   [Metrics.find_*] query in lib/ draws its strings from here (the
   M001 lint rule forbids inline literals at those call sites), so a
   namespace typo — "server.vol3" vs "server_vol3" — is an unbound
   identifier at compile time instead of a silently empty query.

   The values are part of the wire format of the metrics JSON and the
   committed BENCH_*.json artifacts: renaming one is a breaking change
   to every consumer of those files and to CI's byte-diffs. *)

module Ns = struct
  let net = "net"
  let rpc_svc = "rpc.svc"
  let rpc_client = "rpc.client"
  let rpc_dupcache = "rpc.dupcache"
  let nfs_client = "nfs.client"
  let server = "server"
  let write_layer = "write_layer"

  (* Devices are named per instance ("rz26-0", "vol2-rz26-1", ...). *)
  let disk name = "disk." ^ name
  let nvram name = "nvram." ^ name
  let raid name = "raid." ^ name

  (* Multi-volume planes; a one-export server keeps the plain
     [server]/[write_layer] namespaces (see Volume.mount). *)
  let server_vol fsid = Printf.sprintf "server.vol%d" fsid
  let write_layer_vol fsid = Printf.sprintf "write_layer.vol%d" fsid

  (* The read-side twin of the write_layer plane: buffer-cache and
     read-ahead accounting, one plane per export. *)
  let read_plane = "read_plane"
  let read_plane_vol fsid = Printf.sprintf "read_plane.vol%d" fsid

  (* The live operability plane. *)
  let journey = "journey"
  let trace = "trace"

  (* Per-client-station attribution ("station.client3", ...). *)
  let station_prefix = "station."
  let station client = station_prefix ^ client

  let station_of ns =
    let p = String.length station_prefix in
    if String.length ns > p && String.sub ns 0 p = station_prefix then
      Some (String.sub ns p (String.length ns - p))
    else None
end

(* {1 net} *)

let datagrams_sent = "datagrams_sent"
let datagrams_lost = "datagrams_lost"
let datagrams_duplicated = "datagrams_duplicated"
let datagrams_blackholed = "datagrams_blackholed"
let bytes_sent = "bytes_sent"

(* {1 rpc.svc} *)

let received = "received"
let garbage = "garbage"
let dispatch_errors = "dispatch_errors"
let duplicate_drops = "duplicate_drops"
let duplicate_replays = "duplicate_replays"

(* {1 rpc.client} *)

let retransmissions = "retransmissions"
let stale_replies = "stale_replies"
let timeouts = "timeouts"
let rtt_us = "rtt_us"

(* {1 rpc.dupcache} *)

let drops = "drops"
let replays = "replays"
let evictions = "evictions"
let expirations = "expirations"
let overflows = "overflows"

(* {1 disk.<name>} *)

let reads = "reads"
let writes = "writes"
let bytes_read = "bytes_read"
let bytes_written = "bytes_written"
let seek_us = "seek_us"
let rotation_us = "rotation_us"
let transfer_us = "transfer_us"
let service_us = "service_us"
let queue_depth = "queue_depth"
let queue_depth_peak = "queue_depth_peak"
let queue_wait_us = "queue_wait_us"
let merged_requests = "merged_requests"
let deadline_promotions = "deadline_promotions"
let barriers = "barriers"

(* {1 nvram.<name>} *)

let writes_accepted = "writes_accepted"
let writes_declined = "writes_declined"
let writes_passthrough = "writes_passthrough"
let read_hits = "read_hits"
let read_misses = "read_misses"
let flushes = "flushes"
let flush_retries = "flush_retries"
let battery_failures = "battery_failures"
let flush_batch_bytes = "flush_batch_bytes"
let dirty_bytes = "dirty_bytes"
let dirty_bytes_peak = "dirty_bytes_peak"
let battery_ok = "battery_ok"

(* {1 raid.<name>} *)

let degraded_reads = "degraded_reads"
let degraded_writes = "degraded_writes"
let full_stripe_writes = "full_stripe_writes"
let rmw_writes = "rmw_writes"
let member_failures = "member_failures"
let rebuilds_started = "rebuilds_started"
let rebuilds_completed = "rebuilds_completed"
let rebuild_chunks = "rebuild_chunks"
let rebuild_bytes = "rebuild_bytes"
let rebuild_active = "rebuild_active"
let journal_replays = "journal_replays"

(* {1 write_layer[.vol<k>]} *)

let batches = "batches"
let gathered_replies = "gathered_replies"
let procrastinations = "procrastinations"
let procrastinate_failures = "procrastinate_failures"
let mbuf_hits = "mbuf_hits"
let rescues = "rescues"
let flush_failures = "flush_failures"
let metadata_flushes_saved = "metadata_flushes_saved"
let batch_size = "batch_size"
let reply_latency_us = "reply_latency_us"

(* {1 read_plane[.vol<k>]} *)

let cache_hits = "cache_hits"
let cache_misses = "cache_misses"
let cache_evictions = "cache_evictions"
let readahead_batches = "readahead_batches"
let readahead_blocks = "readahead_blocks"
let readahead_hits = "readahead_hits"
let readahead_wasted = "readahead_wasted"

(* {1 server[.vol<k>]} *)

(* Mutating procs bounced off a read-only export with NFSERR_ROFS. *)
let rofs_rejections = "rofs_rejections"

(* {1 journey} *)

let records = "records"
let long_ops = "long_ops"
let total_us = "total_us"

(* Per-phase latency histograms, e.g. "phase_us_gather_wait". *)
let phase_us phase = "phase_us_" ^ phase

(* The canonical phase names of a WRITE's journey, in journey order:
   socket wait for an nfsd, dupcache admission, cache insertion, wait
   on the gather plane, the disk flush, and the reply fan-out. *)
let phase_sock_wait = "sock_wait"
let phase_dupcache = "dupcache"
let phase_prep = "prep"
let phase_gather_wait = "gather_wait"
let phase_disk = "disk"
let phase_reply = "reply"

let journey_phases =
  [ phase_sock_wait; phase_dupcache; phase_prep; phase_gather_wait; phase_disk; phase_reply ]

(* A READ's journey replaces the write-oriented gather/disk phases
   with a cache attribution: either the block was resident (hit) or
   the op waited for the device / an in-flight prefetch (miss). *)
let phase_cache_hit = "cache_hit"
let phase_cache_miss_wait = "cache_miss_wait"

(* {1 trace} *)

let dropped = "dropped"

(* {1 station.<client>} *)

let station_ops = "ops"
let station_bytes = "bytes"
let station_lat_us = "lat_us"

(* {1 per-procedure families} *)

(* server[.vol<k>]: one counter per NFS procedure, e.g. "ops_WRITE". *)
let ops proc_name = "ops_" ^ proc_name

(* nfs.client: per-procedure latency histograms, e.g. "lat_us_WRITE". *)
let lat_us proc_name = "lat_us_" ^ proc_name
