(* Per-operation journey records: the live operability plane's core.

   Every dispatched request gets a journey carrying timestamps for each
   station it passes through on the way to its reply:

     arrival       datagram lands in the server's socket buffer
     pickup        an nfsd takes it off the socket
     admitted      the duplicate cache rules it new work
     queued        (writes) the data is in the cache and the
                   descriptor joins the gather plane
     disk_submit   the metadata writer starts the covering flush
     disk_complete the flush's device submission completed
     reply         the reply leaves via Svc.send_reply

   At [finish] the stamps become six per-phase duration histograms
   (namespace "journey") plus an end-to-end total, per-client station
   attribution (namespace "station.<client>"), and — if the total
   crossed the configured threshold — the journey itself in the plane's
   long-op ring, rendered only when the ring is dumped.

   The long-op ring is deliberately NOT a write layer's event ring:
   under a saturating write load the gather plane records several
   events per WRITE and wraps its ring in seconds, which would silently
   overwrite exactly the slow-op evidence this plane exists to keep.
   A dedicated ring plus the "trace"/"dropped" counter, which counts
   each long-op record the ring overwrites, makes any loss visible
   instead of silent. *)

open Nfsg_sim

(* Sentinel for a stamp that was never taken: simulated time is never
   negative. At [finish] unset stamps collapse onto their predecessor,
   so phases stay monotone and sum exactly to the total. *)
let unset = -1

(* READ ops don't cross the gather plane: their middle phase is the
   buffer cache, and the interesting split is hit (all blocks resident)
   vs miss (the op waited on the device or an in-flight prefetch). *)
type cache_phase = Cache_none | Cache_hit | Cache_miss

type t = {
  client : string;
  xid : int;
  mutable proc : string;  (** "" until the dispatcher decodes the call *)
  mutable bytes : int;
  mutable cache : cache_phase;
  arrival : Time.t;
  mutable pickup : Time.t;
  mutable admitted : Time.t;
  mutable queued : Time.t;
  mutable disk_submit : Time.t;
  mutable disk_complete : Time.t;
  mutable reply : Time.t;
}

let start _p ~client ~xid ~arrival =
  {
    client;
    xid;
    proc = "";
    bytes = 0;
    cache = Cache_none;
    arrival;
    pickup = unset;
    admitted = unset;
    queued = unset;
    disk_submit = unset;
    disk_complete = unset;
    reply = unset;
  }

(* A client station's attribution instruments, resolved on its first
   finished op. *)
type station = { ops : Metrics.counter; bytes : Metrics.counter; lat_us : Histogram.t }

type plane = {
  eng : Engine.t;
  metrics : Metrics.t;
  threshold : Time.t option;
  ring : t Trace.t;  (** long-op journeys only; drop-safe by isolation *)
  h_total : Histogram.t;
  h_sock : Histogram.t;
  h_dup : Histogram.t;
  h_prep : Histogram.t;
  h_gather : Histogram.t;
  h_disk : Histogram.t;
  h_reply : Histogram.t;
  h_cache_hit : Histogram.t;
  h_cache_miss : Histogram.t;
  c_records : Metrics.counter;
  c_long_ops : Metrics.counter;
  c_dropped : Metrics.counter;
  stations : (string, station) Hashtbl.t;
}

let create eng ~metrics ?threshold () =
  let ns = Names.Ns.journey in
  let phase p = Metrics.histogram metrics ~ns (Names.phase_us p) in
  {
    eng;
    metrics;
    threshold;
    ring = Trace.create eng ~capacity:512 ~dummy:(start () ~client:"" ~xid:0 ~arrival:0);
    h_total = Metrics.histogram metrics ~ns Names.total_us;
    h_sock = phase Names.phase_sock_wait;
    h_dup = phase Names.phase_dupcache;
    h_prep = phase Names.phase_prep;
    h_gather = phase Names.phase_gather_wait;
    h_disk = phase Names.phase_disk;
    h_reply = phase Names.phase_reply;
    h_cache_hit = phase Names.phase_cache_hit;
    h_cache_miss = phase Names.phase_cache_miss_wait;
    c_records = Metrics.counter metrics ~ns Names.records;
    c_long_ops = Metrics.counter metrics ~ns Names.long_ops;
    c_dropped = Metrics.counter metrics ~ns:Names.Ns.trace Names.dropped;
    stations = Hashtbl.create 16;
  }

let set_op j ~proc ~bytes =
  j.proc <- proc;
  j.bytes <- bytes

let set_cache_phase j ~hit = j.cache <- (if hit then Cache_hit else Cache_miss)

let stamp_pickup j ~now = if j.pickup = unset then j.pickup <- now
let stamp_admitted j ~now = if j.admitted = unset then j.admitted <- now
let stamp_queued j ~now = if j.queued = unset then j.queued <- now

(* A flush that fails re-queues its descriptors for another round, so a
   later round may re-stamp: the LAST submission is the one whose
   completion precedes the reply, and that pair is what the disk phase
   must measure. *)
let stamp_disk_submit j ~now = j.disk_submit <- now
let stamp_disk_complete j ~now = j.disk_complete <- now

(* Fill unset stamps with their predecessor so the timeline is monotone
   and the six phases partition [arrival, reply] exactly. *)
let normalize j =
  let after prev v = if v = unset || v < prev then prev else v in
  j.pickup <- after j.arrival j.pickup;
  j.admitted <- after j.pickup j.admitted;
  j.queued <- after j.admitted j.queued;
  j.disk_submit <- after j.queued j.disk_submit;
  j.disk_complete <- after j.disk_submit j.disk_complete;
  j.reply <- after j.disk_complete j.reply

type phases = {
  sock_wait : Time.t;
  dupcache : Time.t;
  prep : Time.t;
  gather_wait : Time.t;
  disk : Time.t;
  reply_path : Time.t;
  total : Time.t;
}

let phases j =
  {
    sock_wait = j.pickup - j.arrival;
    dupcache = j.admitted - j.pickup;
    prep = j.queued - j.admitted;
    gather_wait = j.disk_submit - j.queued;
    disk = j.disk_complete - j.disk_submit;
    reply_path = j.reply - j.disk_complete;
    total = j.reply - j.arrival;
  }

let render j =
  let ph = phases j in
  let us t = Printf.sprintf "%.0f" (Time.to_us_f t) in
  match j.cache with
  | Cache_none ->
      Printf.sprintf
        "long-op %s client=%s xid=%d bytes=%d total=%sus sock_wait=%sus dupcache=%sus prep=%sus \
         gather_wait=%sus disk=%sus reply=%sus"
        (if j.proc = "" then "?" else j.proc)
        j.client j.xid j.bytes (us ph.total) (us ph.sock_wait) (us ph.dupcache) (us ph.prep)
        (us ph.gather_wait) (us ph.disk) (us ph.reply_path)
  | Cache_hit | Cache_miss ->
      (* READs never crossed the gather plane; the middle of the record
         is the cache attribution instead of gather_wait/disk. *)
      Printf.sprintf
        "long-op %s client=%s xid=%d bytes=%d total=%sus sock_wait=%sus dupcache=%sus prep=%sus \
         cache=%s cache_wait=%sus reply=%sus"
        (if j.proc = "" then "?" else j.proc)
        j.client j.xid j.bytes (us ph.total) (us ph.sock_wait) (us ph.dupcache) (us ph.prep)
        (if j.cache = Cache_hit then "hit" else "miss")
        (us ph.disk) (us ph.reply_path)

let dropped p = Metrics.value p.c_dropped

let station p client =
  match Hashtbl.find_opt p.stations client with
  | Some s -> s
  | None ->
      let ns = Names.Ns.station client in
      let s =
        {
          ops = Metrics.counter p.metrics ~ns Names.station_ops;
          bytes = Metrics.counter p.metrics ~ns Names.station_bytes;
          lat_us = Metrics.histogram p.metrics ~ns Names.station_lat_us;
        }
      in
      Hashtbl.replace p.stations client s;
      s

(* Reads the normalized stamps directly: [phases] would build a record
   per op. *)
let finish p j =
  if j.reply = unset then j.reply <- Engine.now p.eng;
  normalize j;
  let us a b = Time.to_us_f (b - a) in
  let total = j.reply - j.arrival in
  Metrics.incr p.c_records;
  Histogram.add p.h_total (Time.to_us_f total);
  (* Phase decomposition only for ops that went through the write
     plane's disk flush — for a GETATTR the middle phases are all
     zero-width and would only dilute the histograms. READs attribute
     their middle phase to the cache histograms instead: the hit
     histogram records the (near-zero) in-core copy, the miss histogram
     the device / prefetch wait. *)
  (match j.cache with
  | Cache_hit -> Histogram.add p.h_cache_hit (us j.disk_submit j.disk_complete)
  | Cache_miss -> Histogram.add p.h_cache_miss (us j.disk_submit j.disk_complete)
  | Cache_none ->
      if j.disk_submit > j.queued || j.disk_complete > j.disk_submit then begin
        Histogram.add p.h_sock (us j.arrival j.pickup);
        Histogram.add p.h_dup (us j.pickup j.admitted);
        Histogram.add p.h_prep (us j.admitted j.queued);
        Histogram.add p.h_gather (us j.queued j.disk_submit);
        Histogram.add p.h_disk (us j.disk_submit j.disk_complete);
        Histogram.add p.h_reply (us j.disk_complete j.reply)
      end);
  (* Per-client station attribution. Find-or-create registration means
     a station's counters survive server crash/restart exactly like
     every other metric in the shared registry. *)
  if j.proc <> "" then begin
    let s = station p j.client in
    Metrics.incr s.ops;
    Metrics.add s.bytes j.bytes;
    Histogram.add s.lat_us (Time.to_us_f total)
  end;
  (match p.threshold with
  | Some thr when total > thr ->
      Metrics.incr p.c_long_ops;
      let lost = Trace.dropped p.ring in
      Trace.record p.ring ~actor:j.client j;
      (* Count an overwritten record where it is lost: the counter is
         shared with every earlier incarnation's plane. *)
      if Trace.dropped p.ring > lost then Metrics.incr p.c_dropped
  | Some _ | None -> ())

let long_op_count p = Metrics.value p.c_long_ops

let render_long_ops p =
  match Trace.events p.ring with
  | [] -> "(no long ops)\n"
  | evs ->
      let buf = Buffer.create 1024 in
      if Trace.dropped p.ring > 0 then
        Buffer.add_string buf
          (Printf.sprintf "(%d older long-op records dropped by the ring)\n"
             (Trace.dropped p.ring));
      List.iter
        (fun (tm, _actor, j) ->
          Buffer.add_string buf (Printf.sprintf "t=+%.3fms %s\n" (Time.to_ms_f tm) (render j)))
        evs;
      Buffer.contents buf
