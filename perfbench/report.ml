(* Metrics computed from an outcome, and how they are printed: a table
   for people, then one JSON line as the last line of standard output. *)

module W = Workloads
module Histogram = Nfsg_stats.Histogram
module Names = Nfsg_stats.Names

type metric = {
  name : string;
  unit_ : string;
  value : float;
  sim : bool;  (** simulated: repeats exactly for one seed and size *)
  samples : Samples.t option;  (** the samples a percentile came from *)
  q : float;
}

let host name unit_ value = { name; unit_; value; sim = false; samples = None; q = 0.0 }
let sim name unit_ value = { name; unit_; value; sim = true; samples = None; q = 0.0 }

let pct name s q = { name; unit_ = "ms"; value = Samples.percentile s q /. 1e6; sim = true; samples = Some s; q }

let frac a b = if b = 0.0 then 0.0 else a /. b

let peak_heap_mb () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1048576.0

(* The end-to-end metrics, on every workload. The task is one unit of
   user work: a 16 MB file copy (write_copy), one SFS operation from its
   due time (sfs_mix), one client's boot (boot_storm). *)
(* Wall time of all windows over all their ops: a world's first window
   also grows its caches, and every run holds the same mix of windows. *)
let host_us_per_op o = frac (W.layer o "host_s" *. 1e6) (float_of_int o.W.ops)

let end_to_end (o : W.outcome) ~peak_heap_mb =
  let sim_s = W.layer o "sim_ns" /. 1e9 in
  let ops = float_of_int o.W.ops in
  [
    host "setup_s" "s" (Samples.median_of o.W.setup_s);
    host "host_us_per_op" "us" (host_us_per_op o);
    host "alloc_words_per_op" "words" (frac (W.layer o "alloc_words") ops);
    host "peak_heap_mb" "MB" peak_heap_mb;
    sim "ops_s" "ops/s" (frac ops sim_s);
    pct "lat_p50_ms" o.W.lat 0.5;
    pct "lat_p99_ms" o.W.lat 0.99;
    pct "io_lat_p99_ms" o.W.io_lat 0.99;
    sim "app_kb_s" "KB/s" (frac (float_of_int o.W.app_bytes /. 1024.0) sim_s);
    pct "task_p50_ms" o.W.task 0.5;
  ]

(* The simulated metrics, which one seed and size always reproduce. *)
let sim_values metrics = List.filter_map (fun m -> if m.sim then Some (m.name, m.value) else None) metrics

let procs = [ "LOOKUP"; "GETATTR"; "READ"; "WRITE" ]

(* Per-layer metrics of the traced pass [t]. The sim.* host costs come
   from the untraced pass [u], whose windows read the same counters
   without the probe's overhead. *)
let per_layer ~(u : W.outcome) ~(t : W.outcome) (p : Probe.t) =
  let l = W.layer t in
  let sim_ns = l "sim_ns" in
  let hist ns name q = Histogram.quantile (Probe.histogram p (ns, name)) q /. 1000.0 in
  [
    sim "sim.events_per_op" "events/op" (frac (W.layer u "events") (float_of_int u.W.ops));
    host "sim.host_ns_per_event" "ns" (frac (W.layer u "host_s" *. 1e9) (W.layer u "events"));
    host "sim.alloc_words_per_event" "words" (frac (W.layer u "alloc_words") (W.layer u "events"));
    sim "net.busy_frac" "ratio" (frac (l "net.busy_ns") sim_ns);
    sim "net.rcvbuf_drops" "count" (l "net.rcvbuf_drops");
    sim "rpc.retransmit_frac" "ratio" (frac (l "rpc.retransmissions") (l "rpc.sent"));
    sim "rpc.timeouts" "count" (l "rpc.timeouts");
    sim "rpc.rtt_p99_ms" "ms" (hist Names.Ns.rpc_client Names.rtt_us 0.99);
    sim "rpc.dupcache_replays" "count" (l "rpc.dupcache_replays");
    sim "rpc.dupcache_drops" "count" (l "rpc.dupcache_drops");
    host "rpc.codec_host_ns_per_op" "ns" (Probe.codec_ns_per_op p);
    sim "core.cpu_busy_frac" "ratio" (frac (l "core.cpu_busy_ns") sim_ns);
    sim "write_layer.batch_mean" "writes" (frac (l "wl.writes") (l "wl.batches"));
    sim "write_layer.gathered_frac" "ratio" (frac (l "wl.gathered") (l "wl.writes"));
    sim "write_layer.metadata_flushes_saved_per_write" "ratio" (frac (l "wl.saved") (l "wl.writes"));
    sim "write_layer.reply_latency_p99_ms" "ms" (hist Names.Ns.write_layer Names.reply_latency_us 0.99);
  ]
  @ List.map
      (fun ph -> sim ("journey." ^ ph ^ "_p99_ms") "ms" (hist Names.Ns.journey (Names.phase_us ph) 0.99))
      Names.journey_phases
  @ [
      sim "ufs.cache_hit_frac" "ratio" (frac (l "ufs.hits") (l "ufs.hits" +. l "ufs.misses"));
      sim "ufs.readahead_useful_frac" "ratio" (frac (l "ufs.ra_hits") (l "ufs.ra_blocks"));
      sim "ufs.readahead_wasted" "count" (l "ufs.ra_wasted");
      sim "ufs.cache_evictions" "count" (l "ufs.evictions");
      sim "disk.trans_per_write" "trans/write"
        (frac (l "disk.trans") (float_of_int (Samples.count (W.proc_samples t "WRITE"))));
      sim "disk.kb_per_trans" "KB" (frac (l "disk.bytes" /. 1024.0) (l "disk.trans"));
      sim "disk.busy_frac" "ratio" (frac (l "disk.busy_ns") sim_ns);
      sim "disk.queue_wait_p99_ms" "ms" (hist (Names.Ns.disk Probe.spindle) Names.queue_wait_us 0.99);
      sim "disk.service_p50_ms" "ms" (hist (Names.Ns.disk Probe.spindle) Names.service_us 0.5);
      sim "disk.merged_requests" "count" (l "disk.merged");
    ]
  @ List.map
      (fun c ->
        pct ("disk.submit_done_p99_ms." ^ Nfsg_disk.Io.class_name c) (List.assoc c p.Probe.submit_done) 0.99)
      Probe.classes
  @ [ host "disk.host_ns_per_req" "ns" (frac (p.Probe.submit_host_s *. 1e9) (float_of_int p.Probe.requests)) ]
  @ List.map (fun proc -> pct ("nfs.lat_p99_ms." ^ proc) (W.proc_samples t proc) 0.99) procs
  @ [
      pct "load.late_p99_ms" t.W.late 0.99;
      host "trace.overhead_frac" "ratio" (frac (host_us_per_op t) (host_us_per_op u) -. 1.0);
    ]

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun m ->
      let note =
        match m.samples with
        | None -> ""
        | Some s ->
            Printf.sprintf "  (n=%d, %d beyond%s)" (Samples.count s) (Samples.beyond s m.q)
              (if Samples.resolved s m.q then "" else "; too few to resolve")
      in
      Printf.printf "  %-46s %14.4f %-10s%s\n" m.name m.value m.unit_ note)
    metrics

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct attempted
    failed
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name (number m.value) m.unit_)
          metrics))
