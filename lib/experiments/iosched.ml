open Nfsg_sim
module Disk = Nfsg_disk.Disk
module Server = Nfsg_core.Server
module Laddis = Nfsg_workload.Laddis
module Metrics = Nfsg_stats.Metrics
module Histogram = Nfsg_stats.Histogram
module Names = Nfsg_stats.Names
module Json = Nfsg_stats.Json

(* The scheduler comparison: the same mixed multi-client LADDIS-style
   load over one spindle, once per I/O scheduling policy. [`Fifo] with
   merging off is the reference port's driver; [`Elevator] adds the
   C-LOOK sweep plus adjacent-request coalescing; [`Deadline] keeps
   both and bounds queue wait by promoting starved requests. *)

type config = { load : Laddis.config; offered : float; nfsds : int }

(* The one workload, the committed artifact's. Saturating: the offered
   load is well past the spindle's service rate, so a queue builds and
   the policies actually diverge — with depth ~1 every scheduler is
   FIFO. *)
let default =
  {
    load =
      {
        Laddis.default_config with
        Laddis.seed = 7;
        procs = 12;
        files_per_proc = 2;
        file_size = 1024 * 1024;
        warmup = Time.ms 500;
        measure = Time.sec 3;
      };
    offered = 170.0;
    nfsds = 12;
  }

type variant = { label : string; scheduler : Disk.scheduler; merge : bool }

let variants =
  [
    { label = "fifo"; scheduler = Disk.Fifo; merge = false };
    { label = "elevator"; scheduler = Disk.Elevator; merge = true };
    { label = "deadline+merge"; scheduler = Disk.Deadline; merge = true };
  ]

(* The Deadline scheduler's promotion threshold sits above the typical
   queue wait of the saturating bench load: the point of Deadline is to
   promote only the starved tail, not to degrade the sweep into arrival
   order. *)
let deadline = Time.ms 300

type row = {
  variant : variant;
  point : Laddis.point;
  write_mean_us : float;
  write_p50_us : float;
  write_p99_us : float;
  transactions : int;
  merged : int;
  promotions : int;
  barriers : int;
  queue_wait_p99_us : float;
}

let disk_name = "rz26"

(* One world per variant: one scheduled spindle under a gathering
   server, [procs] independent client stacks under LADDIS load. Same
   seed across variants — the offered traffic is identical; only the
   order the spindle services it in differs. *)
let run_world ?env ?(overrides = Fun.id) cfg v =
  let spec =
    {
      Rig.default_spec with
      Rig.seed = cfg.load.Laddis.seed lxor 0x3a7;
      nfsds = cfg.nfsds;
      disk_scheduler = v.scheduler;
      server_overrides = overrides;
    }
  in
  let w = Rig.world ?env spec in
  let disk = Rig.spindle w ~merge:v.merge ~deadline disk_name in
  let rig = Rig.serve w ~disks:[| disk |] [ disk ] in
  let point =
    Rig.run rig (fun () ->
        let biods = cfg.load.Laddis.biods_per_proc in
        Laddis.run rig.Rig.eng
          ~make_client:(fun i -> Rig.new_client rig ~biods (Printf.sprintf "client%d" i))
          ~root:(Rig.root rig) ~offered:cfg.offered cfg.load)
  in
  (rig, point)

let run_variant ?env cfg v =
  let rig, point = run_world ?env cfg v in
  let m = rig.Rig.metrics in
  let ns = Names.Ns.disk disk_name in
  let lat = Metrics.stat m ~ns:Names.Ns.nfs_client (Names.lat_us "WRITE") in
  {
    variant = v;
    point;
    write_mean_us = lat Histogram.mean;
    write_p50_us = lat Histogram.median;
    write_p99_us = lat Histogram.p99;
    transactions = (Rig.spindle_stats rig).Nfsg_disk.Device.transactions;
    merged = Metrics.count m ~ns Names.merged_requests;
    promotions = Metrics.count m ~ns Names.deadline_promotions;
    barriers = Metrics.count m ~ns Names.barriers;
    queue_wait_p99_us = Metrics.stat m ~ns Names.queue_wait_us Histogram.p99;
  }

let run ?env ?(cfg = default) () = List.map (run_variant ?env cfg) variants

(* {1 BENCH_iosched.json}

   The committed artifact CI regenerates and diffs. *)

let bench_iosched ?env () =
  let rows = run ?env () in
  let json_row r =
    Json.Obj
      [
        ("scheduler", Json.String r.variant.label);
        ("merge", Json.Bool r.variant.merge);
        ("achieved_ops_s", Json.Float r.point.Laddis.achieved);
        ("ops_completed", Json.Int r.point.Laddis.ops_completed);
        ( "write_latency",
          Json.Obj
            [
              ("mean_us", Json.Float r.write_mean_us);
              ("p50_us", Json.Float r.write_p50_us);
              ("p99_us", Json.Float r.write_p99_us);
            ] );
        ( "disk",
          Json.Obj
            [
              ("transactions", Json.Int r.transactions);
              ("merged_requests", Json.Int r.merged);
              ("deadline_promotions", Json.Int r.promotions);
              ("barriers", Json.Int r.barriers);
              ("queue_wait_p99_us", Json.Float r.queue_wait_p99_us);
            ] );
      ]
  in
  Json.Obj
    [
      ("schema", Json.String "nfsgather-bench/1");
      ("bench", Json.String "iosched");
      ( "workload",
        Json.Obj
          [
            ("net", Json.String "fddi");
            ("procs", Json.Int default.load.Laddis.procs);
            ("files_per_proc", Json.Int default.load.Laddis.files_per_proc);
            ("file_bytes", Json.Int default.load.Laddis.file_size);
            ("offered_ops_s", Json.Float default.offered);
            ("measure_ms", Json.Float (Time.to_ms_f default.load.Laddis.measure));
            ("nfsds", Json.Int default.nfsds);
            ("seed", Json.Int default.load.Laddis.seed);
          ] );
      ("rows", Json.List (List.map json_row rows));
    ]

(* {1 The long-op probe}

   Run one variant of the same saturating bench world with journey
   tracing armed and report the evidence side by side: what the client
   measured, what the server's journey plane measured, and what the
   RPC layer was doing in between. This is the nfsmon/long-op
   walkthrough of EXPERIMENTS.md, as a reproducible command
   (nfsgather iosched-probe). *)

let probe_threshold = Time.ms 300

let investigate ?env label =
  let v =
    match List.find_opt (fun v -> v.label = label) variants with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Iosched.investigate: unknown variant %S" label)
  in
  let rig, point =
    run_world ?env
      ~overrides:(fun c -> { c with Server.long_op_threshold = Some probe_threshold })
      default v
  in
  let m = rig.Rig.metrics in
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "iosched probe: variant=%s threshold=%.0fms achieved=%.1f ops/s" v.label
    (Time.to_ms_f probe_threshold) point.Laddis.achieved;
  let client_h = Metrics.stat m ~ns:Names.Ns.nfs_client (Names.lat_us "WRITE") in
  line "client WRITE latency (us): mean=%.0f p50=%.0f p99=%.0f" (client_h Histogram.mean)
    (client_h Histogram.median) (client_h Histogram.p99);
  let jh = Metrics.stat m ~ns:Names.Ns.journey in
  line "server journey total (us): mean=%.0f p50=%.0f p99=%.0f" (jh Names.total_us Histogram.mean)
    (jh Names.total_us Histogram.median)
    (jh Names.total_us Histogram.p99);
  line "server phase p99 (us): sock_wait=%.0f dupcache=%.0f prep=%.0f gather_wait=%.0f disk=%.0f reply=%.0f"
    (jh (Names.phase_us Names.phase_sock_wait) Histogram.p99)
    (jh (Names.phase_us Names.phase_dupcache) Histogram.p99)
    (jh (Names.phase_us Names.phase_prep) Histogram.p99)
    (jh (Names.phase_us Names.phase_gather_wait) Histogram.p99)
    (jh (Names.phase_us Names.phase_disk) Histogram.p99)
    (jh (Names.phase_us Names.phase_reply) Histogram.p99);
  let cc = Metrics.count m ~ns:Names.Ns.rpc_client in
  line "client rpc: timeouts=%d retransmissions=%d stale_replies=%d" (cc Names.timeouts)
    (cc Names.retransmissions) (cc Names.stale_replies);
  let sc = Metrics.count m ~ns:Names.Ns.rpc_svc in
  line "server dupcache: duplicate_drops=%d duplicate_replays=%d" (sc Names.duplicate_drops)
    (sc Names.duplicate_replays);
  let plane = Server.journeys rig.Rig.server in
  line "long-ops over threshold: %d" (Nfsg_stats.Journey.long_op_count plane);
  Buffer.add_string buf (Nfsg_stats.Journey.render_long_ops plane);
  Buffer.contents buf
