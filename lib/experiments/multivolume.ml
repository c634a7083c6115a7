open Nfsg_sim
module Socket = Nfsg_net.Socket
module Fault_disk = Nfsg_fault.Fault_disk
module Client = Nfsg_nfs.Client
module Rpc_client = Nfsg_rpc.Rpc_client
module Laddis = Nfsg_workload.Laddis
module Metrics = Nfsg_stats.Metrics
module Histogram = Nfsg_stats.Histogram
module Names = Nfsg_stats.Names
module Json = Nfsg_stats.Json

(* Three exports served by one machine, the paper-testbed shape:
   two single spindles and a 3-drive stripe set. Volume 0's spindle is
   fault-wrapped so an error window can be opened on it alone. *)
let nvols = 3

type config = { load : Laddis.config; offered : float; nfsds : int; fault_prob : float }

(* The one workload, the committed artifact's: modest enough that CI
   reproduces its bytes anywhere. *)
let default =
  {
    load =
      {
        Laddis.default_config with
        Laddis.seed = 7;
        procs = 6;
        files_per_proc = 2;
        file_size = 32 * 1024;
        warmup = Time.ms 500;
        measure = Time.sec 3;
      };
    offered = 120.0;
    nfsds = 12;
    fault_prob = 0.4;
  }

type vol_stats = {
  export : string;
  fsid : int;
  writes : int;
  batches : int;
  mean_batch : float;
  flushes_saved : int;
  write_mean_us : float;
  write_p50_us : float;
  write_p99_us : float;
}

type phase = { point : Laddis.point; vols : vol_stats list }
type result = { clean : phase; faulted : phase; errors_injected : int }

(* One world: three device stacks, a 3-export server, and a
   LADDIS-style load spread round-robin over the exports. [fault]
   (absolute sim-time window) arms an error window on volume 0's
   spindle before the load starts. Returns the phase stats plus the
   simulation end time (how the caller learns where the measurement
   window sits, so the faulted twin can be armed inside it). *)
let run_world ?env ?fault cfg =
  let seed = cfg.load.Laddis.seed in
  let spec = { Rig.default_spec with Rig.seed = seed lxor 0x3a7; nfsds = cfg.nfsds } in
  let world = Rig.world ?env spec in
  let disk0 = Rig.spindle world "vol1-rz26" in
  let injector, dev0 = Fault_disk.wrap world.Rig.eng ~seed:(seed lxor 0xfa01) disk0 in
  let disk1 = Rig.spindle world "vol2-rz26" in
  let members = Array.init 3 (fun i -> Rig.spindle world (Printf.sprintf "vol3-rz26-%d" i)) in
  let rig =
    Rig.serve world
      ~disks:(Array.append [| disk0; disk1 |] members)
      [ dev0; disk1; Rig.stripe world members ]
  in
  let eng = rig.Rig.eng and metrics = rig.Rig.metrics in
  (* Per-volume client registries: load process [i] works under export
     [i mod 3] (Laddis round-robin), and its client instruments land in
     that volume's registry — the only way WRITE latency can be read
     per volume while the server is shared. The driver merges them
     into the world's registry once the load is over, so they reach
     [env.metrics] with it. *)
  let assignment =
    Array.of_list (Laddis.export_assignment ~procs:cfg.load.Laddis.procs ~exports:nvols)
  in
  let cms = Array.init nvols (fun _ -> Metrics.create ()) in
  let make_client i =
    let m = cms.(assignment.(i)) in
    let sock = Socket.create rig.Rig.segment ~addr:(Printf.sprintf "client%d" i) () in
    let rpc = Rpc_client.create eng ~sock ~server:"server" ~metrics:m () in
    Client.create eng ~rpc ~biods:cfg.load.Laddis.biods_per_proc ~metrics:m ()
  in
  let roots = Rig.roots rig in
  let point, end_time =
    Rig.run rig (fun () ->
        (match fault with
        | Some (from_, until) -> Fault_disk.error_window injector ~from_ ~until ~prob:cfg.fault_prob
        | None -> ());
        let point =
          Laddis.run eng ~make_client ~root:(List.hd roots) ~exports:roots ~offered:cfg.offered
            cfg.load
        in
        Array.iter (Metrics.merge_into ~into:metrics) cms;
        (point, Engine.now eng))
  in
  let vol_stats k =
    let fsid = k + 1 in
    let wl_ns = Names.Ns.write_layer_vol fsid in
    let sv_ns = Names.Ns.server_vol fsid in
    let batches, mean_batch =
      match Metrics.find_histogram metrics ~ns:wl_ns Names.batch_size with
      | Some h -> (Histogram.count h, Histogram.mean h)
      | None -> (0, 0.0)
    in
    let lat = Metrics.stat cms.(k) ~ns:Names.Ns.nfs_client (Names.lat_us "WRITE") in
    {
      export = Printf.sprintf "/export%d" k;
      fsid;
      writes = Metrics.count metrics ~ns:sv_ns (Names.ops "WRITE");
      batches;
      mean_batch;
      flushes_saved = Metrics.count metrics ~ns:wl_ns Names.metadata_flushes_saved;
      write_mean_us = lat Histogram.mean;
      write_p50_us = lat Histogram.median;
      write_p99_us = lat Histogram.p99;
    }
  in
  ({ point; vols = List.init nvols vol_stats }, end_time, Fault_disk.errors_injected injector)

(* Clean run first; its end time bounds setup + warmup + measure, which
   places the faulted twin's error window strictly inside the twin's
   measurement interval (same seed => identical timeline up to the
   first injected fault). *)
let run ?env ?(cfg = default) () =
  let clean, end_time, _ = run_world ?env cfg in
  let measure = cfg.load.Laddis.measure in
  let m_start = end_time - measure in
  let from_ = m_start + (measure / 4) and until = m_start + (3 * measure / 4) in
  let faulted, _, errors_injected = run_world ?env ~fault:(from_, until) cfg in
  { clean; faulted; errors_injected }

(* {1 BENCH_multivolume.json}

   The committed artifact CI regenerates and diffs. Volume generations
   never appear here. *)

let bench_multivolume ?env () =
  let r = run ?env () in
  let vol_row device v =
    Json.Obj
      [
        ("export", Json.String v.export);
        ("fsid", Json.Int v.fsid);
        ("device", Json.String device);
        ("writes", Json.Int v.writes);
        ( "gather",
          Json.Obj
            [
              ("batches", Json.Int v.batches);
              ("mean_batch", Json.Float v.mean_batch);
              ("metadata_flushes_saved", Json.Int v.flushes_saved);
            ] );
        ( "write_latency",
          Json.Obj
            [
              ("mean_us", Json.Float v.write_mean_us);
              ("p50_us", Json.Float v.write_p50_us);
              ("p99_us", Json.Float v.write_p99_us);
            ] );
      ]
  in
  Json.Obj
    [
      ("schema", Json.String "nfsgather-bench/1");
      ("bench", Json.String "multivolume");
      ( "workload",
        Json.Obj
          [
            ("net", Json.String "fddi");
            ("volumes", Json.Int nvols);
            ("procs", Json.Int default.load.Laddis.procs);
            ("files_per_proc", Json.Int default.load.Laddis.files_per_proc);
            ("file_bytes", Json.Int default.load.Laddis.file_size);
            ("offered_ops_s", Json.Float default.offered);
            ("measure_ms", Json.Float (Time.to_ms_f default.load.Laddis.measure));
            ("nfsds", Json.Int default.nfsds);
            ("seed", Json.Int default.load.Laddis.seed);
          ] );
      ( "aggregate",
        Json.Obj
          [
            ("achieved_ops_s", Json.Float r.clean.point.Laddis.achieved);
            ("ops_completed", Json.Int r.clean.point.Laddis.ops_completed);
          ] );
      ("rows", Json.List (List.map2 vol_row [ "rz26"; "rz26"; "stripe3" ] r.clean.vols));
      ( "fault",
        Json.Obj
          [
            ("volume", Json.String "/export0");
            ("errors_injected", Json.Int r.errors_injected);
            ( "write_mean_us",
              Json.List (List.map (fun v -> Json.Float v.write_mean_us) r.faulted.vols) );
          ] );
    ]
