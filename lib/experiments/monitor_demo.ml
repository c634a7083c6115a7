(* The canned nfsmon demonstration world: three client stations with
   different appetites write concurrently to one gathering server over
   a single spindle, and a disk slowdown window mid-run pushes a burst
   of ops over the long-op threshold. The run shows every piece of the
   live operability plane at once — interval reports with per-station
   attribution, the journey phase histograms, and the long-op records
   that pin the slow interval on the disk phase.

   Everything is driven by the simulation clock from fixed seeds, so
   the rendered output is byte-identical across runs — CI diffs it
   against a committed golden copy. *)

open Nfsg_sim
module Server = Nfsg_core.Server
module Fault_disk = Nfsg_fault.Fault_disk
module File_writer = Nfsg_workload.File_writer
module Metrics = Nfsg_stats.Metrics
module Histogram = Nfsg_stats.Histogram
module Names = Nfsg_stats.Names
module Journey = Nfsg_stats.Journey

type config = {
  interval : Time.t;  (** monitor reporting period *)
  threshold : Time.t;  (** long-op trace threshold *)
  slow_from : Time.t;  (** disk slowdown window *)
  slow_until : Time.t;
  slow_factor : float;
  seed : int;
}

let default =
  {
    interval = Time.ms 200;
    threshold = Time.ms 60;
    slow_from = Time.ms 400;
    slow_until = Time.ms 700;
    slow_factor = 8.0;
    seed = 11;
  }

(* The three stations: (address, biods, start offset, bytes to write).
   Different appetites and staggered starts so successive intervals
   show a changing top-table, not three constant rows. *)
let stations =
  [
    ("alice", 4, Time.ms 0, 256 * 1024);
    ("bob", 2, Time.ms 100, 128 * 1024);
    ("carol", 1, Time.ms 350, 48 * 1024);
  ]

let run ?(cfg = default) () =
  let buf = Buffer.create 4096 in
  (* The threshold is a server override, not the env's, so Rig.run dumps
     nothing: the summary and the dump below follow the interval reports. *)
  let env =
    { Rig.default_env with monitor_interval = Some cfg.interval; emit = Some (Buffer.add_string buf) }
  in
  let spec =
    {
      Rig.default_spec with
      Rig.seed = cfg.seed lxor 0x5c1;
      server_overrides = (fun c -> { c with Server.long_op_threshold = Some cfg.threshold });
    }
  in
  let world = Rig.world ~env spec in
  let disk = Rig.spindle world "rz26" in
  let injector, device = Fault_disk.wrap world.Rig.eng ~seed:cfg.seed disk in
  Fault_disk.slowdown_window injector ~from_:cfg.slow_from ~until:cfg.slow_until
    ~factor:cfg.slow_factor;
  let rig = Rig.serve world ~disks:[| disk |] [ device ] in
  let eng = rig.Rig.eng and metrics = rig.Rig.metrics in
  Rig.run rig (fun () ->
      let remaining = ref (List.length stations) in
      let joiner = ref None in
      let finished () =
        decr remaining;
        if !remaining = 0 then Option.iter (fun k -> k ()) !joiner
      in
      List.iter
        (fun (addr, biods, start, total) ->
          Engine.spawn eng ~name:addr (fun () ->
              if start > 0 then Engine.delay start;
              let client = Rig.new_client rig ~biods addr in
              ignore
                (File_writer.run eng client ~dir:(Rig.root rig)
                   ~name:(addr ^ ".dat") ~total ~seed:cfg.seed ()
                  : File_writer.result);
              finished ()))
        stations;
      if !remaining > 0 then Engine.suspend (fun k -> joiner := Some k));
  (* The plane's own evidence, after the dust settles. *)
  let plane = Server.journeys rig.Rig.server in
  let jc = Metrics.count metrics ~ns:Names.Ns.journey in
  let dropped = Metrics.count metrics ~ns:Names.Ns.trace Names.dropped in
  Buffer.add_string buf
    (Printf.sprintf "\njourney: records=%d long_ops=%d dropped=%d\n" (jc Names.records)
       (jc Names.long_ops) dropped);
  let p99 phase = Metrics.stat metrics ~ns:Names.Ns.journey (Names.phase_us phase) Histogram.p99 in
  Buffer.add_string buf
    (Printf.sprintf
       "phase p99 (us): sock_wait=%.0f dupcache=%.0f prep=%.0f gather_wait=%.0f disk=%.0f \
        reply=%.0f\n"
       (p99 Names.phase_sock_wait) (p99 Names.phase_dupcache) (p99 Names.phase_prep)
       (p99 Names.phase_gather_wait) (p99 Names.phase_disk) (p99 Names.phase_reply));
  Buffer.add_string buf "\nlong-op records:\n";
  Buffer.add_string buf (Journey.render_long_ops plane);
  Buffer.contents buf
