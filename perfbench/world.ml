(* One simulated world: FDDI segment, one RZ26 spindle, an NFSv2 server
   with the gathering write layer, and client stacks on the segment.

   Built from the public constructors the way Rig.make builds its
   single-volume rig. Rig.make has no hook for wrapping the device,
   which the traced pass needs, so this mirrors it instead. *)

open Nfsg_sim
module Metrics = Nfsg_stats.Metrics
module Names = Nfsg_stats.Names
module Segment = Nfsg_net.Segment
module Socket = Nfsg_net.Socket
module Disk = Nfsg_disk.Disk
module Device = Nfsg_disk.Device
module Buffer_cache = Nfsg_ufs.Buffer_cache
module Server = Nfsg_core.Server
module Write_layer = Nfsg_core.Write_layer
module Cpu_model = Nfsg_core.Cpu_model
module Rpc_client = Nfsg_rpc.Rpc_client
module Client = Nfsg_nfs.Client
module Calib = Nfsg_experiments.Calib

type config = {
  nfsds : int;
  cache_blocks : int option;  (** server buffer-cache bound; None = unbounded *)
  readahead : Buffer_cache.readahead option;
}

type t = {
  eng : Engine.t;
  metrics : Metrics.t;
  segment : Segment.t;
  spindle : Device.t;
  mutable server : Server.t;
}

let server_addr = "server"
let export = "/export"

let make ?probe cfg =
  Reset.run_all ();
  let eng = Engine.create () in
  let metrics = Metrics.create () in
  Option.iter (fun p -> Probe.register_histograms p metrics) probe;
  let segment = Segment.create eng ~metrics (Calib.segment_params Calib.Fddi) in
  let costs = Calib.cpu_costs Calib.Fddi in
  (* Forward reference, as in Rig: the spindle exists before the server
     CPU it charges each transaction to. It follows the live incarnation
     across restarts. *)
  let self = ref None in
  let spindle =
    Disk.create eng ~name:Probe.spindle ~metrics
      ~on_transaction:(fun ~bytes:_ ->
        Option.iter
          (fun w -> Resource.charge (Server.cpu w.server) costs.Cpu_model.driver_transaction)
          !self)
      ~scheduler:Disk.Fifo Calib.disk_geometry
  in
  let device = match probe with Some p -> Probe.wrap_device p eng spindle | None -> spindle in
  let config =
    {
      Server.default_config with
      Server.nfsds = cfg.nfsds;
      write_layer =
        { Write_layer.default_gathering with Write_layer.procrastinate = Calib.procrastinate Calib.Fddi };
      costs;
      cache_blocks = cfg.cache_blocks;
      readahead = cfg.readahead;
      long_op_threshold = None;
    }
  in
  let server = Server.make eng ~segment ~addr:server_addr ~device ~metrics config in
  let w = { eng; metrics; segment; spindle; server } in
  self := Some w;
  w

(* A client host with no biods of its own: Client.write of one whole
   8 KB block is then exactly one synchronous WRITE RPC, which the
   workloads time one by one and hand to their own biod pool. *)
let client w addr =
  let sock = Socket.create w.segment ~addr () in
  let rpc = Rpc_client.create w.eng ~sock ~server:server_addr ~metrics:w.metrics () in
  (sock, Client.create w.eng ~rpc ~biods:0 ~metrics:w.metrics ())

(* Power-fail the server and boot a fresh incarnation on the same
   device: the cache comes back cold. *)
let crash_restart w ~downtime =
  Server.crash w.server;
  Engine.delay downtime;
  w.server <- Server.restart w.server

let run w f =
  let result = ref None in
  Engine.spawn w.eng ~name:"bench" (fun () -> result := Some (f ()));
  Engine.run w.eng;
  match !result with Some v -> v | None -> failwith "the benchmark's main process blocked forever"

(* {1 Window counters}

   Everything a window's per-layer metrics are computed from, read at
   both edges of the window and summed as deltas over windows. *)

let counter w ns name = float_of_int (Option.value ~default:0 (Metrics.find_counter w.metrics ~ns name))

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let counters : (string * (t -> float)) list =
  let rp = Names.Ns.read_plane and wl = Names.Ns.write_layer and dk = Names.Ns.disk Probe.spindle in
  let spindle w = w.spindle.Device.spindle_stats () in
  [
    ("host_s", fun _ -> Unix.gettimeofday ());
    ("alloc_words", fun _ -> alloc_words ());
    ("sim_ns", fun w -> float_of_int (Engine.now w.eng));
    ("events", fun w -> float_of_int (Engine.events_processed w.eng));
    ("net.busy_ns", fun w -> float_of_int (Segment.busy_time w.segment));
    ( "net.rcvbuf_drops",
      fun w -> float_of_int (List.fold_left (fun a (_, n) -> a + n) 0 (Segment.station_drops w.segment)) );
    ("rpc.sent", fun w -> counter w Names.Ns.rpc_client Names.datagrams_sent);
    ("rpc.retransmissions", fun w -> counter w Names.Ns.rpc_client Names.retransmissions);
    ("rpc.timeouts", fun w -> counter w Names.Ns.rpc_client Names.timeouts);
    ("rpc.dupcache_replays", fun w -> counter w Names.Ns.rpc_dupcache Names.replays);
    ("rpc.dupcache_drops", fun w -> counter w Names.Ns.rpc_dupcache Names.drops);
    ("core.cpu_busy_ns", fun w -> float_of_int (Resource.busy_time (Server.cpu w.server)));
    ("wl.writes", fun w -> counter w wl Names.writes);
    ("wl.batches", fun w -> counter w wl Names.batches);
    ("wl.gathered", fun w -> counter w wl Names.gathered_replies);
    ("wl.saved", fun w -> counter w wl Names.metadata_flushes_saved);
    ("ufs.hits", fun w -> counter w rp Names.cache_hits);
    ("ufs.misses", fun w -> counter w rp Names.cache_misses);
    ("ufs.evictions", fun w -> counter w rp Names.cache_evictions);
    ("ufs.ra_blocks", fun w -> counter w rp Names.readahead_blocks);
    ("ufs.ra_hits", fun w -> counter w rp Names.readahead_hits);
    ("ufs.ra_wasted", fun w -> counter w rp Names.readahead_wasted);
    ("disk.trans", fun w -> float_of_int (spindle w).Device.transactions);
    ("disk.bytes", fun w -> float_of_int (spindle w).Device.bytes_moved);
    ("disk.busy_ns", fun w -> float_of_int (spindle w).Device.busy_time);
    ("disk.merged", fun w -> counter w dk Names.merged_requests);
  ]

let counter_names = List.map fst counters
let read_counters w = Array.of_list (List.map (fun (_, f) -> f w) counters)

let index name =
  let rec go i = function
    | [] -> invalid_arg ("World.index: " ^ name)
    | n :: rest -> if n = name then i else go (i + 1) rest
  in
  go 0 counter_names

(* Host-clock and allocation counters: excluded from the outcome digest. *)
let host_only name = name = "host_s" || name = "alloc_words"
