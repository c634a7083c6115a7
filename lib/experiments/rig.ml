open Nfsg_sim
module Segment = Nfsg_net.Segment
module Socket = Nfsg_net.Socket
module Disk = Nfsg_disk.Disk
module Nvram = Nfsg_disk.Nvram
module Stripe = Nfsg_disk.Stripe
module Device = Nfsg_disk.Device
module Server = Nfsg_core.Server
module Volume = Nfsg_core.Volume
module Write_layer = Nfsg_core.Write_layer
module Client = Nfsg_nfs.Client
module Rpc_client = Nfsg_rpc.Rpc_client
module Metrics = Nfsg_stats.Metrics

type spec = {
  seed : int;
  net : Calib.net;
  accel : bool;
  spindles : int;
  nfsds : int;
  gathering : bool;
  cache_blocks : int option;
  readahead : Nfsg_ufs.Buffer_cache.readahead option;
  disk_scheduler : Disk.scheduler;
  server_overrides : Server.config -> Server.config;
}

let default_spec =
  {
    seed = 0x5e9 (* Segment.create's own default *);
    net = Calib.Fddi;
    accel = false;
    spindles = 1;
    nfsds = 8;
    gathering = true;
    cache_blocks = None;
    readahead = None;
    disk_scheduler = Disk.Fifo;
    server_overrides = Fun.id;
  }

type env = {
  metrics : Metrics.t option;
  scheduler : Disk.scheduler option;
  raid_level : Stripe.level option;
  monitor_interval : Time.t option;
  emit : (string -> unit) option;
  long_op_threshold : Time.t option;
}

let default_env =
  {
    metrics = None;
    scheduler = None;
    raid_level = None;
    monitor_interval = None;
    emit = None;
    long_op_threshold = None;
  }

type world = {
  eng : Engine.t;
  segment : Segment.t;
  metrics : Metrics.t;
  spec : spec;
  env : env;
  cpu : (Time.t -> unit) ref;
}

let world ?(env = default_env) spec =
  let eng = Engine.create () in
  let metrics = Metrics.create () in
  let segment = Segment.create eng ~seed:spec.seed ~metrics (Calib.segment_params spec.net) in
  { eng; segment; metrics; spec; env; cpu = ref (fun (_ : Time.t) -> ()) }

let spindle w ?merge ?deadline name =
  let driver_cost = (Calib.cpu_costs w.spec.net).Nfsg_core.Cpu_model.driver_transaction in
  Disk.create w.eng ~name ~metrics:w.metrics
    ~on_transaction:(fun ~bytes:_ -> !(w.cpu) driver_cost)
    ~scheduler:(Option.value w.env.scheduler ~default:w.spec.disk_scheduler)
    ?deadline ?merge Calib.disk_geometry

let stripe w members =
  Stripe.device (Stripe.create w.eng ~metrics:w.metrics ?level:w.env.raid_level ~chunk:32768 members)

type t = {
  eng : Engine.t;
  segment : Segment.t;
  disks : Device.t array;
  mutable server : Server.t;
  metrics : Metrics.t;
  env : env;
  mutable ran : bool;
}

let serve w ~disks devices =
  let spec = w.spec in
  let config =
    spec.server_overrides
      {
        Server.default_config with
        Server.nfsds = spec.nfsds;
        write_layer =
          (if spec.gathering then
             {
               Write_layer.default_gathering with
               Write_layer.procrastinate = Calib.procrastinate spec.net;
             }
           else Write_layer.standard);
        costs = Calib.cpu_costs spec.net;
        cache_blocks = spec.cache_blocks;
        readahead = spec.readahead;
        long_op_threshold = w.env.long_op_threshold;
      }
  in
  let server =
    match devices with
    | [ device ] ->
        Server.make w.eng ~segment:w.segment ~addr:"server" ~device ~metrics:w.metrics config
    | devices ->
        Server.make_exports w.eng ~segment:w.segment ~addr:"server" ~metrics:w.metrics config
          (List.mapi
             (fun v device -> Volume.spec (Printf.sprintf "/export%d" v) device)
             devices)
  in
  let t = { eng = w.eng; segment = w.segment; disks; server; metrics = w.metrics; env = w.env; ran = false } in
  (* Driver and NVRAM copy costs go to the incarnation that is live
     when they are incurred: a restart replaces [t.server]. *)
  (w.cpu := fun d -> Resource.charge (Server.cpu t.server) d);
  t

let make ?env spec =
  let w = world ?env spec in
  let disks = Array.init spec.spindles (fun i -> spindle w (Printf.sprintf "rz26-%d" i)) in
  let base = if spec.spindles = 1 then disks.(0) else stripe w disks in
  let device =
    if spec.accel then
      snd
        (Nvram.create w.eng ~params:Calib.nvram_params ~metrics:w.metrics
           ~cpu_charge:(fun d -> !(w.cpu) d)
           base)
    else base
  in
  serve w ~disks [ device ]

let new_client t ?(biods = 4) ?(protocol = Client.V2) addr =
  let sock = Socket.create t.segment ~addr () in
  let rpc = Rpc_client.create t.eng ~sock ~server:"server" ~metrics:t.metrics () in
  Client.create t.eng ~rpc ~biods ~protocol ~metrics:t.metrics ()

let root t = Server.root_fh t.server
let roots t = List.map snd (Server.exports t.server)

let restart t ~downtime =
  Server.crash t.server;
  Engine.delay downtime;
  t.server <- Server.restart t.server

let run t f =
  if t.ran then invalid_arg "Rig.run: a world runs once";
  t.ran <- true;
  let monitor =
    match (t.env.monitor_interval, t.env.emit) with
    | Some interval, Some emit ->
        let m = Nfsg_stats.Monitor.create t.eng ~metrics:t.metrics ~interval ~emit in
        Nfsg_stats.Monitor.start m;
        Some m
    | _ -> None
  in
  let result = ref None in
  Engine.spawn t.eng ~name:"driver" (fun () ->
      let v = f () in
      (* The monitor's rearming timer keeps the event queue non-empty;
         stop it with the load or Engine.run never returns. *)
      Option.iter Nfsg_stats.Monitor.stop monitor;
      (* With long-op tracing armed, dump whatever the live incarnation's
         ring retained once the driven load is over — through the same
         emit callback, so the rig itself still never prints. *)
      (match (t.env.long_op_threshold, t.env.emit) with
      | Some _, Some emit ->
          let plane = Server.journeys t.server in
          if Nfsg_stats.Journey.long_op_count plane > 0 then begin
            emit "long-op records:\n";
            emit (Nfsg_stats.Journey.render_long_ops plane)
          end
      | _ -> ());
      result := Some v);
  Engine.run t.eng;
  match !result with
  | Some v ->
      Option.iter (fun into -> Metrics.merge_into ~into t.metrics) t.env.metrics;
      v
  | None -> failwith "Rig.run: driver process blocked forever"

type window = { elapsed : Time.t; cpu_pct : float; disk_kb_s : float; disk_trans_s : float }

let spindle_stats t =
  Array.fold_left (fun acc d -> Device.add_stats acc (d.Device.spindle_stats ())) Device.zero_stats t.disks

let measure t f =
  let cpu = Server.cpu t.server in
  let t0 = Engine.now t.eng in
  let busy0 = Resource.busy_time cpu in
  let d0 = spindle_stats t in
  let v = f () in
  let t1 = Engine.now t.eng in
  let d1 = spindle_stats t in
  let trans = d1.Device.transactions - d0.Device.transactions in
  let busy1 = Resource.busy_time cpu in
  let elapsed = Stdlib.max 1 (t1 - t0) in
  let sec = Time.to_sec_f elapsed in
  ( v,
    {
      elapsed;
      cpu_pct = 100.0 *. float_of_int (busy1 - busy0) /. float_of_int elapsed;
      disk_kb_s = float_of_int (d1.Device.bytes_moved - d0.Device.bytes_moved) /. 1024.0 /. sec;
      disk_trans_s = float_of_int trans /. sec;
    } )
