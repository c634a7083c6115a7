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
  net : Calib.net;
  accel : bool;
  spindles : int;
  volumes : int;
  nfsds : int;
  gathering : bool;
  trace : bool;
  cache_blocks : int option;
  readahead : Nfsg_ufs.Buffer_cache.readahead option;
  disk_scheduler : Disk.scheduler;
  write_layer_overrides : Write_layer.config -> Write_layer.config;
}

let default_spec =
  {
    net = Calib.Fddi;
    accel = false;
    spindles = 1;
    volumes = 1;
    nfsds = 8;
    gathering = true;
    trace = false;
    cache_blocks = None;
    readahead = None;
    disk_scheduler = Disk.Fifo;
    write_layer_overrides = (fun c -> c);
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

type t = {
  eng : Engine.t;
  segment : Segment.t;
  disks : Device.t array;
  device : Device.t;
  server : Server.t;
  trace : Nfsg_stats.Trace.t option;
  metrics : Metrics.t;
  env : env;
}

let metrics t = t.metrics

let make ?(env = default_env) spec =
  if spec.volumes <= 0 then invalid_arg "Rig.make: need at least one volume";
  let eng = Engine.create () in
  let metrics = match env.metrics with Some m -> m | None -> Metrics.create () in
  let segment = Segment.create eng ~metrics (Calib.segment_params spec.net) in
  (* Forward reference: devices exist before the server CPU does. *)
  let cpu_hook = ref (fun (_ : Time.t) -> ()) in
  let costs = Calib.cpu_costs spec.net in
  let driver_cost = costs.Nfsg_core.Cpu_model.driver_transaction in
  (* One device stack (spindles, optional stripe, optional Presto) per
     volume. Single-volume disk names keep their historical form so
     metric keys stay byte-identical for existing rigs. *)
  let mk_stack v =
    let disks =
      Array.init spec.spindles (fun i ->
          let name =
            if spec.volumes = 1 then Printf.sprintf "rz26-%d" i
            else Printf.sprintf "vol%d-rz26-%d" (v + 1) i
          in
          Disk.create eng ~name ~metrics
            ~on_transaction:(fun ~bytes:_ -> !cpu_hook driver_cost)
            ~scheduler:(Option.value env.scheduler ~default:spec.disk_scheduler)
            Calib.disk_geometry)
    in
    let base =
      if spec.spindles = 1 then disks.(0)
      else
        match env.raid_level with
        | None -> Stripe.create eng ~chunk:32768 disks
        | Some level -> Stripe.create eng ~metrics ~level ~chunk:32768 disks
    in
    let device =
      if spec.accel then
        snd
          (Nvram.create eng ~params:Calib.nvram_params ~metrics
             ~cpu_charge:(fun d -> !cpu_hook d) base)
      else base
    in
    (disks, device)
  in
  let stacks = Array.init spec.volumes mk_stack in
  let disks = Array.concat (Array.to_list (Array.map fst stacks)) in
  let trace = if spec.trace then Some (Nfsg_stats.Trace.create eng) else None in
  let write_layer =
    let base_cfg =
      if spec.gathering then
        { Write_layer.default_gathering with Write_layer.procrastinate = Calib.procrastinate spec.net }
      else Write_layer.standard
    in
    spec.write_layer_overrides base_cfg
  in
  let config =
    {
      Server.default_config with
      Server.nfsds = spec.nfsds;
      write_layer;
      costs;
      cache_blocks = spec.cache_blocks;
      readahead = spec.readahead;
      long_op_threshold = env.long_op_threshold;
    }
  in
  let server =
    if spec.volumes = 1 then
      Server.make eng ~segment ~addr:"server" ~device:(snd stacks.(0)) ?trace ~metrics config
    else
      Server.make_exports eng ~segment ~addr:"server" ?trace ~metrics config
        (List.init spec.volumes (fun v ->
             {
               Volume.export = Printf.sprintf "/export%d" v;
               device = snd stacks.(v);
               cache_blocks = spec.cache_blocks;
               read_only = false;
               readahead = spec.readahead;
             }))
  in
  (cpu_hook := fun d -> Resource.charge (Server.cpu server) d);
  { eng; segment; disks; device = snd stacks.(0); server; trace; metrics; env }

let new_client t ?(biods = 4) ?(protocol = Client.V2) addr =
  let sock = Socket.create t.segment ~addr () in
  let rpc = Rpc_client.create t.eng ~sock ~server:"server" ~metrics:t.metrics () in
  Client.create t.eng ~rpc ~biods ~protocol ~metrics:t.metrics ()

let root t = Server.root_fh t.server
let roots t = List.map snd (Server.exports t.server)

let run t f =
  let monitor =
    match t.env.monitor_interval with
    | Some interval ->
        let m = Nfsg_stats.Monitor.create t.eng ~metrics:t.metrics ~interval ?emit:t.env.emit () in
        Nfsg_stats.Monitor.start m;
        Some m
    | None -> None
  in
  let result = ref None in
  Engine.spawn t.eng ~name:"driver" (fun () ->
      let v = f () in
      (* The monitor's rearming timer keeps the event queue non-empty;
         stop it with the load or Engine.run never returns. *)
      Option.iter Nfsg_stats.Monitor.stop monitor;
      (* With long-op tracing armed, dump whatever the ring retained
         once the driven load is over — through the same emit callback,
         so the rig itself still never prints. *)
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
  | Some v -> v
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
