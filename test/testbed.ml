(* Shared end-to-end rig: one network segment, one server over a
   configurable device stack, one (or more) clients. *)

open Nfsg_sim
module Segment = Nfsg_net.Segment
module Socket = Nfsg_net.Socket
module Disk = Nfsg_disk.Disk
module Nvram = Nfsg_disk.Nvram
module Stripe = Nfsg_disk.Stripe
module Device = Nfsg_disk.Device
module Server = Nfsg_core.Server
module Write_layer = Nfsg_core.Write_layer
module Client = Nfsg_nfs.Client
module Proto = Nfsg_nfs.Proto
module Rpc_client = Nfsg_rpc.Rpc_client

type rig = {
  eng : Engine.t;
  segment : Segment.t;
  disks : Device.t array;  (** raw spindles *)
  device : Device.t;  (** what the server mounts *)
  server : Server.t;
  rpc : Rpc_client.t;
  client : Client.t;
}

let disk_geometry = { (Disk.rz26 ~capacity:(64 * 1024 * 1024) ()) with Disk.track_bytes = 400 * 1024 }

let make ?(net = Segment.fddi) ?(accel = false) ?(spindles = 1) ?(biods = 4)
    ?(config = Server.default_config) () =
  let eng = Engine.create () in
  let segment = Segment.create eng net in
  let disks =
    Array.init spindles (fun i -> Disk.create eng ~name:(Printf.sprintf "rz26-%d" i) disk_geometry)
  in
  let base =
    if spindles = 1 then disks.(0) else Stripe.device (Stripe.create eng ~chunk:8192 disks)
  in
  let device = if accel then snd (Nvram.create eng base) else base in
  let server = Server.make eng ~segment ~addr:"server" ~device config in
  let csock = Socket.create segment ~addr:"client" () in
  let rpc = Rpc_client.create eng ~sock:csock ~server:"server" () in
  let client = Client.create eng ~rpc ~biods () in
  { eng; segment; disks; device; server; rpc; client }

(* Run [f] as a driver process and drain the simulation. *)
let run rig f =
  let result = ref None in
  Engine.spawn rig.eng ~name:"driver" (fun () -> result := Some (f ()));
  Engine.run rig.eng;
  match !result with Some v -> v | None -> Alcotest.fail "driver process blocked forever"

let root rig = Server.root_fh rig.server

(* Write [total] bytes sequentially through the client cache in
   [app_chunk]-byte application writes, then close. Returns elapsed. *)
let write_file rig file ~total ?(app_chunk = 8192) ?(seed = 7) () =
  let f = Client.open_file rig.client file in
  let t0 = Engine.now rig.eng in
  let pos = ref 0 in
  while !pos < total do
    let n = Stdlib.min app_chunk (total - !pos) in
    let data = Bytes.init n (fun i -> Char.chr ((!pos + i + seed) mod 251)) in
    Client.write f ~off:!pos data;
    pos := !pos + n
  done;
  Client.close f;
  Engine.now rig.eng - t0

let expect_pattern ~total ~seed = Bytes.init total (fun i -> Char.chr ((i + seed) mod 251))

(* Requests a server dispatched for an NFS procedure number, over
   every incarnation that counted into its registry. *)
let op_count server proc =
  Nfsg_stats.Metrics.count (Server.metrics server) ~ns:Nfsg_stats.Names.Ns.server
    (Nfsg_stats.Names.ops (Proto.proc_name proc))

(* [f ()] and the words the allocator handed out while it ran, across
   every process the simulation ran meanwhile: every minor-heap word,
   counted by [Gc.minor_words] (on OCaml 5.1 [Gc.counters] misses the
   words still in the minor heap), plus the blocks allocated straight
   into the major heap, such as 8 KB buffers. The counters are read so
   that their own allocation falls outside the window. The count starts
   on an empty minor heap. OCaml 5.1's counters can also charge a window
   with major-heap words allocated before it, when a major slice runs
   inside it; a gate over a long window takes the least of several. *)
let allocated f =
  let direct_major () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  Gc.minor ();
  let major0 = direct_major () in
  let minor0 = Gc.minor_words () in
  let v = f () in
  let minor1 = Gc.minor_words () in
  (v, minor1 -. minor0 +. (direct_major () -. major0))

(* Words in one 8 KB block. *)
let block_words = 8192 / (Sys.word_size / 8)
