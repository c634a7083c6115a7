module Fs = Nfsg_ufs.Fs
module Proto = Nfsg_nfs.Proto

type spec = { export : string; device : Nfsg_disk.Device.t }

let spec export device = { export; device }

type t = {
  spec : spec;
  fsid : int;
  fs : Fs.t;
  wl : Write_layer.t;
  server_ns : string;
  mutable read_only : bool;
}

let mount eng ~fsid ~exports ~format ~sock ~cpu ~costs ~send_reply ?metrics ~cache_blocks ~readahead
    ~wl_config spec =
  (* The only export counts under the plain namespaces. *)
  let ns plain of_fsid = if exports = 1 then plain else of_fsid fsid in
  let module Ns = Nfsg_stats.Names.Ns in
  if format then Fs.mkfs spec.device ();
  let fs =
    Fs.mount eng ?cache_blocks ?metrics ~ns:(ns Ns.read_plane Ns.read_plane_vol) ?readahead
      spec.device
  in
  let wl =
    Write_layer.create eng ~fs ~sock ~cpu ~costs ~send_reply ?metrics
      ~ns:(ns Ns.write_layer Ns.write_layer_vol) ~fsid wl_config
  in
  { spec; fsid; fs; wl; server_ns = ns Ns.server Ns.server_vol; read_only = false }

let export t = t.spec.export
let fsid t = t.fsid
(* The volume generation lives on the platter: a reformat stamps the
   next one, so a handle minted before it earns NFSERR_STALE, while a
   reboot remounts the same one and handles held across it keep
   working. *)
let vgen t = Fs.format_generation t.fs
let device t = t.spec.device
let fs t = t.fs
let write_layer t = t.wl
let server_ns t = t.server_ns
let read_only t = t.read_only
let set_read_only t ro = t.read_only <- ro

let fh t ino = { Proto.fsid = t.fsid; vgen = vgen t; inum = Fs.inum ino; gen = Fs.generation ino }
let root_fh t = fh t (Fs.root t.fs)

let owns t (fh : Proto.fh) = fh.Proto.fsid = t.fsid && fh.Proto.vgen = vgen t

let crash t = Fs.crash t.fs
