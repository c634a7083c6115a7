open Nfsg_sim
module Fs = Nfsg_ufs.Fs
module Vfs = Nfsg_ufs.Vfs
module Layout = Nfsg_ufs.Layout
module Proto = Nfsg_nfs.Proto
module Rpc = Nfsg_rpc.Rpc
module Svc = Nfsg_rpc.Svc
module Xdr = Nfsg_rpc.Xdr
module Dupcache = Nfsg_rpc.Dupcache
module Metrics = Nfsg_stats.Metrics
module Names = Nfsg_stats.Names
module Journey = Nfsg_stats.Journey

type config = {
  nfsds : int;
  write_layer : Write_layer.config;
  costs : Cpu_model.t;
  dupcache : bool;
  rcvbuf : int;
  cache_blocks : int option;
  readahead : Nfsg_ufs.Buffer_cache.readahead option;
  long_op_threshold : Time.t option;
}

let default_config =
  {
    nfsds = 8;
    write_layer = Write_layer.default_gathering;
    costs = Cpu_model.default;
    dupcache = true;
    rcvbuf = 256 * 1024;
    cache_blocks = None;
    readahead = None;
    long_op_threshold = None;
  }

type t = {
  eng : Engine.t;
  segment : Nfsg_net.Segment.t;
  config : config;
  addr : string;
  volumes : Volume.t list;  (** export table, fsid order *)
  legacy_ns : bool;
  sock : Nfsg_net.Socket.t;
  cpu : Resource.t;
  verf : int;
      (** NFSv3 write verifier: the incarnation number, 1 for a freshly
          made server and one more per restart. A client holding
          unstable data sees it change across a reboot that may have
          lost that data, and rewrites. One number covers every volume:
          it identifies the server boot, not a disk. *)
  send : Svc.transport -> (Xdr.Enc.t -> unit) -> unit;  (** the reply funnel, see [make_internal] *)
  ops : (Metrics.counter * int) option array;
      (** by procedure number: its [server/ops_<PROC>] counter, resolved on
          first use, with the value it had then (it outlives incarnations) *)
  vol_ops : Metrics.counter option array array;
      (** by export-table position, then procedure number: the volume's
          own [ops_<PROC>] counter, resolved on first use *)
  (* Read-ahead streams are per (client, file): the same boot file read
     concurrently by the whole fleet must not look like one thrashing
     stream. Client addresses map to small dense ids in arrival
     order — deterministic under the engine. *)
  stream_ids : (string, int) Hashtbl.t;
  trace : Nfsg_stats.Trace.t option;
  metrics : Metrics.t;
  journeys : Journey.plane;
}

let volumes t = t.volumes

let first_volume t = List.hd t.volumes
let exports t = List.map (fun v -> (Volume.export v, Volume.root_fh v)) t.volumes
let root_fh t = Volume.root_fh (first_volume t)
let fs t = Volume.fs (first_volume t)
let cpu t = t.cpu
let write_layer t = Volume.write_layer (first_volume t)
let socket t = t.sock
let write_verifier t = t.verf
let metrics t = t.metrics
let journeys t = t.journeys

let op_count t proc =
  match t.ops.(proc) with Some (c, base) -> Metrics.value c - base | None -> 0

(* Stamp this transport's journey (if the svc attached one) at the
   engine's current instant. *)
let jstamp t tr stamp =
  match Svc.journey_of tr with Some j -> stamp j ~now:(Engine.now t.eng) | None -> ()

let count_op t proc =
  match t.ops.(proc) with
  | Some (c, _) -> Metrics.incr c
  | None ->
      let c = Metrics.counter t.metrics ~ns:Names.Ns.server (Names.ops (Proto.proc_name proc)) in
      t.ops.(proc) <- Some (c, Metrics.value c);
      Metrics.incr c

(* Per-volume op accounting, once dispatch has routed the request. The
   legacy single-volume server's namespace IS "server", so only the
   vol<k> namespaces add a second counter. Fsids number the export
   table from 1. *)
let count_vol_op t vol proc =
  if not t.legacy_ns then begin
    let slots = t.vol_ops.(Volume.fsid vol - 1) in
    match slots.(proc) with
    | Some c -> Metrics.incr c
    | None ->
        let c = Metrics.counter t.metrics ~ns:(Volume.server_ns vol) (Names.ops (Proto.proc_name proc)) in
        slots.(proc) <- Some c;
        Metrics.incr c
  end

(* Stream id for the read-ahead engine: client identity in the high
   bits, inode number in the low bits. *)
let stream_of t ~client ~inum =
  let cid =
    match Hashtbl.find_opt t.stream_ids client with
    | Some id -> id
    | None ->
        let id = Hashtbl.length t.stream_ids in
        Hashtbl.replace t.stream_ids client id;
        id
  in
  (cid lsl 24) lor (inum land 0xFFFFFF)

(* {1 Dispatch} *)

(* Routing: fsid picks the volume; a dead volume generation (volume
   reformatted or replaced since the handle was minted) or an unknown
   fsid is the same staleness a freed inode slot has — the handle
   names nothing this server still exports. *)
let volume_of_fh t (fh : Proto.fh) =
  match List.find_opt (fun v -> Volume.fsid v = fh.Proto.fsid) t.volumes with
  | Some v when Volume.vgen v = fh.Proto.vgen -> v
  | Some _ | None -> raise (Fs.Stale fh.Proto.inum)

let vnode_in vol (fh : Proto.fh) =
  let fs = Volume.fs vol in
  Vfs.vnode_of_inode fs (Fs.iget fs ~inum:fh.Proto.inum ~gen:fh.Proto.gen)

let fattr_of_vnode vol v = Fattr.of_vnode ~fsid:(Volume.fsid vol) v

(* Raised by routing when a mutation reaches a read-only export. *)
exception Read_only

(* Map filesystem exceptions onto NFS statuses. *)
let status_of_exn = function
  | Fs.Stale _ -> Some Proto.NFSERR_STALE
  | Not_found -> Some Proto.NFSERR_NOENT
  | Fs.Exists _ -> Some Proto.NFSERR_EXIST
  | Fs.Not_dir _ -> Some Proto.NFSERR_NOTDIR
  | Fs.Is_dir _ -> Some Proto.NFSERR_ISDIR
  | Fs.Not_empty _ -> Some Proto.NFSERR_NOTEMPTY
  | Fs.Not_symlink _ -> Some Proto.NFSERR_IO
  | Nfsg_disk.Device.Io_error _ -> Some Proto.NFSERR_IO
  | Fs.No_space -> Some Proto.NFSERR_NOSPC
  | Read_only -> Some Proto.NFSERR_ROFS
  | _ -> None

(* The filehandle dispatch routes on. NULL names no file: it is served
   by the first export's root. *)
let primary_fh t : Proto.args -> Proto.fh = function
  | Proto.Null -> root_fh t
  | Proto.Getattr fh | Proto.Statfs fh | Proto.Readlink fh -> fh
  | Proto.Setattr (fh, _) | Proto.Lookup (fh, _) -> fh
  | Proto.Read { fh; _ } | Proto.Write { fh; _ } | Proto.Write3 { fh; _ } -> fh
  | Proto.Commit { fh; _ } | Proto.Readdir { fh; _ } -> fh
  | Proto.Create { dir; _ } | Proto.Remove { dir; _ } | Proto.Mkdir { dir; _ } -> dir
  | Proto.Rmdir { dir; _ } | Proto.Symlink { dir; _ } | Proto.Rename { from_dir = dir; _ } -> dir

let v2_write_error = Proto.error_res ~proc:Proto.proc_write
let v3_write_error = Proto.error_res ~proc:Proto.proc_write3

let answer t tr res =
  t.send tr (fun enc -> Proto.put_res enc res);
  Svc.Reply_pending

(* Directory mutations keep the baseline's synchronous metadata
   semantics: [d] is the locked parent, [dst_dir] a rename's target. *)
let mutate_dir vol d ~dst_dir (args : Proto.args) =
  let made v = Proto.RDirop (Ok (Volume.fh vol (Vfs.inode_of v), fattr_of_vnode vol v)) in
  match args with
  | Proto.Create { name; _ } -> made (Vfs.vop_create d name Layout.Regular)
  | Proto.Mkdir { name; _ } -> made (Vfs.vop_mkdir d name)
  | Proto.Symlink { name; target; _ } -> made (Vfs.vop_symlink d name ~target)
  | Proto.Remove { name; _ } ->
      Vfs.vop_remove d name;
      Proto.RStatus Proto.NFS_OK
  | Proto.Rmdir { name; _ } ->
      Vfs.vop_rmdir d name;
      Proto.RStatus Proto.NFS_OK
  | Proto.Rename { from_name; to_name; _ } ->
      Vfs.vop_rename d ~src:from_name ~dst_dir ~dst:to_name;
      Proto.RStatus Proto.NFS_OK
  | _ -> invalid_arg "Server.mutate_dir: not a directory mutation"

(* The per-procedure handler, on the volume and vnode routing resolved.
   WRITE and stable WRITE3 go to the volume's write layer, which
   replies itself once the data is stable (v2 and stable v3 writes
   share its gather batches); every other procedure is answered here. *)
let execute t tr vol v (args : Proto.args) =
  match args with
  | Proto.Write { offset; data; _ } ->
      Write_layer.handle_write (Volume.write_layer vol) tr
        ~respond:(fun a -> Proto.RAttr (Ok a))
        ~fail:v2_write_error v ~off:offset ~data
  | Proto.Write3 { offset; stable = Proto.Data_sync | Proto.File_sync; data; _ } ->
      Write_layer.handle_write (Volume.write_layer vol) tr
        ~respond:(fun a -> Proto.RWrite3 (Ok (a, Proto.File_sync, t.verf)))
        ~fail:v3_write_error v ~off:offset ~data
  | Proto.Write3 { offset; stable = Proto.Unstable; data; _ } ->
      (* The v3 asynchronous promise: data to the cache, reply
         immediately; durability comes at COMMIT. *)
      Vfs.with_lock v (fun () ->
          Resource.use t.cpu t.config.costs.Cpu_model.ufs_trip;
          (* nfsrace: allow Y001 delayed write: a cache-miss fill may park, and the fill must happen under the vnode lock *)
          Vfs.vop_write v ~off:offset data ~flags:[ Vfs.IO_DELAYDATA ]);
      (* The unstable write's journey ends at the cache: no gather
         wait, no disk — COMMIT pays those. *)
      jstamp t tr Journey.stamp_queued;
      answer t tr (Proto.RWrite3 (Ok (fattr_of_vnode vol v, Proto.Unstable, t.verf)))
  | Proto.Commit { offset; count; _ } ->
      (* On a disk error the unstable data stays dirty in the cache;
         the client keeps it and re-COMMITs. *)
      jstamp t tr Journey.stamp_queued;
      Vfs.with_lock v (fun () ->
          Resource.use t.cpu t.config.costs.Cpu_model.ufs_trip;
          let len = if count = 0 then (Vfs.vop_getattr v).Fs.size - offset else count in
          jstamp t tr Journey.stamp_disk_submit;
          (* nfsrace: allow Y001 COMMIT is the durability point: the client pays the disk wait, and the vnode lock orders it against writers *)
          if len > 0 then Vfs.vop_syncdata v ~off:offset ~len;
          Resource.use t.cpu t.config.costs.Cpu_model.ufs_trip;
          (* nfsrace: allow Y001 COMMIT is the durability point: the client pays the disk wait, and the vnode lock orders it against writers *)
          Vfs.vop_fsync v ~flags:[ Vfs.FWRITE; Vfs.FWRITE_METADATA ]);
      jstamp t tr Journey.stamp_disk_complete;
      answer t tr (Proto.RCommit (Ok (fattr_of_vnode vol v, t.verf)))
  | Proto.Read { fh; offset; count } ->
      let cache = Fs.cache (Volume.fs vol) in
      let misses0 = Nfsg_ufs.Buffer_cache.misses cache in
      jstamp t tr Journey.stamp_queued;
      jstamp t tr Journey.stamp_disk_submit;
      let stream =
        if Nfsg_ufs.Buffer_cache.readahead_active cache then
          stream_of t ~client:(Svc.client_of tr) ~inum:fh.Proto.inum
        else 0
      in
      let data = Vfs.vop_read_ahead v ~stream ~off:offset ~len:count in
      jstamp t tr Journey.stamp_disk_complete;
      (* Hit iff no demand read waited: the cache's miss counter did
         not move while we were in the vop. *)
      (match Svc.journey_of tr with
      | Some j -> Journey.set_cache_phase j ~hit:(Nfsg_ufs.Buffer_cache.misses cache = misses0)
      | None -> ());
      answer t tr (Proto.RRead (Ok (fattr_of_vnode vol v, data)))
  | Proto.Null -> answer t tr Proto.RNull
  | Proto.Getattr _ -> answer t tr (Proto.RAttr (Ok (fattr_of_vnode vol v)))
  | Proto.Setattr (_, sattr) ->
      Vfs.with_lock v (fun () ->
          if sattr.Proto.s_size >= 0 then begin
            (* nfsrace: allow Y001 baseline synchronous semantics: truncate commits under the vnode lock before the reply *)
            Vfs.vop_truncate v sattr.Proto.s_size;
            (* nfsrace: allow Y001 baseline synchronous semantics: truncate commits under the vnode lock before the reply *)
            Nfsg_ufs.Fs.fsync_metadata (Volume.fs vol) (Vfs.inode_of v)
          end;
          match sattr.Proto.s_mtime with
          | Some tv -> Vfs.vop_touch v ~mtime:(Proto.ns_of_timeval tv)
          | None -> ());
      answer t tr (Proto.RAttr (Ok (fattr_of_vnode vol v)))
  | Proto.Lookup (_, name) ->
      let found = Vfs.vop_lookup v name in
      answer t tr (Proto.RDirop (Ok (Volume.fh vol (Vfs.inode_of found), fattr_of_vnode vol found)))
  | Proto.Rename { from_dir; to_dir; _ }
    when to_dir.Proto.fsid <> from_dir.Proto.fsid || to_dir.Proto.vgen <> from_dir.Proto.vgen ->
      (* Rename never crosses volumes: distinct fsids are distinct
         filesystems, exactly the classic EXDEV. *)
      answer t tr (Proto.RStatus Proto.NFSERR_XDEV)
  | Proto.Create _ | Proto.Remove _ | Proto.Mkdir _ | Proto.Rmdir _ | Proto.Symlink _
  | Proto.Rename _ ->
      let dst_dir = match args with Proto.Rename { to_dir; _ } -> vnode_in vol to_dir | _ -> v in
      (* nfsrace: allow Y001 baseline synchronous metadata semantics: directory ops commit under the vnode lock before replying *)
      answer t tr (Vfs.with_lock v (fun () -> mutate_dir vol v ~dst_dir args))
  | Proto.Readlink _ -> answer t tr (Proto.RReadlink (Ok (Vfs.vop_readlink v)))
  | Proto.Readdir _ -> answer t tr (Proto.RReaddir (Ok (Vfs.vop_readdir v, true)))
  | Proto.Statfs _ ->
      let s = Fs.statfs (Volume.fs vol) in
      let free = s.Fs.free_blocks in
      answer t tr
        (Proto.RStatfs
           (Ok
              { Proto.tsize = 8192; bsize = s.Fs.bsize; blocks = s.Fs.total_blocks; bfree = free;
                bavail = free }))

(* The one path every decoded NFS call takes: count it, route its
   handle to a volume and vnode, count it there, bounce a mutation off
   a read-only export, run its handler — and map a filesystem error
   anywhere along the way to the procedure's own error shape. *)
let dispatch_nfs t tr ~proc args =
  (match Svc.journey_of tr with
  | Some j ->
      let payload =
        match args with
        | Proto.Write { data; _ } | Proto.Write3 { data; _ } -> Xdr.view_length data
        | Proto.Read { count; _ } -> count
        | _ -> 0
      in
      Journey.set_op j ~proc:(Proto.proc_name proc) ~bytes:payload
  | None -> ());
  count_op t proc;
  match
    let fh = primary_fh t args in
    let vol = volume_of_fh t fh in
    let v = vnode_in vol fh in
    count_vol_op t vol proc;
    if Proto.mutates proc && Volume.read_only vol then begin
      Metrics.incr (Metrics.counter t.metrics ~ns:(Volume.server_ns vol) Names.rofs_rejections);
      raise Read_only
    end;
    execute t tr vol v args
  with
  | disposition -> disposition
  | exception e -> (
      match status_of_exn e with
      | Some st -> answer t tr (Proto.error_res ~proc st)
      | None -> raise e)

(* The mini MOUNT service: export name in, root filehandle out. *)
let dispatch_mount t tr (call : Rpc.call) =
  if call.Rpc.proc <> Proto.proc_mnt then Svc.Reply (Rpc.Proc_unavail, Bytes.create 0)
  else
    match Proto.decode_mnt_args call.Rpc.body with
    | exception Xdr.Decode_error _ -> Svc.Reply (Rpc.Garbage_args, Bytes.create 0)
    | name ->
        let res =
          match List.find_opt (fun v -> Volume.export v = name) t.volumes with
          | Some vol -> Ok (Volume.root_fh vol, Volume.read_only vol)
          | None -> Error Proto.NFSERR_NOENT
        in
        t.send tr (fun enc -> Proto.put_mnt_res enc res);
        Svc.Reply_pending

let dispatch t tr (call : Rpc.call) =
  if call.Rpc.prog = Rpc.mount_program then dispatch_mount t tr call
  else if call.Rpc.prog <> Rpc.nfs_program then Svc.Reply (Rpc.Prog_unavail, Bytes.create 0)
  else begin
    Resource.use t.cpu (t.config.costs.Cpu_model.rpc_decode + t.config.costs.Cpu_model.op_base);
    match Proto.decode_args ~proc:call.Rpc.proc call.Rpc.body with
    | exception Xdr.Decode_error _ -> Svc.Reply (Rpc.Garbage_args, Bytes.create 0)
    | args -> dispatch_nfs t tr ~proc:call.Rpc.proc args
  end

(* The assembly shared by the fresh-format and recovery paths.
   [vols] carries, per export, its spec, the vgen to preserve (or
   [None] for a fresh one) and whether to format. *)
let make_internal eng ~segment ~addr ?trace ?metrics ~legacy_ns ~incarnation config vols =
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let cpu = Resource.create eng "server-cpu" in
  let costs = config.costs in
  let sock =
    Nfsg_net.Socket.create segment ~addr ~rcvbuf:config.rcvbuf
      ~on_rx_fragment:(fun ~bytes:_ -> Resource.charge cpu costs.Cpu_model.rx_fragment)
      ()
  in
  let svc_ref = ref None in
  (* The reply funnel: every result, sent by the nfsd that ran the call
     or by a later one flushing a gathered batch, pays its encode here,
     once. Bare RPC error statuses carry no result and go out free. *)
  let send tr put_result =
    Resource.use cpu costs.Cpu_model.rpc_encode;
    Svc.send_reply_with (Option.get !svc_ref) tr Rpc.Success put_result
  in
  let send_reply tr res = send tr (fun enc -> Proto.put_res enc res) in
  let volumes =
    List.mapi
      (fun i (spec, vgen, mkfs) ->
        Volume.mount eng ~fsid:(i + 1) ?vgen ~legacy_ns ~sock ~cpu ~costs ~send_reply ?trace
          ~metrics ~mkfs ~wl_config:config.write_layer spec)
      vols
  in
  let journeys =
    Journey.create eng ~metrics ?threshold:config.long_op_threshold ?event_trace:trace ()
  in
  let t =
    {
      eng;
      segment;
      config;
      addr;
      volumes;
      legacy_ns;
      sock;
      cpu;
      verf = incarnation;
      send;
      ops = Array.make (Proto.proc_commit + 1) None (* COMMIT has the highest number *);
      vol_ops = Array.of_list (List.map (fun _ -> Array.make (Proto.proc_commit + 1) None) volumes);
      stream_ids = Hashtbl.create 16;
      trace;
      metrics;
      journeys;
    }
  in
  let dupcache = if config.dupcache then Some (Dupcache.create eng ~metrics ()) else None in
  let svc =
    Svc.create eng ~sock ?dupcache ~journeys ~metrics
      ~on_duplicate_drop:(fun ~client:_ call ->
        if call.Rpc.prog = Rpc.nfs_program && call.Rpc.proc = Proto.proc_write then
          match Proto.decode_args ~proc:call.Rpc.proc call.Rpc.body with
          | Proto.Write { fh; _ } -> (
              (* Route the orphan rescue to the right volume's plane. *)
              match List.find_opt (fun v -> Volume.owns v fh) t.volumes with
              | Some vol -> Write_layer.rescue (Volume.write_layer vol) ~inum:fh.Proto.inum
              | None -> ())
          | _ | (exception Xdr.Decode_error _) -> ())
      ~nfsds:config.nfsds ~dispatch:(dispatch t) ()
  in
  svc_ref := Some svc;
  t

let make_exports eng ~segment ~addr ?trace ?metrics ?(mkfs = true) config specs =
  if specs = [] then invalid_arg "Server.make_exports: need at least one volume";
  make_internal eng ~segment ~addr ?trace ?metrics ~legacy_ns:false ~incarnation:1 config
    (List.map (fun spec -> (spec, None, mkfs)) specs)

(* The historical single-volume constructor, kept as the 1-volume
   special case with its historical metrics namespaces. *)
let make eng ~segment ~addr ~device ?trace ?metrics ?(mkfs = true) config =
  make_internal eng ~segment ~addr ?trace ?metrics ~legacy_ns:true ~incarnation:1 config
    [
      ( Volume.spec ?cache_blocks:config.cache_blocks ?readahead:config.readahead "/export" device,
        None,
        mkfs );
    ]

let crash t =
  (* Power off: volatile state gone and the host leaves the wire. *)
  Nfsg_net.Socket.detach t.sock;
  List.iter Volume.crash t.volumes

let recover t =
  (* Every device recovers (NVRAM replay where fitted), every volume
     remounts fsck-style from stable storage; the volume generations
     are preserved — a reboot does not invalidate client handles — and
     the shared write verifier moves to the next incarnation number. *)
  List.iter (fun v -> (Volume.device v).Nfsg_disk.Device.recover ()) t.volumes;
  (* Same registry across incarnations: find-or-create registration
     means the restarted server keeps counting where this one stopped. *)
  make_internal t.eng ~segment:t.segment ~addr:t.addr ?trace:t.trace ~metrics:t.metrics
    ~legacy_ns:t.legacy_ns ~incarnation:(t.verf + 1) t.config
    (List.map (fun v -> (Volume.spec_of v, Some (Volume.vgen v), false)) t.volumes)

let restart = recover
