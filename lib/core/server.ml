open Nfsg_sim
module Fs = Nfsg_ufs.Fs
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
  sock : Nfsg_net.Socket.t;
  cpu : Resource.t;
  verf : int;
      (** NFSv3 write verifier: the incarnation number, 1 for a freshly
          made server and one more per restart. A client holding
          unstable data sees it change across a reboot that may have
          lost that data, and rewrites. One number covers every volume:
          it identifies the server boot, not a disk. *)
  send : Svc.transport -> (Xdr.Enc.t -> unit) -> unit;  (** the reply funnel, see [make_internal] *)
  dupcache : Dupcache.t option;
  spares : Nfsg_rpc.Spares.t;
      (** the reply datagrams the service encodes into; a restart hands
          them to the next incarnation *)
  ops : Metrics.counter option array;
      (** by procedure number: its [server/ops_<PROC>] counter, resolved on
          first use *)
  vol_ops : Metrics.counter option array array;
      (** by export-table position, then procedure number: the volume's
          own [ops_<PROC>] counter, resolved on first use *)
  (* Read-ahead streams are per (client, file): the same boot file read
     concurrently by the whole fleet must not look like one thrashing
     stream. Client addresses map to small dense ids in arrival
     order — deterministic under the engine. *)
  stream_ids : (string, int) Hashtbl.t;
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

(* Stamp this transport's journey (if the svc attached one) at the
   engine's current instant. *)
let jstamp t tr stamp =
  match Svc.journey_of tr with Some j -> stamp j ~now:(Engine.now t.eng) | None -> ()

(* Count a call of [proc] in [slots], whose [ops_<PROC>] counter under
   [ns] is resolved on first use. *)
let count_in t slots ~ns proc =
  match slots.(proc) with
  | Some c -> Metrics.incr c
  | None ->
      let c = Metrics.counter t.metrics ~ns (Names.ops (Proto.proc_name proc)) in
      slots.(proc) <- Some c;
      Metrics.incr c

let count_op t proc = count_in t t.ops ~ns:Names.Ns.server proc

(* Per-volume op accounting, once dispatch has routed the request. The
   only export of a server counts in "server" itself, so only several
   exports add a second counter, under vol<k>. Fsids number the export
   table from 1. *)
let count_vol_op t vol proc =
  match t.volumes with
  | [ _ ] -> ()
  | _ -> count_in t t.vol_ops.(Volume.fsid vol - 1) ~ns:(Volume.server_ns vol) proc

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

let inode_in vol (fh : Proto.fh) = Fs.iget (Volume.fs vol) ~inum:fh.Proto.inum ~gen:fh.Proto.gen
let fattr_of vol ino = Fattr.of_inode (Volume.fs vol) ~fsid:(Volume.fsid vol) ino

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
  | Fs.File_too_big _ -> Some Proto.NFSERR_FBIG
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
  let fs = Volume.fs vol in
  let made ino = Proto.RDirop (Ok (Volume.fh vol ino, fattr_of vol ino)) in
  let ok () = Proto.RStatus Proto.NFS_OK in
  match args with
  | Proto.Create { name; _ } -> made (Fs.create fs d name Layout.Regular)
  | Proto.Mkdir { name; _ } -> made (Fs.create fs d name Layout.Directory)
  | Proto.Symlink { name; target; _ } -> made (Fs.symlink fs d name ~target)
  | Proto.Remove { name; _ } -> ok (Fs.remove fs d name)
  | Proto.Rmdir { name; _ } -> ok (Fs.rmdir fs d name)
  | Proto.Rename { from_name; to_name; _ } ->
      ok (Fs.rename fs ~src_dir:d ~src:from_name ~dst_dir ~dst:to_name)
  | _ -> invalid_arg "Server.mutate_dir: not a directory mutation"

(* The per-procedure handler, on the volume and inode routing resolved.
   Every WRITE and COMMIT takes its trip into UFS through the volume's
   write layer. WRITE and stable WRITE3 are left to it to answer once
   the data is stable (v2 and stable v3 writes share its gather
   batches); every other procedure is answered here. *)
let execute t tr vol ino (args : Proto.args) =
  let fs = Volume.fs vol in
  match args with
  | (Proto.Write { offset; data; _ } | Proto.Write3 { offset; data; _ })
    when offset + Xdr.view_length data > Proto.max_size ->
      (* Past the size the reply's attributes can carry. *)
      answer t tr (Proto.error_res ~proc:(Proto.proc_of_args args) Proto.NFSERR_FBIG)
  | Proto.Write { offset; data; _ } ->
      Write_layer.handle_write (Volume.write_layer vol) tr
        ~respond:(fun a -> Proto.RAttr (Ok a))
        ~fail:v2_write_error ino ~off:offset ~data
  | Proto.Write3 { offset; stable = Proto.Data_sync | Proto.File_sync; data; _ } ->
      Write_layer.handle_write (Volume.write_layer vol) tr
        ~respond:(fun a -> Proto.RWrite3 (Ok (a, Proto.File_sync, t.verf)))
        ~fail:v3_write_error ino ~off:offset ~data
  | Proto.Write3 { offset; stable = Proto.Unstable; data; _ } ->
      (* The v3 asynchronous promise: data to the cache, reply
         immediately; durability, and its disk wait, come at COMMIT. *)
      Write_layer.delayed_write (Volume.write_layer vol) tr ino ~off:offset ~data;
      answer t tr (Proto.RWrite3 (Ok (fattr_of vol ino, Proto.Unstable, t.verf)))
  | Proto.Commit { offset; count; _ } ->
      Write_layer.commit (Volume.write_layer vol) tr ino ~off:offset ~count;
      answer t tr (Proto.RCommit (Ok (fattr_of vol ino, t.verf)))
  | Proto.Read { fh; offset; count } ->
      let cache = Fs.cache fs in
      let misses0 = Nfsg_ufs.Buffer_cache.misses cache in
      jstamp t tr Journey.stamp_queued;
      jstamp t tr Journey.stamp_disk_submit;
      let stream =
        if Nfsg_ufs.Buffer_cache.readahead_active cache then
          stream_of t ~client:(Svc.client_of tr) ~inum:fh.Proto.inum
        else 0
      in
      let len = min count Proto.max_data in
      let data = Fs.read_ahead fs ino ~stream ~off:offset ~len in
      jstamp t tr Journey.stamp_disk_complete;
      (* Hit iff no demand read waited: the cache's miss counter did
         not move while we were in UFS. *)
      (match Svc.journey_of tr with
      | Some j -> Journey.set_cache_phase j ~hit:(Nfsg_ufs.Buffer_cache.misses cache = misses0)
      | None -> ());
      answer t tr (Proto.RRead (Ok (fattr_of vol ino, data)))
  | Proto.Null -> answer t tr Proto.RNull
  | Proto.Getattr _ -> answer t tr (Proto.RAttr (Ok (fattr_of vol ino)))
  | Proto.Setattr (_, sattr) ->
      Fs.with_lock ino (fun () ->
          if sattr.Proto.s_size >= 0 then begin
            (* nfsrace: allow Y001 baseline synchronous semantics: truncate commits under the vnode lock before the reply *)
            Fs.truncate fs ino sattr.Proto.s_size;
            (* nfsrace: allow Y001 baseline synchronous semantics: truncate commits under the vnode lock before the reply *)
            Fs.fsync_metadata fs ino
          end;
          match sattr.Proto.s_mtime with
          | Some tv -> Fs.touch fs ino ~mtime:(Proto.ns_of_timeval tv)
          | None -> ());
      answer t tr (Proto.RAttr (Ok (fattr_of vol ino)))
  | Proto.Lookup (_, name) ->
      let found = Fs.lookup fs ino name in
      answer t tr (Proto.RDirop (Ok (Volume.fh vol found, fattr_of vol found)))
  | Proto.Rename { from_dir; to_dir; _ }
    when to_dir.Proto.fsid <> from_dir.Proto.fsid || to_dir.Proto.vgen <> from_dir.Proto.vgen ->
      (* Rename never crosses volumes: distinct fsids are distinct
         filesystems, exactly the classic EXDEV. *)
      answer t tr (Proto.RStatus Proto.NFSERR_XDEV)
  | Proto.Create _ | Proto.Remove _ | Proto.Mkdir _ | Proto.Rmdir _ | Proto.Symlink _
  | Proto.Rename _ ->
      let dst_dir = match args with Proto.Rename { to_dir; _ } -> inode_in vol to_dir | _ -> ino in
      (* nfsrace: allow Y001 baseline synchronous metadata semantics: directory ops commit under the vnode lock before replying *)
      answer t tr (Fs.with_lock ino (fun () -> mutate_dir vol ino ~dst_dir args))
  | Proto.Readlink _ -> answer t tr (Proto.RReadlink (Ok (Fs.readlink fs ino)))
  | Proto.Readdir _ -> answer t tr (Proto.RReaddir (Ok (Fs.readdir fs ino, true)))
  | Proto.Statfs _ ->
      let s = Fs.statfs fs in
      let free = s.Fs.free_blocks in
      answer t tr
        (Proto.RStatfs
           (Ok
              { Proto.tsize = Proto.max_data; bsize = s.Fs.bsize; blocks = s.Fs.total_blocks;
                bfree = free; bavail = free }))

(* The one path every decoded NFS call takes: count it, route its
   handle to a volume and inode, count it there, bounce a mutation off
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
    let ino = inode_in vol fh in
    count_vol_op t vol proc;
    if Proto.mutates proc && Volume.read_only vol then begin
      Metrics.incr (Metrics.counter t.metrics ~ns:(Volume.server_ns vol) Names.rofs_rejections);
      raise Read_only
    end;
    execute t tr vol ino args
  with
  | disposition -> disposition
  | exception e -> (
      match status_of_exn e with
      | Some st -> answer t tr (Proto.error_res ~proc st)
      | None -> raise e)

(* The mini MOUNT service: export name in, root filehandle out. *)
let dispatch_mount t tr (call : Rpc.call) =
  if call.Rpc.proc <> Proto.proc_mnt then Svc.Reply (Rpc.Proc_unavail, Bytes.create 0)
  else begin
    let name = Proto.decode_mnt_args call.Rpc.body in
    let res =
      match List.find_opt (fun v -> Volume.export v = name) t.volumes with
      | Some vol -> Ok (Volume.root_fh vol, Volume.read_only vol)
      | None -> Error Proto.NFSERR_NOENT
    in
    t.send tr (fun enc -> Proto.put_mnt_res enc res);
    Svc.Reply_pending
  end

(* A procedure number without a row in the table is PROC_UNAVAIL,
   answered before any CPU is charged. Arguments that do not decode
   raise [Xdr.Decode_error] out of the dispatch, and Svc answers
   GARBAGE_ARGS: counted, and not cached. *)
let dispatch t tr (call : Rpc.call) =
  let proc = call.Rpc.proc in
  if call.Rpc.prog = Rpc.mount_program then dispatch_mount t tr call
  else if call.Rpc.prog <> Rpc.nfs_program then Svc.Reply (Rpc.Prog_unavail, Bytes.create 0)
  else if Option.is_none (Proto.find_proc proc) then Svc.Reply (Rpc.Proc_unavail, Bytes.create 0)
  else begin
    Resource.use t.cpu (t.config.costs.Cpu_model.rpc_decode + t.config.costs.Cpu_model.op_base);
    dispatch_nfs t tr ~proc (Proto.decode_args ~proc call.Rpc.body)
  end

(* The assembly shared by the fresh-format and recovery paths: the
   first incarnation formats its volumes, a later one remounts them as
   they stand. *)
let make_internal eng ~segment ~addr ?metrics ?(spares = Nfsg_rpc.Spares.create ()) ~incarnation config
    specs =
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
     once. The datagram is encoded before the charge lets other
     processes run, so a READ result that is a window into a cache
     block is copied while the block still holds the bytes read. Bare
     RPC error statuses carry no result and go out free. *)
  let send tr put_result =
    let svc = Option.get !svc_ref in
    let reply = Svc.encode_reply svc tr Rpc.Success put_result in
    Resource.use cpu costs.Cpu_model.rpc_encode;
    Svc.send_encoded svc tr reply
  in
  let send_reply tr res = send tr (fun enc -> Proto.put_res enc res) in
  let volumes =
    List.mapi
      (fun i spec ->
        Volume.mount eng ~fsid:(i + 1) ~exports:(List.length specs) ~format:(incarnation = 1) ~sock
          ~cpu ~costs ~send_reply ~metrics ~cache_blocks:config.cache_blocks
          ~readahead:config.readahead ~wl_config:config.write_layer spec)
      specs
  in
  let journeys = Journey.create eng ~metrics ?threshold:config.long_op_threshold () in
  let dupcache = if config.dupcache then Some (Dupcache.create eng ~metrics ()) else None in
  let t =
    {
      eng;
      segment;
      config;
      addr;
      volumes;
      sock;
      cpu;
      verf = incarnation;
      send;
      dupcache;
      spares;
      ops = Array.make Proto.proc_limit None;
      vol_ops = Array.of_list (List.map (fun _ -> Array.make Proto.proc_limit None) volumes);
      stream_ids = Hashtbl.create 16;
      metrics;
      journeys;
    }
  in
  let svc =
    Svc.create eng ~sock ?dupcache ~journeys ~metrics ~spares
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

let make_exports eng ~segment ~addr ?metrics config specs =
  if specs = [] then invalid_arg "Server.make_exports: need at least one volume";
  make_internal eng ~segment ~addr ?metrics ~incarnation:1 config specs

let make eng ~segment ~addr ~device ?metrics config =
  make_exports eng ~segment ~addr ?metrics config [ Volume.spec "/export" device ]

let crash t =
  (* Power off: volatile state gone and the host leaves the wire. The
     duplicate cache is lost with it, so every reply it held that its
     client gave back joins the spares. *)
  Nfsg_net.Socket.detach t.sock;
  Option.iter Dupcache.clear t.dupcache;
  List.iter Volume.crash t.volumes

let restart t =
  (* Every device recovers (NVRAM replay where fitted), every volume
     remounts fsck-style from stable storage with the generation its
     superblock holds — a reboot does not invalidate client handles —
     and the shared write verifier moves to the next incarnation
     number. *)
  List.iter (fun v -> (Volume.device v).Nfsg_disk.Device.recover ()) t.volumes;
  (* Same registry across incarnations: find-or-create registration
     means the restarted server keeps counting where this one stopped. *)
  let next =
    make_internal t.eng ~segment:t.segment ~addr:t.addr ~metrics:t.metrics ~spares:t.spares
      ~incarnation:(t.verf + 1) t.config
      (List.map (fun v -> Volume.spec (Volume.export v) (Volume.device v)) t.volumes)
  in
  (* The export table's write protection survives the reboot; no nfsd
     has run yet. *)
  List.iter2 (fun v v' -> Volume.set_read_only v' (Volume.read_only v)) t.volumes next.volumes;
  next
