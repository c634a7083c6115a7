open Nfsg_sim
module Fs = Nfsg_ufs.Fs
module Proto = Nfsg_nfs.Proto
module Svc = Nfsg_rpc.Svc
module Xdr = Nfsg_rpc.Xdr
module Trace = Nfsg_stats.Trace
module Metrics = Nfsg_stats.Metrics
module Names = Nfsg_stats.Names
module Histogram = Nfsg_stats.Histogram
module Journey = Nfsg_stats.Journey

type mode = Standard | Gathering | Unsafe_async

type config = {
  mode : mode;
  procrastinate : Time.t;
  use_mbuf_hunter : bool;
  reply_order : [ `Fifo | `Lifo ];
  latency_device : [ `Procrastinate | `First_write ];
  learn_clients : bool;
}

let default_gathering =
  {
    mode = Gathering;
    procrastinate = Time.of_ms_f 8.0;
    use_mbuf_hunter = true;
    reply_order = `Fifo;
    latency_device = `Procrastinate;
    learn_clients = false;
  }

let standard = { default_gathering with mode = Standard }
let unsafe_async = { default_gathering with mode = Unsafe_async }

type descriptor = {
  tr : Svc.transport;
  seq : int;
  client : string;
  arrived : Time.t;  (** queue time, for the deferred-reply latency split *)
  respond : Proto.fattr -> Proto.res;  (** v2 and v3 writes share batches *)
  fail : Proto.status -> Proto.res;
      (** error-reply formatter, so a failed flush answers v2 and v3
          descriptors each in their own shape *)
}

(* Per-file gather state: the paper's "global array of nfsd state"
   plus the active write queue, folded into one record per vnode. *)
type gstate = {
  ino : Fs.inode;
  mutable active : int;  (** nfsds currently inside handle_write for this file *)
  mutable queue : descriptor list;  (** newest first; all unreplied descriptors *)
  mutable lo : int;  (** dirty byte range for VOP_SYNCDATA hints *)
  mutable hi : int;
}

(* Mogul's learned-client database: an exponentially-weighted success
   score per client address. Writes that end up in a batch with company
   score 1; writes flushed alone score 0. Clients that settle near 0
   are single-threaded and skip the procrastination penalty. *)
type learned = { mutable score : float; mutable samples : int }

type event =
  | Received of { bytes : int; off : int }
  | To_presto of { bytes : int }
  | Procrastinating
  | To_disk of { bytes : int; clustered : bool }
  | Metadata_to_disk
  | Replied
  | Replied_batch of int
  | Replied_volatile
  | Write_failed
  | Flush_failed of int

type t = {
  eng : Engine.t;
  fs : Fs.t;
  sock : Nfsg_net.Socket.t;
  cpu : Resource.t;
  costs : Cpu_model.t;
  send_reply : Svc.transport -> Proto.res -> unit;
  events : event Trace.t;  (** this layer's flight recorder, always on *)
  cfg : config;
  fsid : int;  (** volume id stamped into reply attributes *)
  states : (int, gstate) Hashtbl.t;
  clients : (string, learned) Hashtbl.t;
  mutable seq : int;
  (* Registry-backed counters (namespace "write_layer", or
     "write_layer.vol<fsid>" for a multi-volume plane): the same
     [int ref]s serve the accessor API below and the metrics report. *)
  writes : Metrics.counter;
  batches : Metrics.counter;
  gathered : Metrics.counter;
  procrastinations : Metrics.counter;
  procrastinate_failures : Metrics.counter;
  mbuf_hits : Metrics.counter;
  rescues : Metrics.counter;
  flush_failures : Metrics.counter;
  meta_flushes_saved : Metrics.counter;
  batch_size_h : Histogram.t;
  reply_latency_us : Histogram.t;
}

let create eng ~fs ~sock ~cpu ~costs ~send_reply ?metrics ~ns ~fsid cfg =
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  {
    eng;
    fs;
    sock;
    cpu;
    costs;
    send_reply;
    events = Trace.create eng ~capacity:4096 ~dummy:Replied;
    cfg;
    fsid;
    states = Hashtbl.create 64;
    clients = Hashtbl.create 16;
    seq = 0;
    writes = Metrics.counter m ~ns Names.writes;
    batches = Metrics.counter m ~ns Names.batches;
    gathered = Metrics.counter m ~ns Names.gathered_replies;
    procrastinations = Metrics.counter m ~ns Names.procrastinations;
    procrastinate_failures = Metrics.counter m ~ns Names.procrastinate_failures;
    mbuf_hits = Metrics.counter m ~ns Names.mbuf_hits;
    rescues = Metrics.counter m ~ns Names.rescues;
    flush_failures = Metrics.counter m ~ns Names.flush_failures;
    meta_flushes_saved = Metrics.counter m ~ns Names.metadata_flushes_saved;
    batch_size_h = Metrics.histogram m ~ns ~least:1.0 ~growth:1.5 Names.batch_size;
    reply_latency_us = Metrics.histogram m ~ns Names.reply_latency_us;
  }

let writes_handled t = Metrics.value t.writes
let batches t = Metrics.value t.batches
let gathered_replies t = Metrics.value t.gathered
let procrastinations t = Metrics.value t.procrastinations
let procrastinate_failures t = Metrics.value t.procrastinate_failures
let mbuf_hits t = Metrics.value t.mbuf_hits
let flush_failures t = Metrics.value t.flush_failures

let mean_batch_size t =
  if Metrics.value t.batches = 0 then 0.0
  else float_of_int (Metrics.value t.gathered) /. float_of_int (Metrics.value t.batches)

(* {1 Learned clients (Future Work: Mogul's scheme)} *)

let learned_of t client =
  match Hashtbl.find_opt t.clients client with
  | Some l -> l
  | None ->
      let l = { score = 1.0; samples = 0 } in
      Hashtbl.replace t.clients client l;
      l

let learn t client ~gathered =
  let l = learned_of t client in
  l.score <- (0.85 *. l.score) +. (0.15 *. if gathered then 1.0 else 0.0);
  l.samples <- l.samples + 1

(* A client is "known solo" once we have evidence and its score says
   its writes essentially never find company. *)
let known_solo t client =
  t.cfg.learn_clients
  &&
  let l = learned_of t client in
  l.samples >= 8 && l.score < 0.25

(* {1 Flight recorder} *)

let record t event = Trace.record t.events ~actor:(Engine.self_name ()) event
let events t = Trace.events t.events

(* Figure 1's labels: the only text the write path makes. *)
let describe = function
  | Received { bytes; off } -> Printf.sprintf "%dK Write recv (off=%dK)" (bytes / 1024) (off / 1024)
  | To_presto { bytes } -> Printf.sprintf "%dK data to Presto" (bytes / 1024)
  | Procrastinating -> "Gather Writes (procrastinate)"
  | To_disk { bytes; clustered } ->
      Printf.sprintf "%dK data to disk%s" (bytes / 1024) (if clustered then " (clustered)" else "")
  | Metadata_to_disk -> "Metadata to disk"
  | Replied -> "Write Reply"
  | Replied_batch n -> Printf.sprintf "%d Write Repl%s" n (if n = 1 then "y" else "ies")
  | Replied_volatile -> "Write Reply (volatile!)"
  | Write_failed -> "Write failed: NFSERR_IO"
  | Flush_failed n -> Printf.sprintf "Flush failed: %d NFSERR_IO Repl%s" n (if n = 1 then "y" else "ies")

let gstate_of t ino =
  let id = Fs.inum ino in
  match Hashtbl.find_opt t.states id with
  | Some g -> g
  | None ->
      let g = { ino; active = 0; queue = []; lo = max_int; hi = 0 } in
      Hashtbl.replace t.states id g;
      g

let charge_trip t = Resource.use t.cpu t.costs.Cpu_model.ufs_trip

(* Journey stamps for the operability plane; no-ops when the service
   runs without one. *)
let jstamp t tr stamp =
  match Svc.journey_of tr with Some j -> stamp j ~now:(Engine.now t.eng) | None -> ()

(* The mbuf hunter (section 6.5): grep the socket buffer for another
   WRITE to the same file. "A gross violation of kernel layering, but
   with a fast server this technique is often a win." The fsid must
   match too: with several exports on one socket, inode numbers repeat
   across volumes and a foreign WRITE is no company at all. *)
let socket_has_write_for t inum =
  let hit =
    Nfsg_net.Socket.scan t.sock (fun ~src:_ payload ->
        match Proto.peek_write payload with
        | Some (fh, _, _) -> fh.Proto.fsid = t.fsid && fh.Proto.inum = inum
        | None -> false)
  in
  if hit then Metrics.incr t.mbuf_hits;
  hit

let reply_ok t d attr =
  Histogram.add t.reply_latency_us (Time.to_us_f (Engine.now t.eng - d.arrived));
  t.send_reply d.tr (d.respond attr)

(* Flush the gathered batch: data (if delayed), one metadata update,
   then every pending reply — FIFO, all with the same mtime. A disk
   error during the flush fails {e every} descriptor in the batch with
   NFSERR_IO (still FIFO): no reply was allowed out before the covering
   metadata update, so no reply may claim success after it failed. The
   nfsd survives; clients see the errors and retry. *)
let flush_as_metadata_writer t g =
  let rec rounds () =
    let batch = List.sort (fun (a : descriptor) b -> compare a.seq b.seq) g.queue in
    g.queue <- [];
    let lo = g.lo and hi = g.hi in
    g.lo <- max_int;
    g.hi <- 0;
    Fs.lock g.ino;
    let accel, ordered, n =
      try
        let accel = Fs.accelerated t.fs in
        let ordered = match t.cfg.reply_order with `Fifo -> batch | `Lifo -> List.rev batch in
        let n = List.length ordered in
        (* Every descriptor in the batch rides this covering flush: its
           gather wait ends here, its disk phase starts here. A failed
           round re-stamps on the retry (last-write-wins) — the pair the
           reply actually waited on. *)
        List.iter (fun (d : descriptor) -> jstamp t d.tr Journey.stamp_disk_submit) ordered;
        (accel, ordered, n)
      with exn ->
        Fs.unlock g.ino;
        raise exn
    in
    (match
       let await =
         try
           (* Data clusters and the covering metadata go down as ONE
              device submission (Fs.commit_range_begin): the scheduler
              overlaps and merges the clusters, and barriers keep the
              inode from becoming stable ahead of its data. One trip
              into UFS instead of the syncdata-then-fsync convoy. With
              the data already in NVRAM, or none dirty, the range is
              empty and only the metadata goes down. *)
           let off, len = if (not accel) && lo < hi then (lo, hi - lo) else (0, 0) in
           charge_trip t;
           if len > 0 then record t (To_disk { bytes = len; clustered = true });
           record t Metadata_to_disk;
           (* nfsrace: allow Y001 the inode encode reads its blocks through the cache and must run under the vnode lock; only the post-submit wait is moved outside *)
           Fs.commit_range_begin t.fs g.ino ~off ~len
         with exn ->
           Fs.unlock g.ino;
           raise exn
       in
       (* The submission is down and its blocks are copy-on-write:
          drop the vnode lock before parking on the device. A WRITE
          arriving mid-flush now enters the cache and the gather queue
          in microseconds on its own nfsd instead of convoying the
          whole nfsd pool behind this device round-trip — only the
          metadata writer blocks, as section 6.8 intends. *)
       Fs.unlock g.ino;
       await ()
     with
    | () ->
        List.iter (fun (d : descriptor) -> jstamp t d.tr Journey.stamp_disk_complete) ordered;
        let attr = Fattr.of_inode t.fs ~fsid:t.fsid g.ino in
        if n > 0 then record t (Replied_batch n);
        List.iter (fun d -> reply_ok t d attr) ordered;
        if t.cfg.learn_clients then
          List.iter (fun (d : descriptor) -> learn t d.client ~gathered:(n > 1)) ordered;
        Metrics.incr t.batches;
        Metrics.add t.gathered n;
        if n > 0 then Histogram.add t.batch_size_h (float_of_int n);
        (* n writes acknowledged under one covering metadata update:
           n-1 inode flushes a standard server would have issued. *)
        if n > 1 then Metrics.add t.meta_flushes_saved (n - 1)
    | exception Nfsg_disk.Device.Io_error _ ->
        (* The blocks stayed dirty in the cache (UFS restores the dirty
           flags on a failed sync); widen the range back so the next
           round's syncdata covers them again. *)
        g.lo <- Stdlib.min g.lo lo;
        g.hi <- Stdlib.max g.hi hi;
        Metrics.incr t.flush_failures;
        record t (Flush_failed n);
        List.iter (fun d -> t.send_reply d.tr (d.fail Proto.NFSERR_IO)) ordered);
    (* Writes that arrived while we were flushing: if no OTHER nfsd is
       active to pick them up (we ourselves still count in g.active
       when called from handle_gathering), we stay metadata writer for
       another round — otherwise their descriptors would be orphaned,
       the failure mode of section 6.9. The new batch gets the same
       gathering opportunity a fresh nfsd would give it. *)
    if g.queue <> [] && g.active <= 1 then begin
      if t.cfg.latency_device = `Procrastinate && t.cfg.procrastinate > 0 then begin
        Metrics.incr t.procrastinations;
        Engine.delay t.cfg.procrastinate
      end;
      if g.queue <> [] && g.active <= 1 then rounds ()
    end
  in
  rounds ()

let maybe_gc t g =
  if g.active = 0 && g.queue = [] then Hashtbl.remove t.states (Fs.inum g.ino)

(* A gathered write refused before its data reached the cache fails
   alone: its descriptor was never queued, so queued company is safe. *)
let fail_alone t g tr ~fail st =
  g.active <- g.active - 1;
  t.send_reply tr (fail st);
  (* If gatherers were counting on us, flush what they queued. *)
  if g.active = 0 && g.queue <> [] then flush_as_metadata_writer t g;
  maybe_gc t g

(* Standard (reference port) path: everything synchronous under the
   vnode lock, reply sent by the same nfsd that did the work. *)
let handle_standard t tr ~respond ~fail ino ~off ~data =
  (match
     Fs.with_lock ino (fun () ->
         (* Synchronous path: the write goes straight to disk, so queued
            and disk-submit are the same instant. *)
         jstamp t tr Journey.stamp_queued;
         jstamp t tr Journey.stamp_disk_submit;
         charge_trip t;
         record t (To_disk { bytes = Xdr.view_length data; clustered = false });
         (* nfsrace: allow Y001 the paper's synchronous path: the reference port holds the vnode lock across its disk write by design *)
         Fs.write_view t.fs ino ~off data ~mode:Fs.Sync;
         if Fs.meta_dirty ino = `Clean then record t Metadata_to_disk)
   with
  | () ->
      jstamp t tr Journey.stamp_disk_complete;
      Metrics.incr t.batches;
      Metrics.incr t.gathered;
      Histogram.add t.batch_size_h 1.0;
      (* The reply's encode is charged as it is sent: stamp the event
         after it, at the instant the reply leaves. *)
      t.send_reply tr (respond (Fattr.of_inode t.fs ~fsid:t.fsid ino));
      record t Replied
  | exception Fs.No_space -> t.send_reply tr (fail Proto.NFSERR_NOSPC)
  | exception Fs.File_too_big _ -> t.send_reply tr (fail Proto.NFSERR_FBIG)
  | exception Nfsg_disk.Device.Io_error _ ->
      record t Write_failed;
      t.send_reply tr (fail Proto.NFSERR_IO));
  Svc.Reply_pending

(* Gathering path, one nfsd D (paper section 6.8). *)
let handle_gathering t tr ~respond ~fail ino ~off ~data =
  record t (Received { bytes = Xdr.view_length data; off });
  let g = gstate_of t ino in
  g.active <- g.active + 1;
  let accel = Fs.accelerated t.fs in
  (* Hand off data to UFS via VOP_WRITE: IO_DATAONLY into the Presto
     front, IO_DELAYDATA into the cache. *)
  (match
     Fs.with_lock ino (fun () ->
         charge_trip t;
         if accel then record t (To_presto { bytes = Xdr.view_length data });
         (* nfsrace: allow Y001 the Presto front absorbs the write at memory speed and a delayed write's cache-miss fill may park; either way the fill must happen under the vnode lock *)
         Fs.write_view t.fs ino ~off data ~mode:(if accel then Fs.Sync_data_only else Fs.Delay_data))
   with
  | () ->
      (* Only now — with the data handed to UFS — may our reply be
         queued where a metadata writer can pick it up. Queueing any
         earlier would let a concurrent flusher acknowledge data that
         is not in the cache yet. *)
      t.seq <- t.seq + 1;
      let d =
        { tr; seq = t.seq; client = Svc.client_of tr; arrived = Engine.now t.eng; respond; fail }
      in
      g.queue <- d :: g.queue;
      jstamp t tr Journey.stamp_queued;
      g.lo <- Stdlib.min g.lo off;
      g.hi <- Stdlib.max g.hi (off + Xdr.view_length data);
      (* SIVA93 variant: use the first write's disk time as the latency
         device instead of sleeping. *)
      if t.cfg.latency_device = `First_write && not accel then
        Fs.with_lock ino (fun () ->
            charge_trip t;
            (* An error here costs only the latency trick: the data stays
               dirty and the metadata writer's flush retries it. *)
            (* nfsrace: allow Y001 SIVA93 latency device: the first write's disk round trip IS the modelled latency, held under the vnode lock like the real first write *)
            try Fs.syncdata t.fs ino ~off ~len:(Xdr.view_length data)
            with Nfsg_disk.Device.Io_error _ -> ());
      let inum = Fs.inum ino in
      (* In the paper, every write of an arriving train procrastinates
         in turn, so the chain of nfsds extends the gathering window
         for as long as the train keeps coming. Our nfsds handle
         delayed writes instantly and vanish before the sleeper wakes,
         so we model the chain directly: a procrastination during
         which the queue grew earns another procrastination, up to a
         chain cap. A quiet interval ends the chain. *)
      let max_chain = 16 in
      (* The paper procrastinates at most once. *)
      let max_procrastinations = 1 in
      (* A client learned to be single-threaded gets no procrastination:
         the free checks (active nfsds, socket scan) still apply, so a
         reformed client earns its way back via the score. *)
      let initial_budget =
        if known_solo t (Svc.client_of tr) then 0 else max_procrastinations
      in
      let rec decide ~budget ~chain ~slept =
        if g.active > 1 then
          (* Another nfsd is in the write path for this file: leave the
             metadata update (and our reply) to it. *)
          ()
        else if t.cfg.use_mbuf_hunter && socket_has_write_for t inum then
          (* A WRITE for this file is sitting in the socket buffer; the
             nfsd that picks it up will take over. *)
          ()
        else if
          budget > 0 && chain < max_chain
          && t.cfg.latency_device = `Procrastinate
          && t.cfg.procrastinate > 0
        then begin
          Metrics.incr t.procrastinations;
          record t Procrastinating;
          let qlen = List.length g.queue in
          Engine.delay t.cfg.procrastinate;
          let grew = List.length g.queue > qlen in
          decide
            ~budget:(if grew then max_procrastinations else budget - 1)
            ~chain:(chain + 1) ~slept:true
        end
        else begin
          (* Become the metadata writer and assume responsibility. *)
          if slept && List.length g.queue <= 1 then
            Metrics.incr t.procrastinate_failures;
          flush_as_metadata_writer t g
        end
      in
      decide ~budget:initial_budget ~chain:0 ~slept:false;
      g.active <- g.active - 1;
      maybe_gc t g
  | exception Fs.No_space -> fail_alone t g tr ~fail Proto.NFSERR_NOSPC
  | exception Fs.File_too_big _ -> fail_alone t g tr ~fail Proto.NFSERR_FBIG
  | exception Nfsg_disk.Device.Io_error _ ->
      record t Write_failed;
      fail_alone t g tr ~fail Proto.NFSERR_IO);
  Svc.Reply_pending

(* IO_DELAYDATA: the data goes into the cache under the vnode lock and
   nothing goes to disk, so queued into the cache is as far as the op's
   journey gets. *)
let delayed_write t tr ino ~off ~data =
  Fs.with_lock ino (fun () ->
      charge_trip t;
      (* nfsrace: allow Y001 delayed write: a cache-miss fill may park, and the fill must happen under the vnode lock *)
      Fs.write_view t.fs ino ~off data ~mode:Fs.Delay_data);
  jstamp t tr Journey.stamp_queued

(* "Dangerous mode": acknowledge from volatile memory. The asynchronous
   promise is one the server cannot recall after a crash (section 4.3);
   kept here so the benchmark can show what the shortcut buys and the
   crash tests can show what it costs. *)
let handle_unsafe_async t tr ~respond ~fail ino ~off ~data =
  (match delayed_write t tr ino ~off ~data with
  | () ->
      Metrics.incr t.batches;
      Metrics.incr t.gathered;
      Histogram.add t.batch_size_h 1.0;
      t.send_reply tr (respond (Fattr.of_inode t.fs ~fsid:t.fsid ino));
      record t Replied_volatile
  | exception Fs.No_space -> t.send_reply tr (fail Proto.NFSERR_NOSPC)
  | exception Fs.File_too_big _ -> t.send_reply tr (fail Proto.NFSERR_FBIG)
  | exception Nfsg_disk.Device.Io_error _ -> t.send_reply tr (fail Proto.NFSERR_IO));
  Svc.Reply_pending

let handle_write t tr ~respond ~fail ino ~off ~data =
  Metrics.incr t.writes;
  match t.cfg.mode with
  | Standard -> handle_standard t tr ~respond ~fail ino ~off ~data
  | Gathering -> handle_gathering t tr ~respond ~fail ino ~off ~data
  | Unsafe_async -> handle_unsafe_async t tr ~respond ~fail ino ~off ~data

(* NFSv3 COMMIT: the durability point for earlier UNSTABLE writes. The
   client pays the disk wait: the range's data, then the metadata, under
   the vnode lock. On a disk error the unstable data stays dirty in the
   cache; the client keeps it and re-COMMITs. *)
let commit t tr ino ~off ~count =
  jstamp t tr Journey.stamp_queued;
  Fs.with_lock ino (fun () ->
      charge_trip t;
      let len = if count = 0 then (Fs.getattr ino).Fs.size - off else count in
      jstamp t tr Journey.stamp_disk_submit;
      (* nfsrace: allow Y001 COMMIT is the durability point: the client pays the disk wait, and the vnode lock orders it against writers *)
      if len > 0 then Fs.syncdata t.fs ino ~off ~len;
      charge_trip t;
      (* nfsrace: allow Y001 COMMIT is the durability point: the client pays the disk wait, and the vnode lock orders it against writers *)
      Fs.fsync_metadata t.fs ino);
  jstamp t tr Journey.stamp_disk_complete

(* Section 6.9: a duplicate WRITE was dropped from the socket buffer.
   If a gatherer had counted on that datagram (mbuf hunter) and nobody
   is active, the queue would be orphaned — flush it now. *)
let rescue t ~inum =
  match Hashtbl.find_opt t.states inum with
  | Some g when g.active = 0 && g.queue <> [] ->
      Metrics.incr t.rescues;
      flush_as_metadata_writer t g;
      maybe_gc t g
  | Some _ | None -> ()
