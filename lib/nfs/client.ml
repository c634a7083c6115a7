open Nfsg_sim
module Rpc = Nfsg_rpc.Rpc
module Rpc_client = Nfsg_rpc.Rpc_client
module Xdr = Nfsg_rpc.Xdr
module Metrics = Nfsg_stats.Metrics
module Names = Nfsg_stats.Names

exception Error of Proto.status
exception Verifier_changed

type protocol = V2 | V3

(* Every READ and WRITE moves at most one 8 KB block, NFS v2's
   transfer size. *)
let block_size = 8192

type t = {
  eng : Engine.t;
  rpc : Rpc_client.t;
  biods : Semaphore.t;
  nbiods : int;
  protocol : protocol;
  metrics : Metrics.t;
  lat : Nfsg_stats.Histogram.t option array;
      (** by procedure number: its [nfs.client/lat_us_<PROC>] histogram,
          resolved on first use *)
  decode : (Rpc.accept_stat -> Xdr.view -> Proto.res) array;
      (** by procedure number: its reply's decode, built once so that a
          call allocates none *)
  mutable wire_writes : int;
  mutable commits : int;
  mutable last_mtimes : int list;  (** the most recent [close]'s, oldest first *)
}

let wire_writes t = t.wire_writes
let commits_sent t = t.commits
let last_write_mtimes t = t.last_mtimes

(* A reply's result, decoded inside its call ([Rpc_client.call_with]).
   No result but READ's holds a view of the reply datagram, and [read]
   decodes its own. *)
let decode_res proc stat body =
  if stat <> Rpc.Success then raise (Error Proto.NFSERR_IO);
  Proto.decode_res ~proc body

let create eng ~rpc ?(biods = 4) ?(protocol = V2) ?metrics () =
  if biods < 0 then invalid_arg "Client.create: negative biod count";
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  {
    eng;
    rpc;
    biods = Semaphore.create ~name:"biods" biods;
    nbiods = biods;
    protocol;
    metrics;
    lat = Array.make Proto.proc_limit None;
    decode = Array.init Proto.proc_limit decode_res;
    wire_writes = 0;
    commits = 0;
    last_mtimes = [];
  }

(* {1 RPC plumbing} *)

(* Per-procedure completion latency, as the application sees it:
   includes every retransmission and RTO wait inside the call. *)
let latency t proc =
  match t.lat.(proc) with
  | Some h -> h
  | None ->
      let h =
        Metrics.histogram t.metrics ~ns:Names.Ns.nfs_client (Names.lat_us (Proto.proc_name proc))
      in
      t.lat.(proc) <- Some h;
      h

let call t ~proc args decode =
  Metrics.span t.eng (latency t proc) (fun () ->
      Rpc_client.call_with t.rpc ~klass:(Proto.op_class proc) ~proc
        (fun enc -> Proto.put_args enc args)
        decode)

let do_call t args =
  let proc = Proto.proc_of_args args in
  call t ~proc args t.decode.(proc)

let attr_result = function
  | Proto.RAttr (Ok a) -> a
  | Proto.RAttr (Error st) -> raise (Error st)
  | _ -> raise (Error Proto.NFSERR_IO)

let dirop_result = function
  | Proto.RDirop (Ok (fh, a)) -> (fh, a)
  | Proto.RDirop (Error st) -> raise (Error st)
  | _ -> raise (Error Proto.NFSERR_IO)

let status_result = function
  | Proto.RStatus Proto.NFS_OK -> ()
  | Proto.RStatus st -> raise (Error st)
  | _ -> raise (Error Proto.NFSERR_IO)

let getattr t fh = attr_result (do_call t (Proto.Getattr fh))
let setattr t fh sattr = attr_result (do_call t (Proto.Setattr (fh, sattr)))
let lookup t fh name = dirop_result (do_call t (Proto.Lookup (fh, name)))

let create_file t dir name =
  dirop_result (do_call t (Proto.Create { dir; name; sattr = Proto.sattr_none }))

let remove t dir name = status_result (do_call t (Proto.Remove { dir; name }))

let rename t ~from_dir ~from_name ~to_dir ~to_name =
  status_result (do_call t (Proto.Rename { from_dir; from_name; to_dir; to_name }))

let mkdir t dir name =
  dirop_result (do_call t (Proto.Mkdir { dir; name; sattr = Proto.sattr_none }))

let rmdir t dir name = status_result (do_call t (Proto.Rmdir { dir; name }))

let readdir t fh =
  match do_call t (Proto.Readdir { fh; cookie = 0; count = 8192 }) with
  | Proto.RReaddir (Ok (entries, _eof)) -> entries
  | Proto.RReaddir (Error st) -> raise (Error st)
  | _ -> raise (Error Proto.NFSERR_IO)

let symlink t dir name ~target =
  dirop_result (do_call t (Proto.Symlink { dir; name; target; sattr = Proto.sattr_none }))

let readlink t fh =
  match do_call t (Proto.Readlink fh) with
  | Proto.RReadlink (Ok target) -> target
  | Proto.RReadlink (Error st) -> raise (Error st)
  | _ -> raise (Error Proto.NFSERR_IO)

let statfs t fh =
  match do_call t (Proto.Statfs fh) with
  | Proto.RStatfs (Ok s) -> s
  | Proto.RStatfs (Error st) -> raise (Error st)
  | _ -> raise (Error Proto.NFSERR_IO)

let null_ping t =
  match do_call t Proto.Null with
  | Proto.RNull -> ()
  | _ -> raise (Error Proto.NFSERR_IO)

(* {1 Mounting} *)

let decode_mnt stat body =
  if stat <> Rpc.Success then raise (Error Proto.NFSERR_IO);
  match Proto.decode_mnt_res body with
  | Ok (fh, read_only) -> (fh, read_only)
  | Error st -> raise (Error st)

let mount_flags t name =
  Rpc_client.call_with t.rpc ~klass:Rpc_client.Light ~prog:Rpc.mount_program ~proc:Proto.proc_mnt
    (fun enc -> Proto.put_mnt_args enc name)
    decode_mnt

let mount t name = fst (mount_flags t name)

(* {1 Write-behind file I/O} *)

type file = {
  client : t;
  fh : Proto.fh;
  mutable buf : Bytes.t;  (** the block being staged *)
  mutable spare : Bytes.t list;  (** staged blocks back from the wire, for reuse *)
  mutable buf_base : int;  (** file offset of the cache block, -1 = empty *)
  mutable buf_len : int;  (** valid bytes from the block start *)
  mutable outstanding : int;
  done_cond : Condition.t;
  mutable async_error : Proto.status option;
  mutable verf : int option;  (** v3: verifier seen on this handle's writes *)
  mutable verf_moved : bool;
  mutable dirty_lo : int;  (** v3: uncommitted byte range *)
  mutable dirty_hi : int;
  mutable mtimes : int list;  (** write replies since the last [close], newest first *)
}

let open_file t fh =
  {
    client = t;
    fh;
    buf = Bytes.empty;
    spare = [];
    buf_base = -1;
    buf_len = 0;
    outstanding = 0;
    done_cond = Condition.create ();
    async_error = None;
    verf = None;
    verf_moved = false;
    dirty_lo = max_int;
    dirty_hi = 0;
    mtimes = [];
  }

(* v3 bookkeeping: if the verifier moves between replies, the server
   rebooted while we held unstable data. *)
let note_verf f verf =
  match f.verf with
  | None -> f.verf <- Some verf
  | Some v -> if v <> verf then f.verf_moved <- true

(* [data] is a staged block, encoded into the call as it is: the block
   is the RPC's until the call returns, and then goes back to the
   file's spares. *)
let do_write_rpc f ~off data =
  let t = f.client in
  t.wire_writes <- t.wire_writes + 1;
  (match t.protocol with
  | V2 -> (
      match do_call t (Proto.Write { fh = f.fh; offset = off; data }) with
      | Proto.RAttr (Ok a) -> f.mtimes <- Proto.ns_of_timeval a.Proto.mtime :: f.mtimes
      | Proto.RAttr (Error st) | (exception Error st) -> f.async_error <- Some st
      | _ -> f.async_error <- Some Proto.NFSERR_IO)
  | V3 -> (
      f.dirty_lo <- Stdlib.min f.dirty_lo off;
      f.dirty_hi <- Stdlib.max f.dirty_hi (off + Xdr.view_length data);
      match do_call t (Proto.Write3 { fh = f.fh; offset = off; stable = Proto.Unstable; data }) with
      | Proto.RWrite3 (Ok (a, _how, verf)) ->
          note_verf f verf;
          f.mtimes <- Proto.ns_of_timeval a.Proto.mtime :: f.mtimes
      | Proto.RWrite3 (Error st) | (exception Error st) -> f.async_error <- Some st
      | _ -> f.async_error <- Some Proto.NFSERR_IO));
  f.spare <- data.Xdr.view_buf :: f.spare

let commit f =
  let t = f.client in
  if t.protocol = V3 && f.dirty_lo < f.dirty_hi then begin
    t.commits <- t.commits + 1;
    let offset = f.dirty_lo and count = f.dirty_hi - f.dirty_lo in
    (match do_call t (Proto.Commit { fh = f.fh; offset; count }) with
    | Proto.RCommit (Ok (_a, verf)) -> note_verf f verf
    | Proto.RCommit (Error st) -> raise (Error st)
    | _ -> raise (Error Proto.NFSERR_IO));
    f.dirty_lo <- max_int;
    f.dirty_hi <- 0;
    if f.verf_moved then begin
      f.verf_moved <- false;
      raise Verifier_changed
    end
  end

(* A full or final cache block "needs to go to the wire": hand it to a
   biod if one is free, otherwise the application does the RPC itself
   and thereby blocks — the client-side flow control of section 4.1. *)
let wire_write f ~off data =
  let t = f.client in
  if Semaphore.try_acquire t.biods then begin
    f.outstanding <- f.outstanding + 1;
    Engine.spawn t.eng ~name:"biod" (fun () ->
        do_write_rpc f ~off data;
        Semaphore.release t.biods;
        f.outstanding <- f.outstanding - 1;
        if f.outstanding = 0 then Condition.broadcast f.done_cond)
  end
  else begin
    (* All biods busy: the application performs the RPC itself. Yield
       first so biod tasks spawned earlier in this instant transmit
       before us — their blocks were generated first, and FIFO reply
       order then unblocks us last, exactly the traffic cycle of the
       paper's case study. *)
    Engine.yield ();
    do_write_rpc f ~off data
  end

let flush f =
  if f.buf_base >= 0 && f.buf_len > 0 then begin
    let data = Xdr.view_of_bytes ~len:f.buf_len f.buf in
    let off = f.buf_base in
    f.buf_base <- -1;
    f.buf_len <- 0;
    wire_write f ~off data
  end
  else begin
    f.buf_base <- -1;
    f.buf_len <- 0
  end

let write f ~off data =
  let bs = block_size in
  let len = Bytes.length data in
  let pos = ref off in
  while !pos < off + len do
    let block_base = !pos - (!pos mod bs) in
    (* A write outside the current block, or non-contiguous within it,
       pushes the current block out first. *)
    if f.buf_base >= 0 && (block_base <> f.buf_base || !pos <> f.buf_base + f.buf_len) then
      flush f;
    if f.buf_base < 0 then begin
      (* A new block is staged in a spare, or in a new buffer while
         every staged block is still on the wire. *)
      (match f.spare with
      | b :: rest ->
          f.buf <- b;
          f.spare <- rest
      | [] -> f.buf <- Bytes.create bs);
      if !pos mod bs <> 0 then begin
        (* Partial block start: model it as starting the cache block at
           the write position (no read-modify-write traffic). *)
        f.buf_base <- !pos;
        f.buf_len <- 0
      end
      else begin
        f.buf_base <- block_base;
        f.buf_len <- 0
      end
    end;
    let block_end = f.buf_base + bs - (f.buf_base mod bs) in
    let block_end = if block_end = f.buf_base then f.buf_base + bs else block_end in
    let chunk = Stdlib.min (block_end - !pos) (off + len - !pos) in
    Bytes.blit data (!pos - off) f.buf f.buf_len chunk;
    f.buf_len <- f.buf_len + chunk;
    pos := !pos + chunk;
    if f.buf_base + f.buf_len >= block_end then flush f
  done

let close f =
  flush f;
  while f.outstanding > 0 do
    Condition.wait f.done_cond
  done;
  f.client.last_mtimes <- List.rev f.mtimes;
  f.mtimes <- [];
  (match f.async_error with
  | Some st ->
      f.async_error <- None;
      raise (Error st)
  | None -> ());
  commit f;
  if f.verf_moved then begin
    f.verf_moved <- false;
    raise Verifier_changed
  end

(* One READ of at most [count] bytes at [pos], whose data the decode
   copies into [out] at [at] while the reply datagram still holds it.
   Returns the bytes read. *)
let read_into t fh ~pos ~count out ~at =
  call t ~proc:Proto.proc_read (Proto.Read { fh; offset = pos; count }) (fun stat body ->
      match decode_res Proto.proc_read stat body with
      | Proto.RRead (Ok (_a, data)) when Xdr.view_length data <= count ->
          let n = Xdr.view_length data in
          Xdr.blit_view data ~src_off:0 ~dst:out ~dst_off:at ~len:n;
          n
      | Proto.RRead (Error st) -> raise (Error st)
      | _ -> raise (Error Proto.NFSERR_IO))

(* One READ per block, each copied into the result as it arrives; only
   a read cut short at end of file copies the result once more. *)
let read t fh ~off ~len =
  if len <= 0 then Bytes.empty
  else begin
    let out = Bytes.create len in
    let rec go pos =
      let chunk = Stdlib.min block_size (off + len - pos) in
      let n = read_into t fh ~pos ~count:chunk out ~at:(pos - off) in
      if n < chunk || pos + n >= off + len then pos + n - off else go (pos + n)
    in
    let got = go off in
    if got = len then out else Bytes.sub out 0 got
  end
