open Nfsg_sim
module Device = Nfsg_disk.Device
module Io = Nfsg_disk.Io

type inode = {
  inum : int;
  di : Layout.dinode;
  mutable meta_dirty : [ `Clean | `Time_only | `Dirty ];
  mutable dirty_indirects : int list;
  lock : Mutex.t;
}

type t = {
  eng : Engine.t;
  dev : Device.t;
  sb : Layout.superblock;
  bcache : Buffer_cache.t;
  balloc : Alloc.t;
  incore : (int, inode) Hashtbl.t;
  gens : int array;  (** current generation per inode slot *)
  used : bool array;  (** slot in use *)
  mutable free_blocks : int;
}

(* Largest clustered write the filesystem issues (64 KiB, as in
   [MCVO91]). *)
let cluster_max = 64 * 1024

type attr = {
  ftype : Layout.ftype;
  nlink : int;
  size : int;
  mtime : Time.t;
  atime : Time.t;
  ctime : Time.t;
  inum : int;
  gen : int;
}

type fsstat = { total_blocks : int; free_blocks : int; bsize : int }

exception Stale of int
exception Not_dir of int
exception Is_dir of int
exception Not_symlink of int
exception Exists of string
exception Not_empty of int
exception No_space
exception File_too_big of int

let device t = t.dev
let cache t = t.bcache
let bsize t = t.sb.Layout.bsize
let accelerated t = t.dev.Device.accelerated ()
let inum (i : inode) = i.inum
let generation (i : inode) = i.di.gen
let format_generation t = t.sb.Layout.format_gen
let lock_of (i : inode) = i.lock
let lock (i : inode) = Mutex.lock i.lock
let unlock (i : inode) = Mutex.unlock i.lock
let with_lock (i : inode) f = Mutex.with_lock i.lock f
let meta_dirty (i : inode) = i.meta_dirty

(* {1 mkfs} *)

let mkfs dev ?(bsize = 8192) ?(ninodes = 4096) () =
  let format_gen =
    match Layout.decode_superblock (dev.Device.stable_read ~off:0 ~len:512) with
    | old -> old.Layout.format_gen + 1
    | exception Failure _ -> 1
  in
  let sb =
    { (Layout.make_superblock ~bsize ~capacity:dev.Device.capacity ~ninodes) with Layout.format_gen }
  in
  dev.Device.stable_write ~off:0 (Layout.encode_superblock sb);
  (* Bitmap: metadata blocks allocated, data area free. *)
  let zero = Bytes.make bsize '\000' in
  for b = sb.Layout.bitmap_start to sb.Layout.bitmap_start + sb.Layout.bitmap_blocks - 1 do
    dev.Device.stable_write ~off:(b * bsize) zero
  done;
  let bitmap = Bytes.make (sb.Layout.bitmap_blocks * bsize) '\000' in
  for b = 0 to sb.Layout.data_start - 1 do
    let byte = Char.code (Bytes.get bitmap (b / 8)) in
    Bytes.set bitmap (b / 8) (Char.chr (byte lor (1 lsl (b mod 8))))
  done;
  dev.Device.stable_write ~off:(sb.Layout.bitmap_start * bsize) bitmap;
  (* Inode table: all free, root directory at inode 1. *)
  for b = sb.Layout.itable_start to sb.Layout.itable_start + sb.Layout.itable_blocks - 1 do
    dev.Device.stable_write ~off:(b * bsize) zero
  done;
  let rblk, roff = Layout.inode_block sb sb.Layout.root_inum in
  dev.Device.stable_write ~off:((rblk * bsize) + roff)
    (Layout.encode_dinode (Layout.new_dinode Layout.Directory ~gen:1 ~now:0))

(* {1 Block mapping} *)

let alloc_block t ?near () =
  match Alloc.alloc t.balloc ?near () with
  | b ->
      t.free_blocks <- t.free_blocks - 1;
      b
  | exception Alloc.No_space -> raise No_space

let free_block t b =
  Alloc.free t.balloc b;
  Buffer_cache.drop t.bcache b;
  t.free_blocks <- t.free_blocks + 1

(* Change indirect block [b] of [ino] and list it for the inode's next
   metadata commit. *)
let modify_indirect t (ino : inode) b fill change =
  Buffer_cache.modify t.bcache b Buffer_cache.Metadata fill change;
  if not (List.mem b ino.dirty_indirects) then ino.dirty_indirects <- b :: ino.dirty_indirects

let set_pointer t ino ib i b =
  modify_indirect t ino ib Buffer_cache.From_disk (fun buf -> Layout.set_pointer buf i b)

(* Free indirect block [b]: the inode's next commit no longer writes
   it. *)
let free_indirect t (ino : inode) b =
  ino.dirty_indirects <- List.filter (fun x -> x <> b) ino.dirty_indirects;
  free_block t b

(* A new block for an empty pointer, or 0 when not [alloc_missing]. A
   new indirect block starts zeroed and is listed for the inode's next
   metadata commit. *)
let new_block t (ino : inode) ~alloc_missing ~near ~indirect =
  if not alloc_missing then 0
  else begin
    let b = alloc_block t ?near () in
    if indirect then modify_indirect t ino b Buffer_cache.Zeroed ignore;
    ino.meta_dirty <- `Dirty;
    b
  end

(* The pointer in slot [i] of indirect block [ib] (0 when [ib] is 0),
   filled from [new_block] when empty. *)
let follow t ino ib i ~alloc_missing ~near ~indirect =
  if ib = 0 then 0
  else
    match Layout.get_pointer (Buffer_cache.get t.bcache ib) i with
    | 0 when alloc_missing ->
        let b = new_block t ino ~alloc_missing ~near ~indirect in
        set_pointer t ino ib i b;
        b
    | b -> b

(* Map file block [fbn] to a disk block. With [alloc_missing], holes
   (and missing indirect blocks) are allocated; [near] seeds locality.
   Returns 0 for an unmapped hole when not allocating. *)
let bmap t (ino : inode) fbn ~alloc_missing ~near =
  let di = ino.di in
  match Layout.slot t.sb fbn with
  | Layout.Direct i ->
      if di.direct.(i) = 0 then
        di.direct.(i) <- new_block t ino ~alloc_missing ~near ~indirect:false;
      di.direct.(i)
  | Layout.Single i ->
      if di.single_ind = 0 then
        di.single_ind <- new_block t ino ~alloc_missing ~near ~indirect:true;
      follow t ino di.single_ind i ~alloc_missing ~near ~indirect:false
  | Layout.Double (i, j) ->
      if di.double_ind = 0 then
        di.double_ind <- new_block t ino ~alloc_missing ~near ~indirect:true;
      let l2 = follow t ino di.double_ind i ~alloc_missing ~near ~indirect:true in
      follow t ino l2 j ~alloc_missing ~near ~indirect:false
  | Layout.Beyond -> invalid_arg (Printf.sprintf "bmap: file block %d out of range" fbn)

let getattr ({ inum; di = { ftype; nlink; size; mtime; atime; ctime; gen; _ }; _ } : inode) =
  { ftype; nlink; size; mtime; atime; ctime; inum; gen }

(* {1 Inode I/O} *)

(* Take [di] in core as inode [inum]. *)
let add_incore t inum di ~meta_dirty =
  let lock = Mutex.create ~name:(Printf.sprintf "vnode-%d" inum) () in
  let ino = { inum; di; meta_dirty; dirty_indirects = []; lock } in
  Hashtbl.replace t.incore inum ino;
  ino

(* Serialise the in-core inode into its table block (delayed write);
   the caller decides when the block reaches the device. *)
let encode_inode t (ino : inode) =
  let blk, off = Layout.inode_block t.sb ino.inum in
  Buffer_cache.modify t.bcache blk Buffer_cache.Metadata Buffer_cache.From_disk (fun buf ->
      Bytes.blit (Layout.encode_dinode ino.di) 0 buf off Layout.inode_size);
  blk

(* Build the inode's metadata commit as one submission batch: its dirty
   indirect blocks, then — behind a barrier, because the inode must
   never point to an indirect block whose pointers are not yet on disk —
   its table block. [restore] puts the indirect list back (merged with
   any blocks dirtied meanwhile) after a failed await, so the next
   fsync retries everything that is not yet durable. *)
let meta_commit t (ino : inode) =
  let indirects = List.sort compare ino.dirty_indirects in
  ino.dirty_indirects <- [];
  let iblk = encode_inode t ino in
  let p_ind =
    Buffer_cache.prepare t.bcache ~class_:`Sync_write ~max_cluster:cluster_max indirects
  in
  let p_ino = Buffer_cache.prepare t.bcache ~class_:`Sync_write ~max_cluster:(bsize t) [ iblk ] in
  let ind_items = Buffer_cache.prepared_items p_ind in
  let items =
    ind_items
    @ (if ind_items = [] then [] else [ Io.barrier () ])
    @ Buffer_cache.prepared_items p_ino
  in
  let restore exn =
    ino.dirty_indirects <- List.sort_uniq compare (indirects @ ino.dirty_indirects);
    raise exn
  in
  (items, [ p_ind; p_ino ], restore)

let iget t ~inum ~gen =
  if inum < 1 || inum >= t.sb.Layout.ninodes then raise (Stale inum);
  if (not t.used.(inum)) || t.gens.(inum) <> gen then raise (Stale inum);
  match Hashtbl.find_opt t.incore inum with
  | Some i -> i
  | None ->
      (* Decode from the (prewarmed) inode-table block. *)
      let blk, off = Layout.inode_block t.sb inum in
      let buf = Buffer_cache.get t.bcache blk in
      add_incore t inum (Layout.decode_dinode ~pos:off buf) ~meta_dirty:`Clean

let root t = iget t ~inum:t.sb.Layout.root_inum ~gen:t.gens.(t.sb.Layout.root_inum)

(* {1 Mount} *)

let mount eng ?cache_blocks ?metrics ?ns ?readahead dev =
  let sb = Layout.decode_superblock (dev.Device.stable_read ~off:0 ~len:512) in
  (* The cache must at least hold the metadata area (bitmap + inode
     table) or mount-time fsck would evict what it is reading. *)
  let cache_blocks =
    Option.map (fun n -> Stdlib.max n (sb.Layout.data_start + 16)) cache_blocks
  in
  let bcache =
    Buffer_cache.create dev ~bsize:sb.Layout.bsize ?max_blocks:cache_blocks ?metrics ?ns ()
  in
  (match readahead with
  | Some config -> Buffer_cache.enable_readahead bcache eng ~config ()
  | None -> ());
  let bs = sb.Layout.bsize in
  (* Prewarm bitmap and inode table from stable storage ("boot"). *)
  for b = sb.Layout.bitmap_start to sb.Layout.data_start - 1 do
    Buffer_cache.install bcache b
  done;
  let balloc = Alloc.create bcache sb in
  let gens = Array.make sb.Layout.ninodes 0 in
  let used = Array.make sb.Layout.ninodes false in
  let t =
    {
      eng;
      dev;
      sb;
      bcache;
      balloc;
      incore = Hashtbl.create 256;
      gens;
      used;
      free_blocks = 0;
    }
  in
  (* fsck-style pass: learn inode usage and rebuild the block bitmap
     from reachable blocks. Instantaneous: each inode is decoded from
     its prewarmed table block, which nothing has changed since it was
     installed (the cache holds the whole metadata area), and the
     indirect blocks are stable reads. *)
  Alloc.clear_all_data_area balloc;
  let reach = Hashtbl.create 1024 in
  let claim b =
    Hashtbl.replace reach b ();
    Alloc.set_allocated balloc b
  in
  let read b = dev.Device.stable_read ~off:(b * bs) ~len:bs in
  for inum = 1 to sb.Layout.ninodes - 1 do
    let blk, off = Layout.inode_block sb inum in
    let d = Layout.decode_dinode ~pos:off (Option.get (Buffer_cache.peek bcache blk)) in
    gens.(inum) <- d.Layout.gen;
    if d.Layout.ftype <> Layout.Free then begin
      used.(inum) <- true;
      (* A pointer outside the data area is neither claimed nor read
         through; [check] reports it. *)
      Layout.walk sb d ~read ~stray:ignore claim
    end
  done;
  t.free_blocks <- sb.Layout.nblocks - sb.Layout.data_start - Hashtbl.length reach;
  t

(* {1 Reading and writing file data} *)

(* The readable length of [off, off + len): short at EOF. *)
let clamp (ino : inode) ~off ~len =
  if off < 0 || len < 0 then invalid_arg "Fs.read: negative offset or length";
  Stdlib.max 0 (Stdlib.min len (ino.di.size - off))

(* File block [fbn]'s cached buffer, or [None] for a hole. *)
let data_block t (ino : inode) fbn =
  match bmap t ino fbn ~alloc_missing:false ~near:None with
  | 0 -> None
  | b -> Some (Buffer_cache.get t.bcache b)

let read t (ino : inode) ~off ~len =
  let len = clamp ino ~off ~len in
  (* Every chunk is either copied from its block or zero-filled as a
     hole, so the buffer needs no clearing first. *)
  let out = Bytes.create len in
  let bs = bsize t in
  let pos = ref off in
  while !pos < off + len do
    let within = !pos mod bs in
    let chunk = Stdlib.min (bs - within) (off + len - !pos) in
    (match data_block t ino (!pos / bs) with
    | Some buf -> Bytes.blit buf within out (!pos - off) chunk
    | None -> Bytes.fill out (!pos - off) chunk '\000');
    pos := !pos + chunk
  done;
  ino.di.atime <- Engine.now t.eng;
  out

(* [read] as a view. A range within one block is a window into the
   cache block itself, valid until the caller next yields or fills the
   cache: a later change may land in that buffer in place, and a later
   fill may reuse it once the block is evicted. *)
let read_view t (ino : inode) ~off ~len =
  let len = clamp ino ~off ~len and bs = bsize t in
  if len > 0 && off / bs = (off + len - 1) / bs then begin
    let view =
      match data_block t ino (off / bs) with
      | Some buf -> Nfsg_rpc.Xdr.view_of_bytes ~pos:(off mod bs) ~len buf
      | None -> Nfsg_rpc.Xdr.view_of_bytes (Bytes.make len '\000')
    in
    ino.di.atime <- Engine.now t.eng;
    view
  end
  else Nfsg_rpc.Xdr.view_of_bytes (read t ino ~off ~len)

(* Pointer [i] of indirect block [ib] if [ib] is resident, else 0. *)
let peek_pointer t ib i =
  if ib = 0 then 0
  else match Buffer_cache.peek t.bcache ib with Some buf -> Layout.get_pointer buf i | None -> 0

(* Like [bmap ~alloc_missing:false] but consults only resident indirect
   blocks ([Buffer_cache.peek]) — never performs I/O, never parks.
   Returns 0 for a hole or a mapping whose indirect block is not in
   core: read-ahead simply has nothing to prefetch there this round. *)
let bmap_cached t (ino : inode) fbn =
  match Layout.slot t.sb fbn with
  | Layout.Direct i -> ino.di.direct.(i)
  | Layout.Single i -> peek_pointer t ino.di.single_ind i
  | Layout.Double (i, j) -> peek_pointer t (peek_pointer t ino.di.double_ind i) j
  | Layout.Beyond -> 0

(* The read-path read-ahead hook. The stream bookkeeping and the
   prefetch submission run under the inode lock (a [Locked.run]-scoped
   section via [Mutex.with_lock]): [note_read] never parks — the block
   mapping goes through [bmap_cached] and the device submission is
   asynchronous — so the lock is never held across a device wait. The
   demand read itself, with its open-ended cache-miss waits, runs after
   release. With read-ahead disabled this is exactly [read]. *)
let read_ahead t (ino : inode) ~stream ~off ~len =
  if Buffer_cache.readahead_active t.bcache then
    Mutex.with_lock ino.lock (fun () ->
        if off >= 0 && len > 0 && off < ino.di.size then begin
          let bs = bsize t in
          let len' = Stdlib.min len (ino.di.size - off) in
          Buffer_cache.note_read t.bcache ~stream ~fbn:(off / bs)
            ~nblocks:(((off + len' - 1) / bs) - (off / bs) + 1)
            ~map:(fun fbn -> bmap_cached t ino fbn)
            ~limit:((ino.di.size + bs - 1) / bs)
        end);
  read_view t ino ~off ~len

(* {1 Flushing} *)

(* Device blocks behind the file blocks of a byte range, in file order,
   holes skipped. *)
let range_blocks t (ino : inode) ~off ~len =
  if len <= 0 then []
  else begin
    let bs = bsize t in
    let first = off / bs in
    let last = Stdlib.min ((off + len - 1) / bs) ((Layout.max_file_size t.sb / bs) - 1) in
    let rec collect fbn acc =
      if fbn > last then List.rev acc
      else
        let b = bmap t ino fbn ~alloc_missing:false ~near:None in
        collect (fbn + 1) (if b = 0 then acc else b :: acc)
    in
    collect first []
  end

(* Write the dirty subset of [blocks] now: device-contiguous runs
   coalesced into clusters of at most [cluster_max] bytes, one
   submission, awaited. *)
let flush_blocks t blocks =
  let p = Buffer_cache.prepare t.bcache ~class_:`Gather_flush ~max_cluster:cluster_max blocks in
  match Buffer_cache.prepared_items p with
  | [] -> ()
  | items ->
      t.dev.Device.submit items;
      Buffer_cache.await_prepared t.bcache [ p ]

(* One gathered commit for a byte range: the range's delayed data
   clusters, then — behind barriers — the inode's indirect blocks and
   the inode itself, all in a single submission. The device overlaps
   and merges the data clusters freely while the barriers keep metadata
   from becoming stable ahead of the data it describes. Semantically
   [syncdata] followed by [fsync_metadata], without the synchronous
   convoy of one-at-a-time transactions. With [len = 0] it is the
   metadata commit alone, which is what [fsync_metadata] runs.

   Split into a begin/await pair so the caller can drop the vnode lock
   while the device works: everything that reads or mutates in-core
   state — bmap, gathering the dirty blocks, the metadata commit — runs
   in [begin] under the caller's lock, and the submission is already
   down before [begin] returns. The returned thunk only parks on the
   device. The prepared blocks stay busy until their requests complete,
   so a write landing mid-flight goes to a copy ([Buffer_cache.modify])
   and the requests keep the bytes they were submitted with; the inode
   is marked clean when it is encoded (exactly like
   [Buffer_cache.prepare] does for blocks), so such a write re-dirties
   and is simply not considered durable by this commit. On failure the await
   re-dirties whatever never reached the platter, never downgrading
   dirtiness a concurrent writer added meanwhile. *)
let commit_range_begin t (ino : inode) ~off ~len =
  let p_data =
    Buffer_cache.prepare t.bcache ~class_:`Gather_flush ~max_cluster:cluster_max
      (range_blocks t ino ~off ~len)
  in
  let data_items = Buffer_cache.prepared_items p_data in
  if ino.meta_dirty = `Clean && ino.dirty_indirects = [] then begin
    match data_items with
    | [] -> fun () -> ()
    | items ->
        t.dev.Device.submit items;
        fun () -> Buffer_cache.await_prepared t.bcache [ p_data ]
  end
  else begin
    let was_dirty = ino.meta_dirty in
    let meta_items, preps, restore = meta_commit t ino in
    let items =
      data_items @ (if data_items = [] then [] else [ Io.barrier () ]) @ meta_items
    in
    ino.meta_dirty <- `Clean;
    t.dev.Device.submit items;
    fun () ->
      try Buffer_cache.await_prepared t.bcache (p_data :: preps)
      with exn ->
        (* The encoded inode never became durable: put the
           dirtiness back unless a concurrent write already raised
           it. *)
        (match (ino.meta_dirty, was_dirty) with
        | `Dirty, _ | _, `Clean -> ()
        | _, `Dirty -> ino.meta_dirty <- `Dirty
        | `Clean, `Time_only -> ino.meta_dirty <- `Time_only
        | `Time_only, `Time_only -> ());
        restore exn
  end

let fsync_metadata t (ino : inode) = commit_range_begin t ino ~off:0 ~len:0 ()
let syncdata t (ino : inode) ~off ~len = flush_blocks t (range_blocks t ino ~off ~len)

type write_mode = Sync | Sync_data_only | Delay_data

(* Disk block of the previous file block, as an allocation locality
   hint. *)
let near_hint t (ino : inode) fbn =
  if fbn = 0 then None
  else
    match bmap t ino (fbn - 1) ~alloc_missing:false ~near:None with
    | 0 -> None
    | b -> Some b

let write_view t (ino : inode) ~off (data : Nfsg_rpc.Xdr.view) ~mode =
  let len = Nfsg_rpc.Xdr.view_length data in
  if off < 0 then invalid_arg "Fs.write: negative offset";
  if off + len > Layout.max_file_size t.sb then raise (File_too_big ino.inum);
  if len > 0 then begin
    let bs = bsize t in
    let touched = ref [] in
    let pos = ref off in
    while !pos < off + len do
      let fbn = !pos / bs in
      let within = !pos mod bs in
      let chunk = Stdlib.min (bs - within) (off + len - !pos) in
      let existing = bmap t ino fbn ~alloc_missing:false ~near:None in
      let b =
        if existing <> 0 then existing
        else bmap t ino fbn ~alloc_missing:true ~near:(near_hint t ino fbn)
      in
      let fill =
        if within = 0 && chunk = bs then Buffer_cache.Overwritten
        else if existing = 0 then Buffer_cache.Zeroed
        else Buffer_cache.From_disk
      in
      let src_off = !pos - off in
      (* The single escape copy of the write path: datagram bytes
         land in the buffer cache, which outlives the datagram. *)
      Buffer_cache.modify t.bcache b Buffer_cache.Data fill (fun buf ->
          Nfsg_rpc.Xdr.blit_view data ~src_off ~dst:buf ~dst_off:within ~len:chunk);
      touched := b :: !touched;
      pos := !pos + chunk
    done;
    if off + len > ino.di.size then begin
      ino.di.size <- off + len;
      ino.meta_dirty <- `Dirty
    end;
    ino.di.mtime <- Engine.now t.eng;
    if ino.meta_dirty = `Clean then ino.meta_dirty <- `Time_only;
    match mode with
    | Delay_data -> ()
    | Sync_data_only ->
        (* IO_SYNC|IO_DATAONLY: push the data through, leave metadata
           dirty in core for a later gathered VOP_FSYNC. *)
        flush_blocks t (List.rev !touched)
    | Sync ->
        flush_blocks t (List.rev !touched);
        (* Reference-port special case: a write that only moved the
           modify time keeps its inode update asynchronous. *)
        (match ino.meta_dirty with
        | `Dirty -> fsync_metadata t ino
        | `Time_only | `Clean -> ())
  end

let write t (ino : inode) ~off data ~mode =
  write_view t ino ~off (Nfsg_rpc.Xdr.view_of_bytes data) ~mode

let touch t (ino : inode) ~mtime =
  ignore t;
  ino.di.mtime <- mtime;
  if ino.meta_dirty = `Clean then ino.meta_dirty <- `Time_only

(* {1 Truncate} *)

let truncate t (ino : inode) newsize =
  if newsize < 0 then invalid_arg "Fs.truncate: negative size";
  if newsize > Layout.max_file_size t.sb then raise (File_too_big ino.inum);
  let di = ino.di and bs = bsize t in
  let old_nblocks = (di.size + bs - 1) / bs in
  let new_nblocks = (newsize + bs - 1) / bs in
  if new_nblocks < old_nblocks then begin
    (* Free data blocks beyond the new end. *)
    for fbn = new_nblocks to old_nblocks - 1 do
      let b = bmap t ino fbn ~alloc_missing:false ~near:None in
      if b <> 0 then begin
        free_block t b;
        match Layout.slot t.sb fbn with
        | Layout.Direct i -> di.direct.(i) <- 0
        | Layout.Single i -> set_pointer t ino di.single_ind i 0
        | Layout.Double (i, j) ->
            set_pointer t ino (Layout.get_pointer (Buffer_cache.get t.bcache di.double_ind) i) j 0
        | Layout.Beyond -> ()
      end
    done;
    (* Free the indirect blocks that no longer map anything: those the
       new last block's slot does not pass through (an empty file keeps
       what a one-block file keeps). *)
    let last = if new_nblocks = 0 then Layout.Direct 0 else Layout.slot t.sb (new_nblocks - 1) in
    (match last with
    | Layout.Direct _ when di.single_ind <> 0 ->
        free_indirect t ino di.single_ind;
        di.single_ind <- 0
    | _ -> ());
    if di.double_ind <> 0 then begin
      (* Level-2 blocks wholly past the new end: free them, then clear
         their slots in one change. *)
      let kept = match last with Layout.Double (i, _) -> i + 1 | _ -> 0 in
      let ib1 = Buffer_cache.get t.bcache di.double_ind in
      let doomed = ref [] in
      for i = Layout.pointers_per_block t.sb - 1 downto kept do
        let l2 = Layout.get_pointer ib1 i in
        if l2 <> 0 then doomed := (i, l2) :: !doomed
      done;
      List.iter (fun (_, l2) -> free_indirect t ino l2) !doomed;
      if !doomed <> [] then
        modify_indirect t ino di.double_ind Buffer_cache.From_disk (fun ib1 ->
            List.iter (fun (i, _) -> Layout.set_pointer ib1 i 0) !doomed);
      if kept = 0 then begin
        free_indirect t ino di.double_ind;
        di.double_ind <- 0
      end
    end
  end;
  if newsize <> ino.di.size then begin
    ino.di.size <- newsize;
    ino.meta_dirty <- `Dirty;
    ino.di.mtime <- Engine.now t.eng;
    ino.di.ctime <- Engine.now t.eng
  end

(* {1 Inode allocation} *)

let ialloc t ftype =
  let rec find i =
    if i >= t.sb.Layout.ninodes then raise No_space
    else if not t.used.(i) then i
    else find (i + 1)
  in
  let inum = find 2 in
  t.used.(inum) <- true;
  t.gens.(inum) <- t.gens.(inum) + 1;
  add_incore t inum (Layout.new_dinode ftype ~gen:t.gens.(inum) ~now:(Engine.now t.eng)) ~meta_dirty:`Dirty

let ifree t (ino : inode) =
  truncate t ino 0;
  ino.di.ftype <- Layout.Free;
  ino.di.nlink <- 0;
  ino.meta_dirty <- `Dirty;
  t.used.(ino.inum) <- false;
  Hashtbl.remove t.incore ino.inum;
  (* Commit the freed inode so the handle is durably stale. *)
  fsync_metadata t ino

(* {1 Directories} *)

let assert_dir (ino : inode) = if ino.di.ftype <> Layout.Directory then raise (Not_dir ino.inum)

let read_entries t (dir : inode) =
  assert_dir dir;
  Layout.decode_dirents (read t dir ~off:0 ~len:dir.di.size)

let write_entries t (dir : inode) entries =
  let data = Layout.encode_dirents entries in
  let newlen = Bytes.length data in
  if newlen < dir.di.size then truncate t dir newlen;
  if newlen > 0 then write t dir ~off:0 data ~mode:Sync;
  fsync_metadata t dir

let lookup t (dir : inode) name =
  let entries = read_entries t dir in
  match List.assoc_opt name entries with
  | None -> raise Not_found
  | Some inum -> iget t ~inum ~gen:t.gens.(inum)

let readdir t (dir : inode) = read_entries t dir

let create t (dir : inode) name ftype =
  assert_dir dir;
  let entries = read_entries t dir in
  if List.mem_assoc name entries then raise (Exists name);
  let ino = ialloc t ftype in
  (* Order: new inode durable before the directory points at it. *)
  fsync_metadata t ino;
  write_entries t dir (entries @ [ (name, ino.inum) ]);
  ino

let remove t (dir : inode) name =
  assert_dir dir;
  let entries = read_entries t dir in
  match List.assoc_opt name entries with
  | None -> raise Not_found
  | Some inum ->
      let victim = iget t ~inum ~gen:t.gens.(inum) in
      if victim.di.ftype = Layout.Directory then raise (Is_dir inum);
      write_entries t dir (List.remove_assoc name entries);
      victim.di.nlink <- victim.di.nlink - 1;
      if victim.di.nlink <= 0 then ifree t victim else fsync_metadata t victim

let rmdir t (dir : inode) name =
  assert_dir dir;
  let entries = read_entries t dir in
  match List.assoc_opt name entries with
  | None -> raise Not_found
  | Some inum ->
      let victim = iget t ~inum ~gen:t.gens.(inum) in
      if victim.di.ftype <> Layout.Directory then raise (Not_dir inum);
      if read_entries t victim <> [] then raise (Not_empty inum);
      write_entries t dir (List.remove_assoc name entries);
      ifree t victim

let symlink t (dir : inode) name ~target =
  assert_dir dir;
  let entries = read_entries t dir in
  if List.mem_assoc name entries then raise (Exists name);
  let ino = ialloc t Layout.Symlink in
  write t ino ~off:0 (Bytes.of_string target) ~mode:Sync;
  fsync_metadata t ino;
  write_entries t dir (entries @ [ (name, ino.inum) ]);
  ino

let readlink t (ino : inode) =
  if ino.di.ftype <> Layout.Symlink then raise (Not_symlink ino.inum);
  Bytes.to_string (read t ino ~off:0 ~len:ino.di.size)

let rename t ~src_dir ~src ~dst_dir ~dst =
  assert_dir src_dir;
  assert_dir dst_dir;
  let src_entries = read_entries t src_dir in
  match List.assoc_opt src src_entries with
  | None -> raise Not_found
  | Some inum ->
      if src_dir.inum = dst_dir.inum then begin
        let entries = List.remove_assoc dst (List.remove_assoc src src_entries) in
        write_entries t src_dir (entries @ [ (dst, inum) ])
      end
      else begin
        (* Two directories: make the name appear at the destination
           before it disappears from the source, so a crash between the
           two leaves a hard link rather than a lost file. *)
        let dst_entries = List.remove_assoc dst (read_entries t dst_dir) in
        write_entries t dst_dir (dst_entries @ [ (dst, inum) ]);
        write_entries t src_dir (List.remove_assoc src src_entries)
      end

(* {1 Whole filesystem} *)

let statfs t =
  { total_blocks = t.sb.Layout.nblocks - t.sb.Layout.data_start;
    free_blocks = t.free_blocks;
    bsize = bsize t }

let crash t =
  Buffer_cache.crash t.bcache;
  Hashtbl.reset t.incore;
  t.dev.Device.crash ()

(* {1 Consistency check} *)

let check t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let seen = Hashtbl.create 1024 in
  let claim owner b =
    if Hashtbl.mem seen b then err "block %d multiply claimed (again by inode %d)" b owner;
    Hashtbl.replace seen b ();
    if not (Alloc.is_allocated t.balloc b) then
      err "block %d used by inode %d but free in bitmap" b owner
  in
  let link_counts = Hashtbl.create 64 in
  for inum = 1 to t.sb.Layout.ninodes - 1 do
    if t.used.(inum) then begin
      let ino = iget t ~inum ~gen:t.gens.(inum) in
      (* Walk the block tree through the cache: current in-core truth. *)
      Layout.walk t.sb ino.di ~read:(Buffer_cache.get t.bcache)
        ~stray:(err "inode %d references out-of-range block %d" inum)
        (claim inum);
      if ino.di.size > Layout.max_file_size t.sb then
        err "inode %d size %d exceeds mappable bytes" inum ino.di.size;
      if ino.di.ftype = Layout.Directory then
        List.iter
          (fun (name, child) ->
            if child < 1 || child >= t.sb.Layout.ninodes || not t.used.(child) then
              err "directory %d entry %S points at dead inode %d" inum name child
            else
              Hashtbl.replace link_counts child
                (1 + Option.value ~default:0 (Hashtbl.find_opt link_counts child)))
          (read_entries t ino)
    end
  done;
  (* Bitmap bits with no owner. *)
  for b = t.sb.Layout.data_start to t.sb.Layout.nblocks - 1 do
    if Alloc.is_allocated t.balloc b && not (Hashtbl.mem seen b) then
      err "block %d allocated in bitmap but unreachable" b
  done;
  (* Link counts for non-root inodes. *)
  for inum = 2 to t.sb.Layout.ninodes - 1 do
    if t.used.(inum) then begin
      let ino = iget t ~inum ~gen:t.gens.(inum) in
      let expected = Option.value ~default:0 (Hashtbl.find_opt link_counts inum) in
      if ino.di.nlink <> expected then
        err "inode %d nlink %d but %d directory references" inum ino.di.nlink expected
    end
  done;
  match !errors with [] -> Ok () | es -> Error (List.rev es)
