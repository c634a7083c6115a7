open Nfsg_disk
open Nfsg_stats

type kind = Data | Metadata

type fill = From_disk | Zeroed | Overwritten

type entry = {
  blk : int;
  mutable buf : Bytes.t;
  mutable lent : bool;
      (* [buf] is the device's own page ([Device.stable_page]), held
         while the block is clean and in no request: read it, never
         write into it, and never make it a spare *)
  mutable dirty : kind option;
  mutable busy : bool;
      (* [buf] is in a write request that has not completed: [modify]
         must copy it before changing it *)
  mutable writes : int;
      (* write requests of the block, from [buf] or an older buffer,
         that have not completed: the device may land them in any
         order, so while one is left the page may not hold [buf]'s
         bytes *)
  mutable prefetched : bool;  (* installed by read-ahead, not yet consumed *)
  (* Neighbours on the LRU list, least recently used first; the cache's
     sentinel closes the ring. *)
  mutable older : entry;
  mutable newer : entry;
}

(* Sequential read-ahead policy. The reference point is the LNFS batch
   constants (SNIPPETS.md): a multi-megabyte read-ahead span over 4K
   blocks; scaled to this simulator's 8K blocks and small worlds a
   16-block (128KB) window keeps a sequential stream ahead of the
   reader without monopolizing the capacity budget. *)
type readahead = {
  window : int;  (* blocks to keep prefetched ahead of a stream *)
  min_run : int;  (* sequential blocks before prefetch arms *)
  max_streams : int;  (* tracked streams; LRU slot recycling beyond *)
}

let default_readahead = { window = 16; min_run = 2; max_streams = 64 }

(* One detected sequential stream (per open file per client, keyed by
   the caller's stream id). *)
type stream = {
  id : int;
  mutable next_fbn : int;  (* expected next file block *)
  mutable run : int;  (* current sequential run length *)
  mutable high : int;  (* first file block not yet prefetched *)
  (* Neighbours on the stream ring, least recently used first; [ra]'s
     sentinel closes it. *)
  mutable s_older : stream;
  mutable s_newer : stream;
}

type ra = {
  eng : Nfsg_sim.Engine.t;
  cfg : readahead;
  streams : (int, stream) Hashtbl.t;
  ring : stream;  (* sentinel: [ring.s_newer] is the slot to recycle next *)
  (* Device blocks with a prefetch read in flight: demand misses
     rendezvous with the prefetch instead of duplicating the I/O. *)
  inflight : (int, unit Nfsg_sim.Ivar.t) Hashtbl.t;
}

(* The cache's counters. Each is counted once, in a registry: the
   caller's per-export read plane, or a private one. *)
type meters = {
  m_hits : Metrics.counter;
  m_misses : Metrics.counter;
  m_evictions : Metrics.counter;
  m_ra_batches : Metrics.counter;
  m_ra_blocks : Metrics.counter;
  m_ra_hits : Metrics.counter;
  m_ra_wasted : Metrics.counter;
}

type t = {
  dev : Device.t;
  bsize : int;
  table : (int, entry) Hashtbl.t;
  lru : entry;  (* sentinel: [lru.newer] is the least recently used *)
  max_blocks : int;
  meters : meters;
  mutable ra : ra option;
  mutable spare : Bytes.t array;
  mutable spares : int;
      (* [spare.(0 .. spares - 1)], a stack of buffers nothing holds
         any more, which back the next fills before anything new is
         allocated *)
  departed : (int, int) Hashtbl.t;
      (* write requests not yet completed, by block, of entries that
         left the cache (evicted or dropped): the block's next entry
         takes no page while any is left *)
}

let create dev ~bsize ?(max_blocks = max_int) ?metrics ?ns () =
  if max_blocks < 8 then invalid_arg "buffer_cache: max_blocks too small";
  let metrics, ns =
    match (metrics, ns) with
    | Some metrics, Some ns -> (metrics, ns)
    | _ -> (Metrics.create (), Names.Ns.read_plane)
  in
  let meters =
    {
      m_hits = Metrics.counter metrics ~ns Names.cache_hits;
      m_misses = Metrics.counter metrics ~ns Names.cache_misses;
      m_evictions = Metrics.counter metrics ~ns Names.cache_evictions;
      m_ra_batches = Metrics.counter metrics ~ns Names.readahead_batches;
      m_ra_blocks = Metrics.counter metrics ~ns Names.readahead_blocks;
      m_ra_hits = Metrics.counter metrics ~ns Names.readahead_hits;
      m_ra_wasted = Metrics.counter metrics ~ns Names.readahead_wasted;
    }
  in
  let rec lru =
    {
      blk = -1;
      buf = Bytes.empty;
      lent = false;
      dirty = None;
      busy = false;
      writes = 0;
      prefetched = false;
      older = lru;
      newer = lru;
    }
  in
  {
    dev;
    bsize;
    table = Hashtbl.create 1024;
    lru;
    max_blocks;
    meters;
    ra = None;
    spare = Array.make 16 Bytes.empty;
    spares = 0;
    departed = Hashtbl.create 8;
  }

let enable_readahead c eng ?(config = default_readahead) () =
  if config.window < 1 || config.min_run < 1 || config.max_streams < 1 then
    invalid_arg "buffer_cache: degenerate readahead config";
  let rec ring = { id = -1; next_fbn = 0; run = 0; high = 0; s_older = ring; s_newer = ring } in
  c.ra <- Some { eng; cfg = config; streams = Hashtbl.create 64; ring; inflight = Hashtbl.create 64 }

let readahead_active c = c.ra <> None

let hits c = Metrics.value c.meters.m_hits
let misses c = Metrics.value c.meters.m_misses
let resident c = Hashtbl.length c.table
let evictions c = Metrics.value c.meters.m_evictions
let readahead_batches c = Metrics.value c.meters.m_ra_batches
let readahead_blocks c = Metrics.value c.meters.m_ra_blocks
let readahead_hits c = Metrics.value c.meters.m_ra_hits
let readahead_wasted c = Metrics.value c.meters.m_ra_wasted

let is_prefetched c b =
  match Hashtbl.find_opt c.table b with Some e -> e.prefetched | None -> false

let unlink e =
  e.older.newer <- e.newer;
  e.newer.older <- e.older

(* Most recently used: to the tail of the LRU list. *)
let touch c e =
  unlink e;
  e.older <- c.lru.older;
  e.newer <- c.lru;
  c.lru.older.newer <- e;
  c.lru.older <- e

(* A fresh entry, not yet cached: linked only to itself, so the first
   [touch] lists it. *)
let entry b buf ~prefetched =
  let rec e =
    {
      blk = b;
      buf;
      lent = false;
      dirty = None;
      busy = false;
      writes = 0;
      prefetched;
      older = e;
      newer = e;
    }
  in
  e

let insert c e =
  Hashtbl.replace c.table e.blk e;
  touch c e

(* A buffer nothing holds any more backs a later fill. The stack only
   grows when it is full, so giving a buffer back allocates nothing. *)
let give_back c buf =
  if c.spares = Array.length c.spare then begin
    let grown = Array.make (2 * c.spares) Bytes.empty in
    Array.blit c.spare 0 grown 0 c.spares;
    c.spare <- grown
  end;
  c.spare.(c.spares) <- buf;
  c.spares <- c.spares + 1

(* Block [b]'s page of stable storage, if the device lends one of the
   block's size, else [Bytes.empty]. *)
let stable_page c b =
  let page = c.dev.Device.stable_page ~off:(b * c.bsize) in
  if Bytes.length page = c.bsize then page else Bytes.empty

(* Block [b]'s write requests, not yet completed, of entries that
   left the cache. *)
let departed_writes c b = if Hashtbl.mem c.departed b then Hashtbl.find c.departed b else 0

(* [e] is clean and in no request: hold the device's page instead of
   [e]'s buffer, which backs a later fill. Only when the device lends
   one, no write of the block is left to land in it later, and it
   holds [e]'s bytes: a read's bytes are the platter's when the read
   was serviced, a write's when it landed, and a write of the block
   from a buffer the cache has let go may have landed since. *)
let lend c e =
  if e.writes = 0 && departed_writes c e.blk = 0 then begin
    let page = stable_page c e.blk in
    if page != Bytes.empty && Bytes.equal page e.buf then begin
      give_back c e.buf;
      e.buf <- page;
      e.lent <- true
    end
  end

(* [e] leaves the cache. Its buffer backs a later fill: now, or once
   the write request that holds it completes (the request's completion
   sees that the entry no longer holds the buffer). A lent page stays
   the device's. Writes of [e] not yet completed count against the
   block's next entry. [e] holds nothing from now on, and its [buf]
   is [Bytes.empty]. *)
let remove c e =
  unlink e;
  Hashtbl.remove c.table e.blk;
  if not (e.busy || e.lent) then give_back c e.buf;
  if e.writes > 0 then Hashtbl.replace c.departed e.blk (departed_writes c e.blk + e.writes);
  e.buf <- Bytes.empty;
  e.busy <- false;
  e.lent <- false

(* A prefetched block a demand read finally touched: the guess paid. *)
let consume_prefetch c e =
  if e.prefetched then begin
    e.prefetched <- false;
    Metrics.incr c.meters.m_ra_hits
  end

let note_hit c e =
  Metrics.incr c.meters.m_hits;
  consume_prefetch c e

let note_miss c = Metrics.incr c.meters.m_misses

(* A prefetched block leaving the cache unconsumed: the guess cost a
   device read for nothing. *)
let note_gone c e = if e.prefetched then Metrics.incr c.meters.m_ra_wasted

(* Evict the least-recently-used idle block if over capacity: the
   first entry from the head of the LRU list that is clean and in no
   write request, as 4.4BSD's getnewbuf takes victims only from the
   free lists. Dirty blocks are pinned until flushed, busy ones until
   their write completes: a failed write re-dirties its blocks, so
   they must still be cached. *)
let make_room c =
  if Hashtbl.length c.table >= c.max_blocks then begin
    let rec clean_from e =
      if e == c.lru || (e.dirty = None && not e.busy) then e else clean_from e.newer
    in
    let victim = clean_from c.lru.newer in
    if victim != c.lru then begin
      note_gone c victim;
      remove c victim;
      Metrics.incr c.meters.m_evictions
    end
  end

(* A buffer for a fill, stale bytes and all: a spare one if there is
   one, else a new one. *)
let take_buf c =
  if c.spares = 0 then Bytes.create c.bsize
  else begin
    c.spares <- c.spares - 1;
    c.spare.(c.spares)
  end

(* The pre-readahead demand miss: one read request, awaited. *)
let demand_read c b =
  let buf = take_buf c in
  let r = Io.read_req ~off:(b * c.bsize) buf in
  c.dev.Device.submit [ Io.Req r ];
  (match Io.await r with
  | () -> ()
  | exception exn ->
      give_back c buf;
      raise exn);
  (* A concurrent reader may have populated the block while we were
     waiting on the device; keep the first copy to stay coherent. *)
  match Hashtbl.find_opt c.table b with
  | Some e ->
      give_back c buf;
      consume_prefetch c e;
      touch c e;
      e
  | None ->
      make_room c;
      let e = entry b buf ~prefetched:false in
      lend c e;
      insert c e;
      e

(* Block [b]'s entry, read from the device on a miss. *)
let lookup c b =
  match Hashtbl.find_opt c.table b with
  | Some e ->
      note_hit c e;
      touch c e;
      e
  | None -> (
      note_miss c;
      let waiting =
        match c.ra with None -> None | Some ra -> Hashtbl.find_opt ra.inflight b
      in
      match waiting with
      | Some iv -> (
          (* A prefetch already has this block on the device queue:
             park on its completion instead of duplicating the read. *)
          Nfsg_sim.Ivar.read iv;
          match Hashtbl.find_opt c.table b with
          | Some e ->
              consume_prefetch c e;
              touch c e;
              e
          | None ->
              (* The prefetch failed or was evicted before we woke. *)
              demand_read c b)
      | None -> demand_read c b)

let get c b = (lookup c b).buf

(* {1 Read-ahead engine} *)

(* Submit one async prefetch batch for the given device blocks and
   spawn the completion fiber that installs the filled buffers. The
   fiber parks only on request ivars and takes no locks, so the engine
   is yield-point clean by construction. *)
let prefetch c ra dbs =
  let reqs = List.map (fun db -> (db, Io.read_req ~off:(db * c.bsize) (take_buf c))) dbs in
  List.iter (fun (db, r) -> Hashtbl.replace ra.inflight db r.Io.done_) reqs;
  Metrics.incr c.meters.m_ra_batches;
  Metrics.add c.meters.m_ra_blocks (List.length reqs);
  c.dev.Device.submit (List.map (fun (_, r) -> Io.Req r) reqs);
  Nfsg_sim.Engine.spawn ra.eng ~name:"readahead" (fun () ->
      List.iter
        (fun (db, r) ->
          Nfsg_sim.Ivar.read r.Io.done_;
          Hashtbl.remove ra.inflight db;
          match r.Io.error with
          | Some _ -> give_back c (Io.read_buf r)  (* the demand read will retry *)
          | None ->
              if Hashtbl.mem c.table db then begin
                (* A demand read landed first; this copy goes unused.
                   Keeping the first copy preserves coherence with any
                   in-core mutation since. *)
                Metrics.incr c.meters.m_ra_wasted;
                give_back c (Io.read_buf r)
              end
              else begin
                make_room c;
                let e = entry db (Io.read_buf r) ~prefetched:true in
                lend c e;
                insert c e
              end)
        reqs)

let unlink_stream s =
  s.s_older.s_newer <- s.s_newer;
  s.s_newer.s_older <- s.s_older

(* Most recently used: to the tail of the stream ring. *)
let touch_stream ra s =
  unlink_stream s;
  s.s_older <- ra.ring.s_older;
  s.s_newer <- ra.ring;
  ra.ring.s_older.s_newer <- s;
  ra.ring.s_older <- s

(* Find or create the stream slot, recycling the least-recently-used
   slot when the table is full. *)
let stream_slot ra id =
  let s =
    match Hashtbl.find_opt ra.streams id with
    | Some s -> s
    | None ->
        if Hashtbl.length ra.streams >= ra.cfg.max_streams then begin
          let victim = ra.ring.s_newer in
          unlink_stream victim;
          Hashtbl.remove ra.streams victim.id
        end;
        let rec s = { id; next_fbn = 0; run = 0; high = 0; s_older = s; s_newer = s } in
        Hashtbl.replace ra.streams id s;
        s
  in
  touch_stream ra s;
  s

let note_read c ~stream ~fbn ~nblocks ~map ~limit =
  match c.ra with
  | None -> ()
  | Some ra ->
      if nblocks > 0 then begin
        let s = stream_slot ra stream in
        let last = fbn + nblocks - 1 in
        if s.run > 0 && fbn = s.next_fbn then s.run <- s.run + nblocks
        else if s.run > 0 && fbn < s.next_fbn && last + 1 >= s.next_fbn then
          (* Overlapping re-read (dupcache miss, retransmission):
             neither extends nor breaks the run. *)
          ()
        else begin
          (* New stream position: start a fresh run. *)
          s.run <- nblocks;
          s.high <- last + 1
        end;
        s.next_fbn <- Stdlib.max s.next_fbn (last + 1);
        if s.run >= ra.cfg.min_run then begin
          let lo = Stdlib.max (last + 1) s.high in
          let hi = Stdlib.min limit (last + 1 + ra.cfg.window) in
          if hi > lo then begin
            let dbs = ref [] in
            for f = hi - 1 downto lo do
              match map f with
              | 0 -> ()  (* hole, or mapping not resident: skip *)
              | db ->
                  if (not (Hashtbl.mem c.table db)) && not (Hashtbl.mem ra.inflight db) then
                    dbs := db :: !dbs
            done;
            s.high <- hi;
            match !dbs with [] -> () | dbs -> prefetch c ra dbs
          end
        end
      end

let peek c b = Option.map (fun e -> e.buf) (Hashtbl.find_opt c.table b)

(* Before [e] changes or is dirtied: a request in flight keeps the
   buffer it was submitted with, a lent page stays the device's, and
   [e] goes on in a private copy (of its bytes, unless [fill] rewrites
   them all). So a dirty block holds a buffer of its own, which no
   request holds. *)
let own c e fill =
  if e.busy || e.lent then begin
    let copy = take_buf c in
    if fill <> Overwritten then Bytes.blit e.buf 0 copy 0 c.bsize;
    e.buf <- copy;
    e.busy <- false;
    e.lent <- false
  end

let modify c b kind fill change =
  let e =
    if fill = From_disk || Hashtbl.mem c.table b then lookup c b
    else begin
      (* A new block, or one the change overwrites whole: nothing to
         read, and not a miss. *)
      make_room c;
      let buf = take_buf c in
      if fill = Zeroed then Bytes.fill buf 0 c.bsize '\000';
      let e = entry b buf ~prefetched:false in
      insert c e;
      e
    end
  in
  own c e fill;
  change e.buf;
  match (e.dirty, kind) with
  | Some Metadata, Data -> ()
  | _ -> e.dirty <- Some kind

let is_dirty c b =
  match Hashtbl.find_opt c.table b with Some { dirty = Some _; _ } -> true | _ -> false

(* One cluster write plus the restore record needed to re-dirty its
   blocks if the request fails: each block's entry, the buffer the
   request carries, and the dirty kind it had. *)
type prepared = (Io.req * (entry * Bytes.t * kind option) list) list

let prepare c ~class_ ~max_cluster blocks =
  let eligible =
    List.sort_uniq compare (List.filter (fun b -> is_dirty c b) blocks)
  in
  let max_blocks = Stdlib.max 1 (max_cluster / c.bsize) in
  (* Group device-contiguous runs, bounded by the cluster size. *)
  let rec runs acc current = function
    | [] -> List.rev (match current with [] -> acc | r -> List.rev r :: acc)
    | b :: rest -> (
        match current with
        | prev :: _ when b = prev + 1 && List.length current < max_blocks ->
            runs acc (b :: current) rest
        | [] -> runs acc [ b ] rest
        | r -> runs (List.rev r :: acc) [ b ] rest)
  in
  let cluster run =
    match run with
    | [] -> None
    | first :: _ ->
        (* The cluster gathers the blocks' own buffers, which stay busy
           until the request completes: a change meanwhile goes to a
           copy ([modify]), so the request writes the bytes it was
           submitted with. The blocks are marked clean now: a writer
           dirtying one mid-flight must not have its new bytes
           considered durable. *)
        let was =
          List.map
            (fun b ->
              match Hashtbl.find_opt c.table b with
              | Some e ->
                  let k = e.dirty in
                  e.dirty <- None;
                  e.busy <- true;
                  e.writes <- e.writes + 1;
                  (e, e.buf, k)
              | None -> assert false)
            run
        in
        let r = Io.write_req ~class_ ~off:(first * c.bsize) (List.map (fun (_, buf, _) -> buf) was) in
        (* A buffer its entry no longer holds (copied on write, or the
           block left the cache) was the request's alone: it backs a
           later fill. A block that still holds its buffer is clean
           and matches stable storage once the write lands, so it
           takes the device's page, unless another write of the block
           has yet to complete ([lend]). *)
        Nfsg_sim.Ivar.upon r.Io.done_ (fun () ->
            List.iter
              (fun (e, buf, _) ->
                e.writes <- e.writes - 1;
                if e.buf == buf then begin
                  e.busy <- false;
                  if r.Io.error = None then lend c e
                end
                else begin
                  give_back c buf;
                  if e.buf == Bytes.empty && Hashtbl.mem c.departed e.blk then begin
                    let left = Hashtbl.find c.departed e.blk - 1 in
                    if left = 0 then Hashtbl.remove c.departed e.blk
                    else Hashtbl.replace c.departed e.blk left
                  end
                end)
              was);
        Some (r, was)
  in
  List.filter_map cluster (runs [] [] eligible)

let prepared_items p = List.map (fun (r, _) -> Io.Req r) p

let await_prepared c ps =
  let all = List.concat ps in
  (* Park on every request before looking at any outcome: a failure
     must not leave later clusters un-awaited. *)
  List.iter (fun (r, _) -> Nfsg_sim.Ivar.read r.Io.done_) all;
  let first_err = ref None in
  List.iter
    (fun (r, was) ->
      match r.Io.error with
      | None -> ()
      | Some exn ->
          if !first_err = None then first_err := Some exn;
          (* Failed transaction: nothing reached the platter, so every
             block of the run must stay dirty for the next sync. A kind
             recorded by a concurrent writer while the request was in
             flight takes precedence. A block clean again meanwhile
             (a later write of it landed, or is in flight) is dirtied
             in a private copy, like a change. *)
          List.iter
            (fun (e, _, k) ->
              match (e.dirty, k) with
              | None, Some _ ->
                  own c e From_disk;
                  e.dirty <- k
              | Some Data, Some Metadata -> e.dirty <- Some Metadata
              | _ -> ())
            was)
    all;
  match !first_err with Some exn -> raise exn | None -> ()

let install c b =
  if not (Hashtbl.mem c.table b) then begin
    make_room c;
    let page = if departed_writes c b = 0 then stable_page c b else Bytes.empty in
    let e =
      if page != Bytes.empty then entry b page ~prefetched:false
      else entry b (c.dev.Device.stable_read ~off:(b * c.bsize) ~len:c.bsize) ~prefetched:false
    in
    e.lent <- page != Bytes.empty;
    insert c e
  end

let drop c b =
  match Hashtbl.find_opt c.table b with
  | Some e ->
      note_gone c e;
      remove c e
  | None -> ()

let crash c =
  Hashtbl.reset c.table;
  c.lru.older <- c.lru;
  c.lru.newer <- c.lru;
  Array.fill c.spare 0 c.spares Bytes.empty;
  c.spares <- 0;
  Hashtbl.reset c.departed;
  match c.ra with
  | Some ra ->
      Hashtbl.reset ra.streams;
      ra.ring.s_older <- ra.ring;
      ra.ring.s_newer <- ra.ring;
      Hashtbl.reset ra.inflight
  | None -> ()
