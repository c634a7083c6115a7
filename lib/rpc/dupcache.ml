open Nfsg_sim
module Metrics = Nfsg_stats.Metrics
module Names = Nfsg_stats.Names

(* A completed entry sits on two rings, both closed by the cache's
   sentinel: the LRU ring in eviction order (least recently touched
   first, ties broken by key, so the victim never depends on hash-table
   order) and the completion ring in completion order (oldest first).
   An in-flight entry is on neither, and links to itself. *)
type entry = {
  key : string * int;
  mutable reply : Bytes.t;  (* meaningful once completed *)
  mutable returned : bool;  (* its client gave [reply] back *)
  mutable done_at : Time.t;
  mutable touched : Time.t;  (* its place on the LRU ring *)
  mutable older : entry;
  mutable newer : entry;
  mutable done_before : entry;
  mutable done_after : entry;
}

type verdict = New | In_progress | Replay of Bytes.t

type t = {
  eng : Engine.t;
  capacity : int;
  ttl : Time.t;
  table : (string * int, entry) Hashtbl.t;
  ends : entry;
      (* sentinel of both rings: [ends.newer] is the next to evict,
         [ends.done_after] the next to expire *)
  mutable release : Bytes.t -> unit;
  m_drops : Metrics.counter;
  m_replays : Metrics.counter;
  m_evictions : Metrics.counter;
  m_expirations : Metrics.counter;
  m_overflows : Metrics.counter;
}

let ns = Names.Ns.rpc_dupcache

(* A new entry, in flight: linked only to itself. *)
let entry key =
  let rec e =
    {
      key;
      reply = Bytes.empty;
      returned = false;
      done_at = 0;
      touched = 0;
      older = e;
      newer = e;
      done_before = e;
      done_after = e;
    }
  in
  e

let create eng ?(capacity = 512) ?(ttl = Time.sec 6) ?metrics () =
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  {
    eng;
    capacity;
    ttl;
    table = Hashtbl.create 256;
    ends = entry ("", 0);
    release = ignore;
    m_drops = Metrics.counter m ~ns Names.drops;
    m_replays = Metrics.counter m ~ns Names.replays;
    m_evictions = Metrics.counter m ~ns Names.evictions;
    m_expirations = Metrics.counter m ~ns Names.expirations;
    m_overflows = Metrics.counter m ~ns Names.overflows;
  }

let on_release t f = t.release <- f
let entries t = Hashtbl.length t.table
let drops t = Metrics.value t.m_drops
let replays t = Metrics.value t.m_replays
let evictions t = Metrics.value t.m_evictions
let overflows t = Metrics.value t.m_overflows

let completed e = e.newer != e

let unlink_lru e =
  e.older.newer <- e.newer;
  e.newer.older <- e.older;
  e.older <- e;
  e.newer <- e

(* Off both rings: back in flight, or on the way out. *)
let unlink e =
  unlink_lru e;
  e.done_before.done_after <- e.done_after;
  e.done_after.done_before <- e.done_before;
  e.done_before <- e;
  e.done_after <- e

let key_after (ca, xa) (cb, xb) =
  let c = String.compare ca cb in
  c > 0 || (c = 0 && xa > xb)

(* Searching back from [p], the first entry that an entry touched at
   [now] with [key] may follow: the sentinel, an entry touched earlier,
   or one whose key sorts before [key]. *)
let rec place t now key p =
  if p != t.ends && p.touched = now && key_after p.key key then place t now key p.older else p

(* Onto the LRU ring, touched now. Every entry there was touched no
   later, so [e] goes to the tail, behind any entry touched at the same
   instant whose key sorts before its own. *)
let touch t e now =
  e.touched <- now;
  let p = place t now e.key t.ends.older in
  e.older <- p;
  e.newer <- p.newer;
  p.newer.older <- e;
  p.newer <- e

(* The entry stops holding its reply. One its client gave back is free
   now: nobody else holds it. *)
let let_go t e =
  if e.returned then begin
    e.returned <- false;
    t.release e.reply
  end;
  e.reply <- Bytes.empty

let remove t e =
  unlink e;
  let_go t e;
  Hashtbl.remove t.table e.key

let rec expire t now =
  let e = t.ends.done_after in
  if e != t.ends && now - e.done_at > t.ttl then begin
    remove t e;
    Metrics.incr t.m_expirations;
    expire t now
  end

let rec evict t =
  let e = t.ends.newer in
  if Hashtbl.length t.table >= t.capacity && e != t.ends then begin
    remove t e;
    Metrics.incr t.m_evictions;
    evict t
  end

(* Make room for one insertion. First drop every completed entry whose
   TTL has lapsed (it can never be replayed again, only re-executed, so
   keeping it buys nothing): completion times only grow, so those are
   the head of the completion ring. If the table is still at capacity,
   evict the least recently touched completed entries until one slot
   is free. In-flight entries are pinned — with every slot pinned there
   is no room, and the caller must not insert. *)
let make_room t =
  expire t (Engine.now t.eng);
  evict t;
  Hashtbl.length t.table < t.capacity

let admit t ~client ~xid =
  let key = (client, xid) in
  let now = Engine.now t.eng in
  match Hashtbl.find_opt t.table key with
  | Some e when not (completed e) ->
      Metrics.incr t.m_drops;
      In_progress
  | Some e when now - e.done_at <= t.ttl ->
      (* A replay touches the entry: it moves in eviction order. *)
      if e.touched <> now then begin
        unlink_lru e;
        touch t e now
      end;
      Metrics.incr t.m_replays;
      Replay e.reply
  | Some e ->
      unlink e;
      let_go t e;
      New
  | None ->
      if make_room t then Hashtbl.replace t.table key (entry key)
      else
        (* Every slot holds an in-flight request: execute uncached. A
           retransmission of this request during execution will not be
           recognised — the price of a bounded table under overload. *)
        Metrics.incr t.m_overflows;
      New

let complete t ~client ~xid reply =
  match Hashtbl.find_opt t.table (client, xid) with
  | Some e ->
      let now = Engine.now t.eng in
      unlink e;
      e.reply <- reply;
      e.done_at <- now;
      touch t e now;
      e.done_before <- t.ends.done_before;
      e.done_after <- t.ends;
      t.ends.done_before.done_after <- e;
      t.ends.done_before <- e
  | None -> ()

let forget t ~client ~xid =
  match Hashtbl.find_opt t.table (client, xid) with Some e -> remove t e | None -> ()

let returned t ~client ~xid datagram =
  match Hashtbl.find_opt t.table (client, xid) with
  | Some e when completed e && e.reply == datagram ->
      e.returned <- true;
      true
  | Some _ | None -> false

(* Every completed entry is on the LRU ring; an in-flight one holds no
   reply. *)
let rec clear t =
  let e = t.ends.newer in
  if e != t.ends then begin
    remove t e;
    clear t
  end
  else Hashtbl.reset t.table
