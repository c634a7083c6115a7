open Nfsg_sim
module Metrics = Nfsg_stats.Metrics
module Names = Nfsg_stats.Names

type state = In_flight | Done of Bytes.t * Time.t

type entry = { key : string * int; mutable state : state; mutable last_touch : Time.t }

type verdict = New | In_progress | Replay of Bytes.t

(* Completed entries in eviction order: least recently touched first,
   ties broken by key, so the victim never depends on hash-table
   order. An element's touch time is fixed; touching a completed entry
   re-inserts it. *)
module Lru = Set.Make (struct
  type t = Time.t * entry

  let compare (ta, a) (tb, b) =
    if ta <> tb then Int.compare ta tb
    else
      let ca, xa = a.key and cb, xb = b.key in
      let c = String.compare ca cb in
      if c <> 0 then c else Int.compare xa xb
end)

type t = {
  eng : Engine.t;
  capacity : int;
  ttl : Time.t;
  table : (string * int, entry) Hashtbl.t;
  mutable lru : Lru.t;
  completions : (Time.t * entry) Queue.t;
      (** every completion, oldest first; an element whose entry has
          since been re-armed, completed again or removed (which re-arms
          it) is stale and skipped *)
  m_drops : Metrics.counter;
  m_replays : Metrics.counter;
  m_evictions : Metrics.counter;
  m_expirations : Metrics.counter;
  m_overflows : Metrics.counter;
}

let ns = Names.Ns.rpc_dupcache

let create eng ?(capacity = 512) ?(ttl = Time.sec 6) ?metrics () =
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  {
    eng;
    capacity;
    ttl;
    table = Hashtbl.create 256;
    lru = Lru.empty;
    completions = Queue.create ();
    m_drops = Metrics.counter m ~ns Names.drops;
    m_replays = Metrics.counter m ~ns Names.replays;
    m_evictions = Metrics.counter m ~ns Names.evictions;
    m_expirations = Metrics.counter m ~ns Names.expirations;
    m_overflows = Metrics.counter m ~ns Names.overflows;
  }

let entries t = Hashtbl.length t.table
let drops t = Metrics.value t.m_drops
let replays t = Metrics.value t.m_replays
let evictions t = Metrics.value t.m_evictions
let overflows t = Metrics.value t.m_overflows

(* Take a completed entry out of eviction order (before it is touched,
   re-armed or removed). *)
let unlist t e =
  match e.state with Done _ -> t.lru <- Lru.remove (e.last_touch, e) t.lru | In_flight -> ()

(* A removed entry is re-armed so that its stale completion records
   neither match it nor keep its reply alive. *)
let remove t e =
  unlist t e;
  Hashtbl.remove t.table e.key;
  e.state <- In_flight

(* Make room for one insertion. First drop every completed entry whose
   TTL has lapsed (it can never be replayed again, only re-executed, so
   keeping it buys nothing): completion times only grow, so those are
   the live head of [completions]. If the table is still at capacity,
   evict the least recently touched completed entries until one slot
   is free. In-flight entries are pinned — with every slot pinned there
   is no room, and the caller must not insert. *)
let make_room t =
  let now = Engine.now t.eng in
  let rec expire () =
    match Queue.peek_opt t.completions with
    | Some (at, e) -> (
        match e.state with
        | Done (_, done_at) when done_at = at ->
            if now - at > t.ttl then begin
              ignore (Queue.pop t.completions);
              remove t e;
              Metrics.incr t.m_expirations;
              expire ()
            end
        | Done _ | In_flight ->
            ignore (Queue.pop t.completions);
            expire ())
    | None -> ()
  in
  expire ();
  let rec evict () =
    if Hashtbl.length t.table >= t.capacity then
      match Lru.min_elt_opt t.lru with
      | Some (_, e) ->
          remove t e;
          Metrics.incr t.m_evictions;
          evict ()
      | None -> ()
  in
  evict ();
  Hashtbl.length t.table < t.capacity

let admit t ~client ~xid =
  let key = (client, xid) in
  let now = Engine.now t.eng in
  match Hashtbl.find_opt t.table key with
  | Some e -> (
      match e.state with
      | In_flight ->
          e.last_touch <- now;
          Metrics.incr t.m_drops;
          In_progress
      | Done (reply, at) when now - at <= t.ttl ->
          (* A replay touches the entry: it moves in eviction order. *)
          if e.last_touch <> now then begin
            unlist t e;
            e.last_touch <- now;
            t.lru <- Lru.add (now, e) t.lru
          end;
          Metrics.incr t.m_replays;
          Replay reply
      | Done _ ->
          unlist t e;
          e.state <- In_flight;
          e.last_touch <- now;
          New)
  | None ->
      if make_room t then
        Hashtbl.replace t.table key { key; state = In_flight; last_touch = now }
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
      unlist t e;
      e.state <- Done (reply, now);
      e.last_touch <- now;
      t.lru <- Lru.add (now, e) t.lru;
      Queue.add (now, e) t.completions
  | None -> ()

let forget t ~client ~xid =
  match Hashtbl.find_opt t.table (client, xid) with Some e -> remove t e | None -> ()
