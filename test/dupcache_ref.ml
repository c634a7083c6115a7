(* Reference model for Nfsg_rpc.Dupcache: the duplicate cache as it was
   before eviction moved to an ordered set. Every admission folds the
   whole table to expire entries and, at capacity, sorts every completed
   entry to find the victim. Slow but plainly correct; test_rpc checks
   the real cache against it on random traces. *)

open Nfsg_sim
module Metrics = Nfsg_stats.Metrics
module Names = Nfsg_stats.Names

type state = In_flight | Done of Bytes.t * Time.t

type entry = { mutable state : state; mutable last_touch : Time.t }

type verdict = New | In_progress | Replay of Bytes.t

type t = {
  eng : Engine.t;
  capacity : int;
  ttl : Time.t;
  table : (string * int, entry) Hashtbl.t;
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

(* Make room for one insertion. First drop every completed entry whose
   TTL has lapsed (it can never be replayed again, only re-executed, so
   keeping it buys nothing); if the table is still at capacity, evict
   the least recently touched completed entries until one slot is free.
   In-flight entries are pinned — with every slot pinned there is no
   room, and the caller must not insert. *)
let make_room t =
  let now = Engine.now t.eng in
  let expired =
    Hashtbl.fold
      (fun k e acc ->
        match e.state with
        | Done (_, at) when now - at > t.ttl -> k :: acc
        | Done _ | In_flight -> acc)
      t.table []
  in
  List.iter (Hashtbl.remove t.table) expired;
  Metrics.add t.m_expirations (List.length expired);
  if Hashtbl.length t.table < t.capacity then true
  else begin
    (* Oldest first; ties broken by key so eviction order never depends
       on hash-table iteration order. *)
    let victims =
      Hashtbl.fold
        (fun k e acc -> match e.state with Done _ -> (e.last_touch, k) :: acc | In_flight -> acc)
        t.table []
      |> List.sort compare
    in
    let excess = Hashtbl.length t.table - t.capacity + 1 in
    let evicted = ref 0 in
    List.iteri
      (fun i (_, k) ->
        if i < excess then begin
          Hashtbl.remove t.table k;
          incr evicted
        end)
      victims;
    Metrics.add t.m_evictions !evicted;
    Hashtbl.length t.table < t.capacity
  end

let admit t ~client ~xid =
  let key = (client, xid) in
  let now = Engine.now t.eng in
  match Hashtbl.find_opt t.table key with
  | Some e -> (
      e.last_touch <- now;
      match e.state with
      | In_flight ->
          Metrics.incr t.m_drops;
          In_progress
      | Done (reply, at) ->
          if now - at <= t.ttl then begin
            Metrics.incr t.m_replays;
            Replay reply
          end
          else begin
            e.state <- In_flight;
            New
          end)
  | None ->
      if make_room t then
        Hashtbl.replace t.table key { state = In_flight; last_touch = now }
      else
        (* Every slot holds an in-flight request: execute uncached. A
           retransmission of this request during execution will not be
           recognised — the price of a bounded table under overload. *)
        Metrics.incr t.m_overflows;
      New

let complete t ~client ~xid reply =
  match Hashtbl.find_opt t.table (client, xid) with
  | Some e ->
      e.state <- Done (reply, Engine.now t.eng);
      e.last_touch <- Engine.now t.eng
  | None -> ()

let forget t ~client ~xid = Hashtbl.remove t.table (client, xid)
