open Nfsg_sim
module Metrics = Nfsg_stats.Metrics
module Names = Nfsg_stats.Names

type params = {
  bandwidth : float;
  mtu : int;
  frag_overhead_bytes : int;
  frag_gap : Time.t;
  latency : Time.t;
  loss_prob : float;
}

let ethernet =
  {
    bandwidth = 10e6;
    mtu = 1500;
    frag_overhead_bytes = 26;
    frag_gap = Time.of_us_f 15.0;
    latency = Time.of_us_f 400.0;
    loss_prob = 0.0;
  }

let fddi =
  {
    bandwidth = 100e6;
    mtu = 4352;
    frag_overhead_bytes = 28;
    frag_gap = Time.of_us_f 4.0;
    latency = Time.of_us_f 120.0;
    loss_prob = 0.0;
  }

type station = {
  addr : string;
  deliver : src:string -> Bytes.t -> unit;
  rx_fragment : bytes:int -> unit;
  buffer_drops : unit -> int;
  given_back : src:string -> Bytes.t -> unit;
}

type job = { src : string; dst : string; payload : Bytes.t }

type t = {
  eng : Engine.t;
  p : params;
  rng : Rng.t;
  stations : (string, station) Hashtbl.t;
  queue : job Squeue.t;
  mutable loss : float;  (** runtime drop probability (starts at [p.loss_prob]) *)
  mutable dup : float;  (** runtime duplication probability *)
  mutable partitions : (string * string * Time.t) list;
      (** blacked-out unordered address pairs, with expiry instants *)
  sent : Metrics.counter;
  lost : Metrics.counter;
  duplicated : Metrics.counter;
  blackholed : Metrics.counter;
  bytes : Metrics.counter;
  mutable busy : Time.t;
}

let engine t = t.eng
let datagrams_sent t = Metrics.value t.sent
let datagrams_lost t = Metrics.value t.lost
let datagrams_duplicated t = Metrics.value t.duplicated
let datagrams_blackholed t = Metrics.value t.blackholed
let busy_time t = t.busy

let set_loss_prob t p =
  if p < 0.0 || p >= 1.0 then invalid_arg "Segment.set_loss_prob: need 0 <= p < 1";
  t.loss <- p

let set_dup_prob t p =
  if p < 0.0 || p >= 1.0 then invalid_arg "Segment.set_dup_prob: need 0 <= p < 1";
  t.dup <- p

let pair_matches a b (x, y, _) = (x = a && y = b) || (x = b && y = a)

let partition t ~a ~b ~until =
  (* Healing an old window before opening a new one keeps the list a
     set: at most one entry per pair. *)
  t.partitions <- (a, b, until) :: List.filter (fun e -> not (pair_matches a b e)) t.partitions


let partitioned t ~a ~b =
  match t.partitions with
  | [] -> false
  | partitions ->
      let now = Engine.now t.eng in
      (* Lazily drop expired windows so the list never grows with history. *)
      t.partitions <- List.filter (fun (_, _, until) -> until > now) partitions;
      List.exists (pair_matches a b) t.partitions

let station_drops t =
  Hashtbl.fold (fun addr s acc -> (addr, s.buffer_drops ()) :: acc) t.stations []
  |> List.sort compare

let fragments_of p size = Stdlib.max 1 ((size + p.mtu - 1) / p.mtu)

let wire_time p size =
  let nfrags = fragments_of p size in
  let wire_bytes = size + (nfrags * p.frag_overhead_bytes) in
  Time.of_sec_f (float_of_int (wire_bytes * 8) /. p.bandwidth) + (nfrags * p.frag_gap)

let deliver_to t ~src ~dst ~nfrags ~size payload =
  Engine.schedule t.eng ~after:t.p.latency (fun () ->
      match Hashtbl.find_opt t.stations dst with
      | None -> () (* no such station: datagram vanishes *)
      | Some station ->
          (* Receiver-side per-fragment cost (reassembly). *)
          for _ = 1 to nfrags do
            station.rx_fragment ~bytes:(Stdlib.min size t.p.mtu)
          done;
          station.deliver ~src payload)

let daemon t () =
  let rec loop () =
    let { src; dst; payload } = Squeue.get t.queue in
    let size = Bytes.length payload in
    let occupancy = wire_time t.p size in
    Engine.delay occupancy;
    Metrics.incr t.sent;
    Metrics.add t.bytes size;
    t.busy <- t.busy + occupancy;
    if partitioned t ~a:src ~b:dst then Metrics.incr t.blackholed
    else if Rng.bool t.rng t.loss then Metrics.incr t.lost
    else begin
      let nfrags = fragments_of t.p size in
      deliver_to t ~src ~dst ~nfrags ~size payload;
      (* Datagram duplication (a misbehaving bridge): the copy arrives
         one extra latency later, exercising the duplicate cache. It is
         a copy of its own, taken now: the sender may reuse the
         original once the original's call is answered. *)
      if t.dup > 0.0 && Rng.bool t.rng t.dup then begin
        Metrics.incr t.duplicated;
        let copy = Bytes.copy payload in
        Engine.schedule t.eng ~after:t.p.latency (fun () ->
            deliver_to t ~src ~dst ~nfrags ~size copy)
      end
    end;
    loop ()
  in
  loop ()

let create eng ?(seed = 0x5e9) ?metrics p =
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  let ns = Names.Ns.net in
  let t =
    {
      eng;
      p;
      rng = Rng.create seed;
      stations = Hashtbl.create 8;
      queue = Squeue.create ();
      loss = p.loss_prob;
      dup = 0.0;
      partitions = [];
      sent = Metrics.counter m ~ns Names.datagrams_sent;
      lost = Metrics.counter m ~ns Names.datagrams_lost;
      duplicated = Metrics.counter m ~ns Names.datagrams_duplicated;
      blackholed = Metrics.counter m ~ns Names.datagrams_blackholed;
      bytes = Metrics.counter m ~ns Names.bytes_sent;
      busy = Time.zero;
    }
  in
  Engine.spawn eng ~name:"segment" (daemon t);
  t

let attach t station =
  if Hashtbl.mem t.stations station.addr then
    invalid_arg ("Segment.attach: duplicate address " ^ station.addr);
  Hashtbl.replace t.stations station.addr station

let detach t addr = Hashtbl.remove t.stations addr
let transmit t ~src ~dst payload = Squeue.put t.queue { src; dst; payload }

(* Host memory bookkeeping, not traffic: no wire time, no event, no
   counter. A sender that has left the segment gets nothing back. *)
let give_back t ~src ~dst datagram =
  match Hashtbl.find t.stations dst with
  | station -> station.given_back ~src datagram
  | exception Not_found -> ()
