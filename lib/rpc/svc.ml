open Nfsg_sim
module Metrics = Nfsg_stats.Metrics
module Names = Nfsg_stats.Names
module Journey = Nfsg_stats.Journey

type transport = {
  mutable client : string;
  mutable xid : int;
  mutable live : bool;  (** checked out and not yet replied *)
  mutable journey : Journey.t option;
      (** the op's journey record; finished (and detached) when the
          reply goes out through {!send_reply} *)
}

type disposition = Reply of Rpc.accept_stat * Bytes.t | Reply_pending

type t = {
  eng : Engine.t;
  sock : Nfsg_net.Socket.t;
  dupcache : Dupcache.t option;
  on_duplicate_drop : client:string -> Rpc.call -> unit;
  journeys : Journey.plane option;
  free_handles : transport Queue.t;
  mutable outstanding : int;
  spares : Spares.t;  (** reply datagrams given back, all of one length *)
  take_spare : (int -> Bytes.t) option;
      (** the encoder's buffer hook over [spares], built once so that a
          reply allocates no hook *)
  received : Metrics.counter;
  garbage : Metrics.counter;
  dispatch_errors : Metrics.counter;
  dup_drops : Metrics.counter;
  dup_replays : Metrics.counter;
}

let client_of tr = tr.client
let journey_of tr = tr.journey
let handles_outstanding t = t.outstanding
let handle_cache_size t = Queue.length t.free_handles
let spares t = Spares.length t.spares
let garbage_dropped t = Metrics.value t.garbage
let dispatch_errors t = Metrics.value t.dispatch_errors

let take_handle t ~client ~xid =
  let tr =
    match Queue.take_opt t.free_handles with
    | Some tr -> tr
    | None -> { client = ""; xid = 0; live = false; journey = None }
  in
  tr.client <- client;
  tr.xid <- xid;
  tr.live <- true;
  tr.journey <- None;
  t.outstanding <- t.outstanding + 1;
  tr

let encode_reply t tr stat put_body =
  Rpc.encode_reply_with ?buffer:t.take_spare ~xid:tr.xid ~stat put_body

let send_encoded t tr encoded =
  if not tr.live then invalid_arg "Svc.send_reply: handle already completed";
  tr.live <- false;
  t.outstanding <- t.outstanding - 1;
  (* The journey ends where the reply leaves, whichever nfsd (or
     deferred flush) brings it here. *)
  (match (t.journeys, tr.journey) with
  | Some plane, Some j ->
      tr.journey <- None;
      Journey.finish plane j
  | _ -> tr.journey <- None);
  (match t.dupcache with
  | Some dc -> Dupcache.complete dc ~client:tr.client ~xid:tr.xid encoded
  | None -> ());
  Nfsg_net.Socket.send t.sock ~dst:tr.client encoded;
  Queue.add tr t.free_handles

let send_reply t tr stat body =
  send_encoded t tr (encode_reply t tr stat (fun enc -> Xdr.Enc.raw enc body))

(* A reply datagram its client is done with. The dupcache keeps one it
   still holds until it lets the entry go; any other is free at once. *)
let given_back t ~src datagram =
  if Spares.keeps datagram then
    match t.dupcache with
    | Some dc when Dupcache.returned dc ~client:src ~xid:(Rpc.xid_of datagram) datagram -> ()
    | Some _ | None -> Spares.give_back t.spares datagram

let svc_run t dispatch () =
  let rec loop () =
    let client, datagram, arrival = Nfsg_net.Socket.recv_stamped t.sock in
    Metrics.incr t.received;
    (match Rpc.decode_call datagram with
    | exception Xdr.Decode_error _ -> Metrics.incr t.garbage
    | call -> (
        let verdict =
          match t.dupcache with
          | None -> Dupcache.New
          | Some dc -> Dupcache.admit dc ~client ~xid:call.Rpc.xid
        in
        match verdict with
        | Dupcache.In_progress ->
            Metrics.incr t.dup_drops;
            t.on_duplicate_drop ~client call
        | Dupcache.Replay reply ->
            Metrics.incr t.dup_replays;
            (* The cache keeps its datagram for the next replay: the
               client gets a copy of its own to give back. *)
            let n = Bytes.length reply in
            let copy = Spares.take t.spares n in
            Bytes.blit reply 0 copy 0 n;
            Nfsg_net.Socket.send t.sock ~dst:client copy
        | Dupcache.New -> (
            let tr = take_handle t ~client ~xid:call.Rpc.xid in
            (match t.journeys with
            | Some plane ->
                let j = Journey.start plane ~client ~xid:call.Rpc.xid ~arrival in
                let now = Engine.now t.eng in
                Journey.stamp_pickup j ~now;
                Journey.stamp_admitted j ~now;
                tr.journey <- Some j
            | None -> ());
            match dispatch tr call with
            | Reply (stat, body) -> send_reply t tr stat body
            | Reply_pending ->
                (* The dispatch replied through send_reply already, or
                   another nfsd (or this one, later) will. We go
                   straight back to the socket for more work. *)
                ()
            | exception e ->
                (* Simulator invariant failures must not be laundered
                   into RPC errors. *)
                (match e with
                | Assert_failure _ | Out_of_memory | Stack_overflow -> raise e
                | _ -> ());
                (* An exception escaping the dispatch must never leave
                   the xid parked as in-progress: that would silently
                   blackhole every retransmission of the request. If no
                   reply went out, forget the entry (so a retransmission
                   re-executes) and answer; the error reply is
                   deliberately NOT cached. If the dispatch had already
                   replied before raising, the completed cache entry is
                   correct — keep it. A typed truncation from the
                   argument decoder is the client's malformed packet,
                   not a server fault: GARBAGE_ARGS, not SYSTEM_ERR. *)
                let stat =
                  match e with
                  | Xdr.Decode_error _ ->
                      Metrics.incr t.garbage;
                      Rpc.Garbage_args
                  | _ ->
                      Metrics.incr t.dispatch_errors;
                      Rpc.System_err
                in
                if tr.live then begin
                  (match t.dupcache with
                  | Some dc -> Dupcache.forget dc ~client ~xid:call.Rpc.xid
                  | None -> ());
                  send_reply t tr stat (Bytes.create 0)
                end)));
    loop ()
  in
  loop ()

let create eng ~sock ?dupcache ?(on_duplicate_drop = fun ~client:_ _ -> ()) ?journeys ?metrics
    ?(spares = Spares.create ()) ~nfsds ~dispatch () =
  if nfsds <= 0 then invalid_arg "Svc.create: need at least one nfsd";
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  let ns = Names.Ns.rpc_svc in
  let t =
    {
      eng;
      sock;
      dupcache;
      on_duplicate_drop;
      journeys;
      free_handles = Queue.create ();
      outstanding = 0;
      spares;
      take_spare = Some (Spares.take spares);
      received = Metrics.counter m ~ns Names.received;
      garbage = Metrics.counter m ~ns Names.garbage;
      dispatch_errors = Metrics.counter m ~ns Names.dispatch_errors;
      dup_drops = Metrics.counter m ~ns Names.duplicate_drops;
      dup_replays = Metrics.counter m ~ns Names.duplicate_replays;
    }
  in
  Option.iter (fun dc -> Dupcache.on_release dc (Spares.give_back spares)) dupcache;
  Nfsg_net.Socket.on_given_back sock (given_back t);
  for i = 0 to nfsds - 1 do
    Engine.spawn eng ~name:(Printf.sprintf "nfsd%d" i) (svc_run t dispatch)
  done;
  t
