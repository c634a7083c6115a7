open Nfsg_sim
module Metrics = Nfsg_stats.Metrics
module Names = Nfsg_stats.Names

type op_class = Light | Middle | Heavy

type params = { initial_rto : Time.t; min_rto : Time.t; max_rto : Time.t; max_attempts : int }

let default_params =
  {
    initial_rto = Time.of_ms_f 1100.0;
    min_rto = Time.ms 500;
    max_rto = Time.sec 20;
    max_attempts = 10;
  }

exception Timeout of int

type rtt_state = { mutable srtt : Time.t; mutable rttvar : Time.t; mutable samples : int }

(* One transmission awaiting its reply. The demux fills [reply] and
   [from], its sender, cancels [rto] and unparks [caller]; if [rto]
   fires first, the transmission leaves [pending] with no reply and the
   caller retransmits. *)
type transmission = {
  caller : Engine.proc;
  rto : Engine.timer;
  mutable reply : Rpc.reply option;
  mutable from : string;
}

type t = {
  eng : Engine.t;
  sock : Nfsg_net.Socket.t;
  server : string;
  params : params;
  spares : Spares.t;  (** call datagrams given back, all of one length *)
  take_spare : (int -> Bytes.t) option;
      (** the encoder's buffer hook over [spares], built once so that a
          call allocates no hook *)
  pending : (int, transmission) Hashtbl.t;
  rtt : (op_class, rtt_state) Hashtbl.t;
  mutable next_xid : int;
  sent : Metrics.counter;
  retrans : Metrics.counter;
  stale : Metrics.counter;
  timeouts : Metrics.counter;
  rtt_us : Nfsg_stats.Histogram.t;
}

let retransmissions t = Metrics.value t.retrans
let spares t = Spares.length t.spares

let demux t () =
  let rec loop () =
    let src, datagram = Nfsg_net.Socket.recv t.sock in
    (match Rpc.decode_reply datagram with
    | exception Xdr.Decode_error _ -> ()
    | reply -> (
        match Hashtbl.find_opt t.pending reply.Rpc.rxid with
        | Some tx ->
            Hashtbl.remove t.pending reply.Rpc.rxid;
            ignore (Engine.cancel tx.rto : bool);
            tx.reply <- Some reply;
            tx.from <- src;
            Engine.unpark tx.caller
        | None ->
            Metrics.incr t.stale;
            Nfsg_net.Socket.give_back t.sock ~dst:src datagram));
    loop ()
  in
  loop ()

let create eng ~sock ~server ?(params = default_params) ?metrics () =
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  let ns = Names.Ns.rpc_client in
  let spares = Spares.create () in
  let t =
    {
      eng;
      sock;
      server;
      params;
      spares;
      take_spare = Some (Spares.take spares);
      pending = Hashtbl.create 64;
      rtt = Hashtbl.create 4;
      next_xid = 1;
      sent = Metrics.counter m ~ns Names.datagrams_sent;
      retrans = Metrics.counter m ~ns Names.retransmissions;
      stale = Metrics.counter m ~ns Names.stale_replies;
      timeouts = Metrics.counter m ~ns Names.timeouts;
      rtt_us = Metrics.histogram m ~ns Names.rtt_us;
    }
  in
  Engine.spawn eng ~name:(Nfsg_net.Socket.addr sock ^ "-rpc-demux") (demux t);
  t

let rtt_state t klass =
  match Hashtbl.find_opt t.rtt klass with
  | Some s -> s
  | None ->
      let s = { srtt = Time.zero; rttvar = Time.zero; samples = 0 } in
      Hashtbl.replace t.rtt klass s;
      s

let rtt_estimate t klass =
  match Hashtbl.find_opt t.rtt klass with
  | Some s when s.samples > 0 -> Some s.srtt
  | Some _ | None -> None

let note_rtt t klass sample =
  let s = rtt_state t klass in
  if s.samples = 0 then begin
    s.srtt <- sample;
    s.rttvar <- sample / 2
  end
  else begin
    (* Van Jacobson smoothing, integer arithmetic. *)
    let err = sample - s.srtt in
    s.srtt <- s.srtt + (err / 8);
    s.rttvar <- s.rttvar + ((abs err - s.rttvar) / 4)
  end;
  s.samples <- s.samples + 1

(* Starting timeout for a class: adapted once we have samples, the
   paper's 1.1 s default until then. *)
let rto_for t klass =
  let s = rtt_state t klass in
  if s.samples = 0 then t.params.initial_rto
  else begin
    let candidate = s.srtt + (4 * s.rttvar) in
    Stdlib.min t.params.max_rto (Stdlib.max candidate t.params.min_rto)
  end

(* The caller's decode has returned, or raised: nothing here reads the
   reply datagram again, so it goes back to its sender. *)
let decoded t tx datagram = Nfsg_net.Socket.give_back t.sock ~dst:tx.from datagram

(* Transmission [n] of call [xid], waiting up to [rto] for its reply: a
   function of its own, not a closure over the call, so that a call
   allocates none for it. *)
let rec attempt t ~klass ~proc ~xid payload decode n rto =
  if n > t.params.max_attempts then begin
    Metrics.incr t.timeouts;
    raise (Timeout proc)
  end;
  let sent_at = Engine.now t.eng in
  Nfsg_net.Socket.send t.sock ~dst:t.server payload;
  Metrics.incr t.sent;
  if n > 1 then Metrics.incr t.retrans;
  let caller = Engine.self () in
  let expire () =
    if Hashtbl.mem t.pending xid then begin
      Hashtbl.remove t.pending xid;
      Engine.unpark caller
    end
  in
  let tx = { caller; rto = Engine.timer t.eng ~after:rto expire; reply = None; from = "" } in
  Hashtbl.replace t.pending xid tx;
  Engine.park ();
  match tx.reply with
  | Some reply ->
      let rtt = Engine.now t.eng - sent_at in
      note_rtt t klass rtt;
      Nfsg_stats.Histogram.add t.rtt_us (Time.to_us_f rtt);
      (* Answered on its only transmission: no copy is left on the
         wire or in a socket buffer, and the server kept none. *)
      if n = 1 then Spares.give_back t.spares payload;
      let datagram = reply.Rpc.rbody.Xdr.view_buf in
      (match decode reply.Rpc.stat reply.Rpc.rbody with
      | v ->
          decoded t tx datagram;
          v
      | exception e ->
          decoded t tx datagram;
          raise e)
  | None ->
      attempt t ~klass ~proc ~xid payload decode (n + 1) (Stdlib.min t.params.max_rto (2 * rto))

let call_with t ?(klass = Middle) ?(prog = Rpc.nfs_program) ~proc put_body decode =
  t.next_xid <- t.next_xid + 1;
  let xid = t.next_xid in
  let payload =
    Rpc.encode_call_with ?buffer:t.take_spare ~xid ~prog ~vers:Rpc.nfs_version ~proc put_body
  in
  attempt t ~klass ~proc ~xid payload decode 1 (rto_for t klass)

let copy_body stat body = (stat, Xdr.view_of_bytes (Xdr.view_copy body))

let call t ?klass ?prog ~proc body =
  call_with t ?klass ?prog ~proc (fun enc -> Xdr.Enc.raw enc body) copy_body
