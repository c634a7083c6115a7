type t = {
  segment : Segment.t;
  addr : string;
  rcvbuf : int;
  queue : (string * Bytes.t * Nfsg_sim.Time.t) Nfsg_sim.Squeue.t;
  mutable buffered_bytes : int;
  mutable dropped : int;
  mutable given_back : src:string -> Bytes.t -> unit;
}

let addr s = s.addr
let pending s = Nfsg_sim.Squeue.length s.queue
let dropped s = s.dropped

let create segment ~addr ?(rcvbuf = 256 * 1024) ?(on_rx_fragment = fun ~bytes:_ -> ()) () =
  let s =
    {
      segment;
      addr;
      rcvbuf;
      queue = Nfsg_sim.Squeue.create ();
      buffered_bytes = 0;
      dropped = 0;
      given_back = (fun ~src:_ _ -> ());
    }
  in
  let deliver ~src payload =
    if s.buffered_bytes + Bytes.length payload > s.rcvbuf then s.dropped <- s.dropped + 1
    else begin
      s.buffered_bytes <- s.buffered_bytes + Bytes.length payload;
      (* Arrival stamp: the instant the datagram entered the buffer,
         so a consumer can measure how long it waited for service. *)
      Nfsg_sim.Squeue.put s.queue (src, payload, Nfsg_sim.Engine.now (Segment.engine segment))
    end
  in
  Segment.attach segment
    {
      Segment.addr;
      deliver;
      rx_fragment = on_rx_fragment;
      buffer_drops = (fun () -> s.dropped);
      given_back = (fun ~src datagram -> s.given_back ~src datagram);
    };
  s

let send s ~dst payload = Segment.transmit s.segment ~src:s.addr ~dst payload
let give_back s ~dst datagram = Segment.give_back s.segment ~src:s.addr ~dst datagram
let on_given_back s f = s.given_back <- f
let detach s = Segment.detach s.segment s.addr

let recv_stamped s =
  let ((_, payload, _) as msg) = Nfsg_sim.Squeue.get s.queue in
  s.buffered_bytes <- s.buffered_bytes - Bytes.length payload;
  msg

let recv s =
  let src, payload, _ = recv_stamped s in
  (src, payload)

let scan s pred =
  let found = ref false in
  Nfsg_sim.Squeue.iter
    (fun (src, payload, _) -> if (not !found) && pred ~src payload then found := true)
    s.queue;
  !found
