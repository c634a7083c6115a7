(** Datagram socket with a bounded, scannable receive buffer.

    The receive buffer is bounded in {e bytes} (DEC OSF/1 used at most
    0.25 MB of socket buffering, per the paper's conclusions); datagrams
    that do not fit are dropped and counted. {!scan} exposes the queued
    datagrams without consuming them — the hook the paper's "mbuf
    hunter" (section 6.5) needs, layering violation included. *)

type t

val create :
  Segment.t ->
  addr:string ->
  ?rcvbuf:int ->
  ?on_rx_fragment:(bytes:int -> unit) ->
  unit ->
  t
(** Attach a station to the segment. [rcvbuf] defaults to 256 KiB.
    [on_rx_fragment] fires once per received transport unit, letting
    the owner charge packet-reassembly CPU. *)

val addr : t -> string

val send : t -> dst:string -> Bytes.t -> unit
(** Queue a datagram for transmission. Never blocks (interface queue is
    not modelled; the shared medium is). *)

val recv : t -> string * Bytes.t
(** Blocking receive: [(source address, payload)]. The payload is the
    receiver's alone: every buffer sent is delivered at most once
    ({!Segment.set_dup_prob}). *)

val recv_stamped : t -> string * Bytes.t * Nfsg_sim.Time.t
(** Like {!recv}, additionally returning the instant the datagram was
    enqueued into the receive buffer — the arrival stamp journey
    records measure socket wait from. *)

val scan : t -> (src:string -> Bytes.t -> bool) -> bool
(** [scan s pred] is [true] iff some queued (unconsumed) datagram
    satisfies [pred]. Does not consume anything. *)

val give_back : t -> dst:string -> Bytes.t -> unit
(** [give_back s ~dst datagram]: this host is done with a datagram it
    received from [dst], and neither it nor a view into it will be read
    again. The datagram goes to [dst]'s {!on_given_back} hook, or
    nowhere if [dst] has left the segment. It costs no simulated time,
    schedules no event and counts nothing: it is bookkeeping of the
    simulator's own memory, how the RPC client returns a reply datagram
    once the call's decode has returned ({!Nfsg_rpc.Rpc_client}). *)

val on_given_back : t -> (src:string -> Bytes.t -> unit) -> unit
(** What this station does with a datagram it sent that its receiver
    [src] gives back: nothing until set. {!Nfsg_rpc.Svc} keeps its
    reply datagrams this way. *)

val detach : t -> unit
(** Remove the station from the segment: subsequent datagrams for this
    address vanish (the host is off the wire). The address becomes
    reusable — how a rebooted server reclaims its identity. *)

val pending : t -> int
(** Datagrams queued awaiting {!recv}. *)

val dropped : t -> int
(** Datagrams dropped because the buffer was full. *)
