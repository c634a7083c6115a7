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
(** Blocking receive: [(source address, payload)]. *)

val recv_stamped : t -> string * Bytes.t * Nfsg_sim.Time.t
(** Like {!recv}, additionally returning the instant the datagram was
    enqueued into the receive buffer — the arrival stamp journey
    records measure socket wait from. *)

val scan : t -> (src:string -> Bytes.t -> bool) -> bool
(** [scan s pred] is [true] iff some queued (unconsumed) datagram
    satisfies [pred]. Does not consume anything. *)

val detach : t -> unit
(** Remove the station from the segment: subsequent datagrams for this
    address vanish (the host is off the wire). The address becomes
    reusable — how a rebooted server reclaims its identity. *)

val pending : t -> int
(** Datagrams queued awaiting {!recv}. *)

val dropped : t -> int
(** Datagrams dropped because the buffer was full. *)
