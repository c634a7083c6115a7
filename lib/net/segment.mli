(** Shared network segment (an Ethernet or an FDDI ring).

    All stations on a segment share one medium: transmissions are
    serialised in FIFO order, so a busy network delays everyone — the
    paper's "network interface capacity" limit. A datagram is
    fragmented into MTU-sized transport units; its wire time covers
    payload, per-fragment header bytes and a per-fragment fixed gap
    (preamble / token rotation), and it is delivered whole to the
    destination socket one propagation latency after the last fragment
    leaves the wire.

    Delivery is into a bounded socket buffer; datagrams arriving at a
    full buffer are dropped, exactly like the fixed-size NFS socket
    buffer of a reference-port server ("if the queue fills then some
    incoming requests may be lost"). Random loss can be injected on
    top.

    {b Fault injection.} Loss probability is runtime-adjustable
    ({!set_loss_prob}); datagrams can be probabilistically duplicated
    ({!set_dup_prob}); and time-windowed {!partition}s black out all
    traffic between an address pair until they expire. All draws come
    from the segment's seeded RNG, so a fault schedule is bit-for-bit
    reproducible. *)

type params = {
  bandwidth : float;  (** bits per second *)
  mtu : int;  (** payload bytes per fragment *)
  frag_overhead_bytes : int;  (** wire header bytes per fragment *)
  frag_gap : Nfsg_sim.Time.t;  (** fixed medium time per fragment *)
  latency : Nfsg_sim.Time.t;  (** propagation + interface latency *)
  loss_prob : float;  (** independent drop probability per datagram *)
}

val ethernet : params
(** 10 Mb/s, MTU 1500 — the paper's private Ethernet. *)

val fddi : params
(** 100 Mb/s, MTU 4352 — the paper's FDDI ring. *)

type t

val create : Nfsg_sim.Engine.t -> ?seed:int -> ?metrics:Nfsg_stats.Metrics.t -> params -> t
(** [metrics] registers sent/lost/duplicated/blackholed datagram and
    byte counters under namespace ["net"] (private registry when
    omitted). *)

val engine : t -> Nfsg_sim.Engine.t

val fragments_of : params -> int -> int
(** Number of transport units a datagram of the given payload size
    needs. *)

val wire_time : params -> int -> Nfsg_sim.Time.t
(** Medium occupancy for one datagram of the given payload size. *)

(** {1 Fault controls} *)

val set_loss_prob : t -> float -> unit
(** Change the independent per-datagram drop probability mid-run.
    Needs [0 <= p < 1]. *)

val set_dup_prob : t -> float -> unit
(** Probability a delivered datagram is delivered a second time (one
    extra propagation latency later). Needs [0 <= p < 1]. The second
    delivery is a copy of its own, taken when the original leaves the
    wire, so every buffer sent is delivered at most once: a client may
    reuse a call's buffer once the call is answered
    ([Nfsg_rpc.Rpc_client]), and a server a reply's once its client
    gives it back ([Nfsg_rpc.Svc]). *)

val partition : t -> a:string -> b:string -> until:Nfsg_sim.Time.t -> unit
(** Black out all traffic between addresses [a] and [b] (both
    directions) until the absolute instant [until]. Re-partitioning a
    pair replaces its window. *)

val partitioned : t -> a:string -> b:string -> bool

(** {1 Statistics} *)

val datagrams_sent : t -> int
val datagrams_lost : t -> int
(** Lost to injected random loss (socket-buffer drops are counted at
    the socket). *)

val datagrams_duplicated : t -> int
val datagrams_blackholed : t -> int
(** Swallowed by an active partition window. *)

val busy_time : t -> Nfsg_sim.Time.t

val station_drops : t -> (string * int) list
(** Per-station receive-buffer overflow drops, sorted by address — the
    receiver-side loss {!datagrams_lost} does not see, so reports can
    tell wire loss from rcvbuf overflow. *)

(**/**)

(* Internal plumbing shared with Socket. *)

type station = {
  addr : string;
  deliver : src:string -> Bytes.t -> unit;
  rx_fragment : bytes:int -> unit;
  buffer_drops : unit -> int;
  given_back : src:string -> Bytes.t -> unit;
      (** a datagram this station sent, back from its receiver [src] *)
}

val attach : t -> station -> unit
val detach : t -> string -> unit
val transmit : t -> src:string -> dst:string -> Bytes.t -> unit

val give_back : t -> src:string -> dst:string -> Bytes.t -> unit
(** Hand a datagram that [src] received from [dst] back to [dst]'s
    station, or drop it if [dst] has left the segment. It costs no
    simulated time, schedules no event and counts nothing: it is
    bookkeeping of the simulator's own memory, like the spares it
    feeds. *)
