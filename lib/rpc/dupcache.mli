(** Duplicate request cache ([JUSZ89]: "Improving the Performance and
    Correctness of an NFS Server").

    Keyed by (client address, xid). A request seen while the same
    request is {e in progress} is dropped; a request whose reply was
    sent recently gets the cached reply retransmitted instead of being
    re-executed — essential for non-idempotent operations under client
    retransmission.

    {b The cache holds the reply datagrams it may replay.} Once a reply
    is sent, its server keeps it only as its entry's reply. A replay
    sends a copy ({!Svc}), so each reply datagram is delivered at most
    once, and its client gives it back once the call's decode has
    returned ({!Rpc_client.call_with}), at no simulated cost: no time,
    no event, no counter. If the cache still holds it
    then, the entry is marked ({!returned}), and the datagram goes to
    {!on_release} when the cache lets the entry go: on eviction,
    expiry, re-admission after the TTL, {!forget} or {!clear}. Until
    then nobody may reuse it. *)

type t

type verdict =
  | New  (** execute it (now marked in-progress) *)
  | In_progress  (** drop: an nfsd is already on it *)
  | Replay of Bytes.t
      (** retransmit this cached reply: a copy, since the cache keeps
          the datagram *)

val create :
  Nfsg_sim.Engine.t ->
  ?capacity:int ->
  ?ttl:Nfsg_sim.Time.t ->
  ?metrics:Nfsg_stats.Metrics.t ->
  unit ->
  t
(** [capacity] is a hard bound on entries; [ttl] is how long a completed
    reply stays replayable (default 6 s). Admitting a new request first
    drops TTL-expired completed entries, then evicts least-recently
    touched completed entries (oldest first, ties broken by client then
    xid) until the table is under capacity. Completed entries sit on two
    rings threaded through the entries, one in touch order and one in
    completion order, so admitting, completing, expiring and evicting
    are O(1) each (a touch walks only past entries touched at the same
    instant) and scan nothing. Beyond its lookup key, a call allocates
    at most a new request's entry. In-flight entries are never
    evicted; if every slot is in flight the new request executes
    {e uncached} (an overflow) rather than growing the table. [metrics]
    registers drop/replay/eviction/expiration/overflow counters under
    namespace ["rpc.dupcache"] (private registry when omitted). *)

val admit : t -> client:string -> xid:int -> verdict

val complete : t -> client:string -> xid:int -> Bytes.t -> unit
(** Record the encoded reply for future replays. *)

val forget : t -> client:string -> xid:int -> unit
(** Drop an in-progress entry without a reply (e.g. dispatch failed
    before a reply existed). *)

val returned : t -> client:string -> xid:int -> Bytes.t -> bool
(** [returned t ~client ~xid datagram]: [client] gave back a reply
    datagram for [xid]. [true] when the cache holds that very buffer
    ([==]) as the entry's reply: the entry is marked, and the buffer
    goes to {!on_release} when the entry goes. [false] when it holds
    something else or nothing, and the caller may reuse the buffer at
    once. *)

val on_release : t -> (Bytes.t -> unit) -> unit
(** Where a marked entry's reply goes when the cache lets the entry go
    (nowhere until set). {!Svc.create} points it at its spares. *)

val clear : t -> unit
(** Let every entry go, as a crash loses them: the cache replays
    nothing it held before, and every marked reply is released. *)

val entries : t -> int
val drops : t -> int
(** Requests dropped as in-progress duplicates. *)

val replays : t -> int

val evictions : t -> int
(** Completed entries evicted to make room (TTL expirations not
    included). *)

val overflows : t -> int
(** Requests executed uncached because every slot held an in-flight
    request. *)
