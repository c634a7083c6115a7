(** Server-side RPC: the svc_run loop, the transport-handle cache, and
    the {e delayed reply} architecture of paper section 6.1.

    Each nfsd is a simulation process running the svc loop: take a
    datagram off the NFS socket, decode, consult the duplicate cache,
    and dispatch. The dispatch routine (the NFS server layer) returns
    either [Reply] — the nfsd sends it and recycles its transport
    handle — or [Reply_pending] — the dispatch arranges the reply itself
    through {!send_reply}: already sent, or left checked out for
    {e some other} nfsd to complete later; the original nfsd
    immediately takes a fresh handle from the cache and looks for more
    work. This is exactly the architectural change that
    lets one nfsd answer for another.

    {b The service owns its reply datagrams.} As a BSD server frees a
    reply's mbufs once they are sent, every reply is encoded into a
    datagram a client gave back when one of its length is spare
    ({!Spares}: over 256 words, one length at a time). The rule that
    makes this safe: {e nobody keeps a reply datagram, or a view into
    it, after the call's decode has returned} ({!Rpc_client.call_with}).
    Once a reply is sent, the service keeps it only as its duplicate
    cache entry's reply; a replay sends a copy, so each datagram is
    delivered at most once. A datagram that comes back
    ({!Nfsg_net.Socket.give_back}) while the cache still holds it waits
    for the cache to let the entry go ({!Dupcache.returned}); any other
    is spare at once. The give-back costs no simulated time and counts
    nothing. *)

type t

type transport
(** Checked-out transport handle: remembers the client address and xid
    a delayed reply must go to. *)

type disposition = Reply of Rpc.accept_stat * Bytes.t | Reply_pending

val create :
  Nfsg_sim.Engine.t ->
  sock:Nfsg_net.Socket.t ->
  ?dupcache:Dupcache.t ->
  ?on_duplicate_drop:(client:string -> Rpc.call -> unit) ->
  ?journeys:Nfsg_stats.Journey.plane ->
  ?metrics:Nfsg_stats.Metrics.t ->
  ?spares:Spares.t ->
  nfsds:int ->
  dispatch:(transport -> Rpc.call -> disposition) ->
  unit ->
  t
(** Spawns [nfsds] server daemons named nfsd0..n.

    [dispatch tr call] runs one admitted call. [call.body] is a view
    into the call datagram, which the client owns again once the reply
    is sent: the dispatch, and everything it hands the call to, must
    copy what it keeps before the reply goes out, and read nothing of
    the datagram after. Arguments that fail to decode are answered by
    letting {!Xdr.Decode_error} escape: the request is counted as
    garbage, its duplicate-cache entry is forgotten, and it gets
    [Garbage_args] with an empty body. Any other exception is a
    dispatch error, answered [System_err] the same way.

    [on_duplicate_drop]
    fires when an in-progress duplicate is discarded — the hook the
    write-gathering layer uses to avoid orphaned gathered writes
    (section 6.9). [journeys], when given, attaches a journey record to
    every admitted request (stamped at socket arrival, nfsd pickup and
    dupcache admission) and finishes it when the reply departs.
    [metrics] registers received/garbage/dispatch-error
    and duplicate drop/replay counters under namespace ["rpc.svc"]
    (private registry when omitted). [spares] are the reply datagrams
    the service encodes into and keeps what comes back in (new ones
    when omitted): a restarted server passes its crashed incarnation's
    on. The service takes the socket's {!Nfsg_net.Socket.on_given_back}
    hook and the cache's {!Dupcache.on_release}. *)

val encode_reply : t -> transport -> Rpc.accept_stat -> (Xdr.Enc.t -> unit) -> Bytes.t
(** The reply datagram for the handle's call: the reply header and the
    result the writer puts after it, in one buffer, a spare when one of
    its length is at hand. Encoding is all it does, so the result's
    bytes are fixed here even if the caller charges time before
    {!send_encoded}. *)

val send_encoded : t -> transport -> Bytes.t -> unit
(** Complete a delayed (or immediate) reply with a datagram from
    {!encode_reply}: transmit, record in the duplicate cache, recycle
    the handle. Usable from any process. Raises [Invalid_argument] if
    the handle was already replied to. *)

val send_reply : t -> transport -> Rpc.accept_stat -> Bytes.t -> unit
(** {!encode_reply} over an already-encoded result, then
    {!send_encoded}. *)

val client_of : transport -> string

val journey_of : transport -> Nfsg_stats.Journey.t option
(** The journey record attached when the request was admitted ([None]
    when the service was created without a journey plane). Layers below
    the dispatcher use this to stamp gather-plane and disk progress. *)

val handles_outstanding : t -> int
(** Handles checked out and not yet replied (pending writes). *)

val handle_cache_size : t -> int

val spares : t -> int
(** Reply datagrams given back and not yet reused. *)

val garbage_dropped : t -> int
(** Datagrams that were no call, dropped unanswered, plus calls whose
    arguments did not decode, answered [Garbage_args]: the
    ["rpc.svc"] [garbage] counter. *)

val dispatch_errors : t -> int
(** Dispatches that raised. Each was answered with [System_err] and had
    its in-progress duplicate-cache entry forgotten (so a client
    retransmission re-executes rather than being blackholed); the error
    reply itself is never cached. *)
