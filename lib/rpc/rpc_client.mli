(** Client-side RPC over UDP with retransmission and adaptive backoff.

    One [t] per client host. A demultiplexing daemon matches incoming
    replies to outstanding calls by xid. Calls that time out are
    retransmitted with exponential backoff; the retransmission timer is
    seeded per {e operation class} — the paper's point that servers are
    judged by write (heavyweight), read (middleweight) and lookup
    (lightweight) performance, with write latency steering the client's
    view of the server.

    {b The client owns its call datagrams.} As a BSD client frees a
    request's mbuf chain once the reply arrives, a call answered on its
    first transmission gives its datagram back, and the client's next
    call of the same length is encoded into it. The rule that makes
    this safe: {e nobody keeps a call datagram, or a view into it,
    after its reply has been sent.} A server copies what it keeps (file
    data into the buffer cache, names into strings) before it replies;
    the mbuf hunter scans only datagrams still queued; a duplicating
    segment delivers its own copy ({!Nfsg_net.Segment.set_dup_prob}).
    A call that was retransmitted or timed out never gives its datagram
    back, since a copy may still be on the wire or in a socket buffer.
    Only datagrams over 256 words (2 KB on 64-bit), which the runtime
    allocates outside the minor heap, are kept, and the spares hold one
    length at a time: a datagram of another length replaces them
    ({!Spares}).

    {b The server owns its reply datagrams.} The rule runs the other way
    too: {e nobody keeps a reply datagram, or a view into it, after the
    call's decode has returned.} {!call_with} runs the caller's decode
    on the reply and then gives the datagram back to its sender
    ({!Nfsg_net.Socket.give_back}), which may encode a later reply into
    it ({!Svc}); a stale reply, whose call is no longer waiting, goes
    back at once. Each reply datagram reaches the client at most once:
    a duplicating segment and a duplicate-cache replay each send a copy
    of their own. The give-back costs no simulated time and counts
    nothing. *)

type t

type op_class = Light | Middle | Heavy

type params = {
  initial_rto : Nfsg_sim.Time.t;  (** default 1.1 s, as in the paper *)
  min_rto : Nfsg_sim.Time.t;
      (** floor for the adapted timer (default 500 ms — 1990s clients
          never retransmitted faster than a large fraction of a
          second) *)
  max_rto : Nfsg_sim.Time.t;
  max_attempts : int;  (** give up (raise {!Timeout}) after this many sends *)
}

val default_params : params

exception Timeout of int
(** Procedure number that exhausted its attempts. *)

val create :
  Nfsg_sim.Engine.t ->
  sock:Nfsg_net.Socket.t ->
  server:string ->
  ?params:params ->
  ?metrics:Nfsg_stats.Metrics.t ->
  unit ->
  t
(** [metrics] registers sent/retransmission/stale/timeout counters and
    the [rtt_us] round-trip histogram under namespace ["rpc.client"]
    (private registry when omitted). *)

val call_with :
  t ->
  ?klass:op_class ->
  ?prog:int ->
  proc:int ->
  (Xdr.Enc.t -> unit) ->
  (Rpc.accept_stat -> Xdr.view -> 'a) ->
  'a
(** [call_with t ~proc put_args decode]: blocking remote call whose
    arguments [put_args] writes straight into the datagram after the
    call header. Returns [decode stat body], where [body] is the reply
    body as a view into the reply datagram, valid only until [decode]
    returns: copy out of it whatever must outlive the call. Then, or
    when [decode] raises, the datagram goes back to its sender. [prog]
    defaults to {!Rpc.nfs_program}; pass {!Rpc.mount_program} to reach
    the mount service. Each transmission parks the caller
    ({!Nfsg_sim.Engine.park}) on a record that the demultiplexer fills
    with the reply, or that the retransmission timer expires. A decode
    built once, not per call, keeps the call from allocating it. *)

val call :
  t -> ?klass:op_class -> ?prog:int -> proc:int -> Bytes.t -> Rpc.accept_stat * Xdr.view
(** {!call_with} over already-encoded arguments, returning the reply
    body as a view over a copy of its own. *)

val rtt_estimate : t -> op_class -> Nfsg_sim.Time.t option
(** Smoothed RTT for the class, once at least one sample exists. *)

val retransmissions : t -> int

val spares : t -> int
(** Call datagrams given back and not yet reused. Never more than the
    calls that were in flight at once. *)
