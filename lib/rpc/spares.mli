(** Datagrams given back for reuse: one policy for both directions.

    The RPC client keeps the call datagrams its answered calls give
    back ({!Rpc_client}), and the server keeps the reply datagrams its
    clients give back ({!Svc}); each encodes its next datagram of the
    same length into one. Only datagrams over 256 words (2 KB on
    64-bit) are kept: the runtime allocates those outside the minor
    heap, so reusing one saves a major allocation, where keeping a
    smaller one would only promote it. The spares hold one length at a
    time, and a datagram of another length replaces them, so a datagram
    is allocated only when every spare of its length is in use, and the
    spares never outnumber the datagrams that were in use at once. *)

type t

val create : unit -> t

val take : t -> int -> Bytes.t
(** [take t n] is a spare of [n] bytes, or a new buffer when there is
    none. What it holds is stale: the encoder writes every byte. *)

val keeps : Bytes.t -> bool
(** Whether {!give_back} keeps a datagram of this length. *)

val give_back : t -> Bytes.t -> unit
(** The caller gives up the datagram: nobody may read or keep it, or a
    view into it, any more. It is kept if {!keeps} says so. *)

val length : t -> int
