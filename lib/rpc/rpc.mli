(** SunRPC (RFC 1057) message framing over UDP datagrams.

    Only the slice of the protocol NFS v2 needs: AUTH_NULL credentials,
    accepted/success replies plus the error accept-states the server
    actually generates. *)

type call = {
  xid : int;
  prog : int;
  vers : int;
  proc : int;
  body : Xdr.view;  (** procedure-specific arguments, already XDR — a window into the datagram *)
}

type accept_stat = Success | Prog_unavail | Proc_unavail | Garbage_args | System_err

type reply = { rxid : int; stat : accept_stat; rbody : Xdr.view }

val encode_call_with :
  ?buffer:(int -> Bytes.t) ->
  xid:int ->
  prog:int ->
  vers:int ->
  proc:int ->
  (Xdr.Enc.t -> unit) ->
  Bytes.t
(** The call header and then whatever [put_body] writes, in one exactly
    sized buffer: the datagram. [buffer] supplies that buffer, as in
    {!Xdr.Enc.encode}: how {!Rpc_client} encodes a call into a datagram
    an earlier call gave back. *)

val encode_call : call -> Bytes.t
(** {!encode_call_with} over an already-encoded body. *)

val decode_call : Bytes.t -> call
(** Raises {!Xdr.Decode_error} on garbage. *)

val encode_reply_with :
  ?buffer:(int -> Bytes.t) -> xid:int -> stat:accept_stat -> (Xdr.Enc.t -> unit) -> Bytes.t
(** The accepted-reply header and then the result [put_body] writes, in
    one exactly sized buffer, which [buffer] supplies as in
    {!encode_call_with}: how {!Svc} encodes a reply into a datagram a
    client gave back. *)

val encode_reply : reply -> Bytes.t
val decode_reply : Bytes.t -> reply

val xid_of : Bytes.t -> int
(** The xid a message of at least 4 bytes opens with, call or reply. *)

val is_call : Bytes.t -> bool
(** Cheap test: does this datagram look like an RPC call? (For the
    mbuf hunter, which must classify raw socket-buffer contents.) *)

val peek_call : Bytes.t -> call option
(** Non-raising decode, for scanning. *)

val nfs_program : int
val nfs_version : int

val mount_program : int
(** The MOUNT service (100005), multiplexed over the same socket as
    NFS; used to resolve an export name to a root filehandle. *)
