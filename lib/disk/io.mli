(** Asynchronous I/O requests — the submission currency of the storage
    stack.

    A {!req} describes one transfer; a batch of {!item}s handed to a
    device's [submit] is the unit of scheduling. Submission never
    waits for service: the device fills each request's [done_] ivar
    when the transfer is stable (or failed), and callers rendezvous
    with {!await}. This is what lets a whole gathered flush — data
    clusters, indirect blocks, the inode — sit in the device queue at
    once, where the elevator can actually sort, merge and overlap it.

    {2 Ordering}

    Within one submission, items are queued in list order. A
    {!item.Barrier} divides {e its own submission}: nothing of the
    same submission queued after the barrier is serviced before
    everything of that submission ahead of it is stable. That is the
    whole crash-ordering story — "metadata never lands before its
    data" is a data batch, a barrier, then the metadata writes, in one
    submission. Requests of {e other} submissions owe the barrier
    nothing: a device may reorder and merge them straight across it,
    so one file's flush ordering never serializes its neighbours'.

    {2 Failure}

    A failed request (fault injection, an erroring backing store)
    completes with its [error] set; {!await} re-raises it. A failure
    ahead of a barrier fails the barrier and everything queued behind
    it at that moment — the post-barrier items were ordered {e because}
    they depend on the earlier ones being stable, so they must not
    proceed (and complete with {!Nfsg_disk.Device.Io_error}-style
    errors their issuers already handle as retryable).

    {2 Contract for [submit] implementations}

    [submit] may charge submission-side time (an NVRAM admission wait,
    a copy delay) but must never block on the {e service} of what it
    enqueued. Completion callbacks registered with [Ivar.upon] run in
    the completer's context and must not block. *)

open Nfsg_sim

type op = Read | Write

type class_ = [ `Sync_write | `Gather_flush | `Bg_drain | `Read ]
(** Who is asking, for scheduler priority and fault addressing:
    latency-critical synchronous writes, gathered cluster flushes,
    background NVRAM drains, reads. *)

type req = {
  op : op;
  off : int;  (** device byte offset *)
  len : int;
  buf : Bytes.t;
      (** [Write]: the data, owned by the request (snapshot at build
          time); [Read]: the destination buffer the device fills. *)
  class_ : class_;
  done_ : unit Ivar.t;  (** filled when stable or failed *)
  mutable error : exn option;  (** set before [done_] on failure *)
}

type item = Req of req | Barrier of { done_ : unit Ivar.t }

val write_req : class_:class_ -> off:int -> Bytes.t -> req
(** The bytes become the request's buffer without copying: pass a
    snapshot the caller will not mutate. *)

val read_req : ?class_:class_ -> off:int -> len:int -> unit -> req
(** [class_] defaults to [`Read]; rebuild resilver reads pass
    [`Bg_drain] so they yield to foreground traffic in the queue. *)

val barrier : unit -> item

val class_name : class_ -> string

val complete : req -> unit
(** Fill [done_] successfully. Device side only. *)

val fail : req -> exn -> unit
(** Record [exn] and fill [done_]. Device side only. *)

val fail_item : item -> exn -> unit
(** {!fail} for requests; barriers complete without an error slot —
    their dependents discover failure from their own requests. *)

val item_done : item -> unit Ivar.t

val await : req -> unit
(** Block until complete; re-raise the recorded error if any. *)

val await_all : req list -> unit
(** Wait for {e every} request, then raise the first recorded error
    (in list order) if any — no request is abandoned in flight. *)

val await_barrier : item -> unit

(** {1 Blocking shims}

    [Device.read]/[Device.write] compatibility on top of any [submit]:
    build one request, submit it alone, await it. *)

val blocking_read : submit:(item list -> unit) -> off:int -> len:int -> Bytes.t

val blocking_write :
  submit:(item list -> unit) -> ?class_:class_ -> off:int -> Bytes.t -> unit
(** Copies [data] before submitting, preserving the historical
    [Device.write] contract that the caller keeps the buffer. *)
