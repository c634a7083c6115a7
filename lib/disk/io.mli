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

type op =
  | Read of Bytes.t  (** the destination buffer, [len] bytes, which the device fills *)
  | Write of Bytes.t list
      (** The gather list: buffers whose lengths add up to [len], written
          to consecutive device offsets in list order. The request does
          not own them. Its issuer keeps them fixed from submission
          until [done_]: the buffer cache does so by copy-on-write,
          copying a busy block before it changes it, so no one
          snapshots a write. A device that needs the bytes beyond
          [done_], or in other pieces, copies them out with {!sub}. *)

type class_ = [ `Sync_write | `Gather_flush | `Bg_drain | `Read ]
(** Who is asking, for scheduler priority and fault addressing:
    latency-critical synchronous writes, gathered cluster flushes,
    background NVRAM drains, reads. *)

type req = {
  op : op;
  off : int;  (** device byte offset *)
  len : int;
  class_ : class_;
  done_ : unit Ivar.t;  (** filled when stable or failed *)
  mutable error : exn option;  (** set before [done_] on failure *)
}

type item = Req of req | Barrier of { done_ : unit Ivar.t }

val write_req : class_:class_ -> off:int -> Bytes.t list -> req
(** A write of the gather list, without copying it: the caller keeps
    the buffers fixed until the request completes. *)

val read_req : ?class_:class_ -> off:int -> Bytes.t -> req
(** [read_req ~off buf] reads [Bytes.length buf] bytes from [off] into
    [buf]: a read fills its issuer's buffer, which the issuer leaves
    alone until [done_]. [class_] defaults to [`Read]; rebuild resilver
    reads pass [`Bg_drain] so they yield to foreground traffic in the
    queue. *)

val barrier : unit -> item

val is_write : req -> bool

val read_buf : req -> Bytes.t
(** A read's destination buffer. Raises [Invalid_argument] on a
    write. *)

val sub : req -> pos:int -> len:int -> Bytes.t
(** [sub r ~pos ~len] is a fresh copy of bytes [pos, pos + len) of
    write [r]'s data, across its gather list: how a device that keeps
    or splits a write reads its buffers. Raises [Invalid_argument] on
    a read or outside [0, len]. *)

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

(** {1 Epochs}

    The barrier rule for a device that services a batch itself rather
    than queueing it: {!Stripe} at every level and {!Nvram}. {!Disk}
    keeps the rule as a fence in its request queue, and
    {!Nfsg_fault.Fault_disk} hands whole batches down without waiting
    on them. *)

val epochs : item list -> run:(req list -> (exn option -> unit) -> unit) -> unit
(** [epochs items ~run] cuts the batch at its barriers and services it
    one epoch (the requests between two barriers) at a time. It hands
    each epoch's requests, possibly none, to [run] with a continuation;
    [run] completes every request and then calls the continuation
    exactly once, with the epoch's first error if any. The continuation
    completes the barrier that closes the epoch, then starts the next
    epoch or, after an error, fails every item behind that barrier.
    [epochs] spawns nothing and never blocks by itself: [run] may call
    the continuation at once, in the submitting process (NVRAM, the
    redundant arrays), or later, from a member's completion callback
    (RAID-0). *)

(** {1 Blocking shims}

    [Device.read]/[Device.write] compatibility on top of any [submit]:
    build one request, submit it alone, await it. *)

val blocking_read : submit:(item list -> unit) -> off:int -> len:int -> Bytes.t

val blocking_write :
  submit:(item list -> unit) -> ?class_:class_ -> off:int -> Bytes.t -> unit
(** Copies [data] into a write of one buffer before submitting,
    preserving the historical [Device.write] contract that the caller
    keeps the buffer. *)
