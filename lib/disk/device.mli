(** Block-device abstraction shared by the raw disk, the stripe driver
    and the NVRAM accelerator.

    A device stores real bytes: reads return what was written, and the
    stable/volatile split is explicit so crash-recovery invariants can
    be tested rather than asserted.

    Calls to {!read} and {!write} block the calling simulation process
    for the device's modelled service time. Draining an NVRAM board to
    its platter is an operation of the board ({!Nvram.drain}), not of
    the device. *)

type stats = {
  transactions : int;  (** physical spindle transactions completed *)
  bytes_moved : int;  (** bytes across all spindle transactions *)
  busy_time : Nfsg_sim.Time.t;  (** cumulative spindle busy time *)
}

exception Io_error of string
(** A transient I/O failure: the transaction was not performed (or not
    completed) and the data involved is {e not} on stable storage. Only
    raised by fault-injecting device wrappers ({!Nfsg_fault.Fault_disk})
    and by devices whose backing store reports one; callers must treat
    it as retryable and must not assume any state change. *)

type t = {
  name : string;
  capacity : int;  (** device size in bytes *)
  accelerated : unit -> bool;
      (** true when fronted by (healthy) NVRAM — the server write layer
          queries this per-operation to pick its policy (paper section
          6.3). Dynamic so an NVRAM battery failure can degrade the
          device to synchronous pass-through mid-run. *)
  submit : Io.item list -> unit;
      (** Queue a batch of tagged requests ({!Io.item}) for service,
          in list order, without waiting for completion — the device
          fills each request's [done_] when it is stable (or failed).
          May charge submission-side time (NVRAM admission) but never
          blocks on service. Barrier items order the queue; see
          {!Io}. *)
  read : off:int -> len:int -> Bytes.t;
  write : off:int -> Bytes.t -> unit;
      (** On return the data is on {e stable} storage (platter or
          NVRAM). May raise {!Io_error}. Thin blocking shims over
          {!submit} ({!Io.blocking_read}/{!Io.blocking_write}); new
          code outside lib/disk and lib/ufs goes through [submit]
          (lint rule I001). *)
  crash : unit -> unit;
      (** Power loss: volatile state and queued-but-unserviced requests
          are dropped. Platter and NVRAM survive. *)
  recover : unit -> unit;
      (** Post-crash recovery, e.g. NVRAM replay onto the platter.
          Instantaneous (happens "during downtime"). *)
  spindle_stats : unit -> stats;
      (** Aggregated over all underlying physical spindles — this is
          what the paper's "server disk trans/sec" rows count. *)
  stable_read : off:int -> len:int -> Bytes.t;
      (** Instantaneous view of stable storage (platter plus NVRAM);
          for recovery and test assertions. *)
  stable_write : off:int -> Bytes.t -> unit;
      (** Instantaneous write to the platter; for recovery replay and
          test seeding only — consumes no simulated time. *)
  stable_page : off:int -> Bytes.t;
      (** [stable_page ~off] lends the device's own bytes for
          [[off, off + page_bytes)], where {!page_bytes} is 8 KB, or
          returns [Bytes.empty] when the device holds no such page of
          its own. Allocates nothing and consumes no simulated time.

          A lent page is stable storage. Its borrower reads it and
          never writes into it. Its bytes change only when a write of
          its range lands on the device. A borrower takes a page only
          while it holds the page's bytes and no write of the range it
          issued is outstanding (the device may land two writes of one
          range in either order), and issues later writes only from a
          private copy. So a page lent to the buffer
          cache as a clean block reads like the private clean copy it
          replaces, for as long as the block stays clean. *)
}

val page_bytes : int
(** The size of a lent page: 8 KB, one filesystem block. *)

val no_page : off:int -> Bytes.t
(** [stable_page] for a device whose newest bytes are not held in one
    page of its own (NVRAM, a stripe set): always [Bytes.empty]. *)

val zero_stats : stats
val add_stats : stats -> stats -> stats
