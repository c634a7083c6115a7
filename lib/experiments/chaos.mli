(** The chaos rig: deterministic fault plans composed over a live
    write workload, with the paper's crash-consistency promises checked
    as machine invariants.

    One {!run} builds a complete simulated installation (server over a
    fault-wrapped disk, optionally NVRAM-accelerated; several writer
    clients; one metadata mutator), then walks [cycles] fault cycles.
    Each cycle: a quiet phase carrying a burst of non-idempotent
    CREATE/REMOVE traffic, then a storm — a disk error window, a
    degraded-spindle or hung-controller window, a network partition
    isolating one writer, elevated datagram loss — ending in a full
    server crash and an in-simulation restart (volatile state dropped,
    NVRAM replay, remount, same address). Clients ride through on RPC
    retransmission. On the accelerated variant, one mid-run NVRAM
    battery failure degrades the device to synchronous pass-through
    (with an orderly drain) and a later repair restores it.

    Invariants checked:

    - {b no acked write lost}: every block whose WRITE reply the client
      saw is re-read and compared after each restart and once more at
      the end ([lost] must stay empty);
    - {b no non-idempotent re-execution}: with the duplicate cache on,
      no unique-name CREATE may come back [NFSERR_EXIST] and no
      once-removed name [NFSERR_NOENT] ([spurious_nonidem] = 0); the
      same run with [dupcache = false] is the control that shows the
      failure the cache exists to prevent;
    - {b reproducibility}: everything — fault instants, RNG draws,
      think times — derives from [seed], so equal configs give equal
      [timeline]s and equal [digest]s;
    - the final filesystem passes {!Nfsg_ufs.Fs.check}. *)

type config = {
  seed : int;
  cycles : int;  (** crash/restart cycles (the acceptance run uses 5) *)
  accel : bool;  (** NVRAM front plus a battery-failure episode *)
  dupcache : bool;
  writers : int;
  blocks_per_writer : int;
  burst_ops : int;  (** CREATE/REMOVE pairs per quiet phase *)
  loss_prob : float;  (** baseline datagram loss *)
  storm_loss_prob : float;  (** loss during fault windows *)
  dup_prob : float;  (** datagram duplication, the whole run *)
  nfsds : int;
}

val default : config

type result = {
  acked : int;  (** ledger size: writes acknowledged to a client *)
  lost : int list;  (** acked blocks that failed read-back — must be [] *)
  issued_creates : int;
  completed_creates : int;
  executed_creates : int;  (** server-side dispatches, all incarnations *)
  issued_removes : int;
  completed_removes : int;
  executed_removes : int;
  spurious_nonidem : int;  (** client-visible re-executions — 0 with dupcache *)
  crashes : int;
  restarts : int;
  flush_failures : int;  (** gathered batches failed with NFSERR_IO, all incarnations *)
  errors_injected : int;
  io_error_replies : int;  (** NFSERR_IO write replies clients retried through *)
  member_failures : int;
      (** array members fail-stopped over the run (0 without an array) *)
  rebuilds_completed : int;  (** online resilvers that ran to completion *)
  degraded_reads : int;  (** reads served by reconstruction or failover *)
  degraded_writes : int;  (** writes committed with a member missing *)
  trace_dropped : int;
      (** long-op records lost to wrap-around over every incarnation —
          the drop-safety audit term of the digest ([td=]) *)
  fsck_errors : string list;
  timeline : string list;  (** timestamped fault/verification log *)
  digest : string;  (** hex digest of timeline + ledger + counters *)
}

val run : ?env:Rig.env -> config -> result
(** Deterministic in [config] and [env] ({!Rig.default_env} by
    default). The world is built by {!Rig}, so the env reaches it:

    - [env.scheduler] is every spindle's I/O scheduling policy; the
      crash promises must hold under all of Fifo, Elevator and
      Deadline;
    - [env.raid_level] serves from an array instead of the classic
      single spindle: 2 members for RAID-1, 3 otherwise, each behind
      its own fault injector. On the redundant levels every cycle's
      fault plan grows: one member fail-stops during the storm, the
      crash and restart happen degraded, and after verification the
      member is replaced and resilvered online — with the server
      crashed {e mid-rebuild} on odd cycles. The no-acked-write-lost
      ledger, the duplicate-cache invariant and the digest
      reproducibility are asserted across all of it;
    - [env.metrics] receives a copy of the run's registry once the run
      is over (both server incarnations share it across restarts), so
      a run's metrics JSON is as reproducible as its digest;
    - the monitor and long-op settings apply as in {!Rig.run}. *)

val pp_result : Format.formatter -> result -> unit
