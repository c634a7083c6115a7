(** Level-parameterized array driver over [n] member devices: RAID-0
    striping (the paper's "3 drive stripe set"), RAID-1 mirroring and
    RAID-5 rotating parity, on the tagged-request/barrier core.

    Every level shares one code path. A batch runs epoch by epoch through
    {!Io.epochs}, so at every level a barrier is strict across
    spindles: requests behind it are not released to {e any} member
    until everything ahead of it is stable on {e every} member, and a
    failure ahead of it fails everything behind it. RAID-0 adds no
    process: it issues a batch from the submitter and each later epoch
    from the completion of the one before. The redundant levels wait
    on member reads and row locks, so each of their batches runs in one
    process of its own.

    {b RAID-0} cuts the logical byte space into fixed-size chunks dealt
    round-robin across members; a request spanning several chunks is
    cut into per-member pieces, issued as one batch per member, and
    completes when every piece has.

    {b RAID-1} mirrors every write to all members and deals reads
    round-robin. With a member failed, reads fall over to the
    survivors and writes continue on whatever is left.

    {b RAID-5} uses a left-asymmetric rotating-parity layout: stripe
    row [s] keeps its parity chunk on member [n-1 - (s mod n)]. A
    partial-stripe write is a chunk-granularity read-modify-write
    (parity' = parity ⊕ old ⊕ new); a write covering a whole row skips
    the read phase and computes parity from the new data alone — the
    full-stripe commits that gathered flushes earn, counted separately
    ([raid.full_stripe_writes] vs [raid.rmw_writes]). Degraded reads
    reconstruct the dead chunk from parity and the surviving data;
    degraded writes fold the unwritable chunk's new contents into
    parity and continue.

    In-flight row commits are journalled in battery-backed controller
    memory: a power crash mid-commit replays them from stable ops on
    recovery, so data and parity (or two mirror sides) can never stay
    divergent — the classic RAID write hole, closed the way array
    controllers close it.

    An array lends no page ([stable_page] is {!Device.no_page}): a
    block's newest bytes live on its members, not in one page of the
    array's own.

    A failed member can be {!rebuild}t online: a background process
    resilvers it row by row with low-priority [`Bg_drain] requests
    while foreground service continues, the resilver cursor deciding
    which rows of the replacement already participate.

    Member [submit]s must be non-blocking (raw disks and fault wrappers
    are; an NVRAM front-end belongs above the array, not inside it). *)

type level = Raid0 | Raid1 | Raid5
type member_state = Active | Failed | Rebuilding

val level_name : level -> string

type t
(** One array: its {!device} and its management handle. *)

val create :
  Nfsg_sim.Engine.t ->
  ?name:string ->
  ?metrics:Nfsg_stats.Metrics.t ->
  ?level:level ->
  chunk:int ->
  Device.t array ->
  t
(** [create eng ~chunk members] — [level] defaults to [Raid0].
    Logical capacity is the member capacity rounded down to whole
    chunks, times the member count (RAID-0), times one (RAID-1) or
    times [n-1] (RAID-5). Counters register under the
    ["raid.<name>"] namespace for the redundant levels.

    Raises [Invalid_argument] on an empty member array, a chunk that
    is not a positive multiple of the 512-byte sector, members with
    differing capacities, or too few members for the level (RAID-1
    needs 2, RAID-5 needs 3). *)

val device : t -> Device.t
val level : t -> level

val member_state : t -> int -> member_state

val degraded : t -> bool
(** True while any member is not [Active]. *)

val fail_member : t -> int -> unit
(** Administratively fail-stop a member (as a fault injector's
    [fail_stop] does implicitly on its first error). Raises on RAID-0:
    there is nothing to continue with. *)

val rebuild : ?pace:Nfsg_sim.Time.t -> t -> member:int -> unit
(** Start resilvering a [Failed] member from the survivors (mirror
    copy for RAID-1, XOR of the other members for RAID-5), one chunk
    row at a time, [pace] apart (default 1ms), as [`Bg_drain]-class
    traffic. Returns immediately; {!rebuild_active} is true until the
    copy ends.
    The member becomes [Active] when the copy completes; a crash or a
    survivor failure aborts the copy and leaves it [Failed]. Raises
    [Invalid_argument] if the member is not [Failed], the array is
    crashed, or the survivors cannot source the copy. *)

val rebuild_active : t -> bool
