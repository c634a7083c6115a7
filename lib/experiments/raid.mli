(** The redundancy bench: one streaming multi-writer load over a
    3-drive array, swept across RAID level (0/1/5) and server write
    gathering (on/off).

    The cell the sweep exists for is RAID-5 x gathering: synchronous
    8 KB WRITEs commit as chunk read-modify-writes, while gathered
    flushes hand the array contiguous runs long enough to cover whole
    parity rows — full-stripe commits that need no read phase. The
    committed [BENCH_raid.json] shows the full-stripe fraction rising
    when gathering is switched on.

    For the redundant levels each variant then fails member 1, reads a
    spread of blocks degraded (reconstructed from parity on RAID-5,
    failed over on RAID-1), streams writes into untouched space, and
    rebuilds the member online, re-verifying every sampled block
    byte-for-byte afterwards. *)

type config = {
  seed : int;
  members : int;
  member_capacity : int;
  chunk : int;
  writers : int;
  blocks_per_writer : int;
  nfsds : int;
  sample_blocks : int;
  degraded_write_blocks : int;
  rebuild_pace : Nfsg_sim.Time.t;
}

val default : config

type variant = { level : Nfsg_disk.Stripe.level; gather : bool }
(** One cell. {!run} walks six: each level with gathering off and on. *)

type redundancy = {
  degraded_read_blocks : int;
  degraded_read_mean_us : float;
  degraded_reads : int;
  degraded_writes : int;
  rebuild_ms : float;
  rebuild_chunks : int;
  rebuild_bytes : int;
  reverified : bool;
}

type row = {
  variant : variant;
  elapsed_ms : float;
  written_kb_s : float;
  member_transactions : int;
  full_stripe_writes : int;
  rmw_writes : int;
  full_stripe_fraction : float;
  redundancy : redundancy option;
}

val run : ?env:Rig.env -> ?cfg:config -> unit -> row list
(** Deterministic in [cfg] and [env]; one fresh simulated world per
    variant, built under [env] ({!Rig.default_env} by default). The
    array level is each variant's own; [env.scheduler] reaches the
    members. A row reads its world's own registry; [env.metrics]
    receives a copy of it once the world is done. *)

val bench_raid : ?env:Rig.env -> unit -> Nfsg_stats.Json.t
(** The committed [BENCH_raid.json] artifact ([nfsgather raid]): {!run}
    of {!default}, byte-diffed by CI. *)
