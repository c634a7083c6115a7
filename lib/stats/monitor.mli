(** nfsmon: periodic top-like reporting of per-client-station activity.

    Reads the ["station.<client>"] counters the journey plane
    maintains and renders each interval's deltas (ops, KB, mean
    latency), busiest station first, plus plane health (long-op count,
    dropped long-op records). Driven entirely by the simulation clock:
    output is deterministic and byte-stable across identical runs.

    The monitor hands each interval's report to an [emit] callback — it
    never writes to stdout itself. *)

type t

val create :
  Nfsg_sim.Engine.t ->
  metrics:Metrics.t ->
  interval:Nfsg_sim.Time.t ->
  emit:(string -> unit) ->
  t

val start : t -> unit
(** Arm the interval timer: the first report covers [0, interval).
    While armed, the monitor keeps the event queue non-empty — the
    owner must {!stop} it when the driven load completes, or
    [Engine.run] will never return. *)

val stop : t -> unit
(** Cancel the timer. Idempotent. *)
