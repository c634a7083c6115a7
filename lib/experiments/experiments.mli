(** Every table and figure of the paper, regenerated.

    Each function builds fresh simulated worlds, runs the workload,
    and returns printable output. Every world is built under [env]
    (default {!Rig.default_env}). The experiment index lives in
    DESIGN.md; paper-vs-measured comparisons live in EXPERIMENTS.md. *)

val table1 : ?quick:bool -> ?env:Rig.env -> unit -> Nfsg_stats.Report.t
(** NFS 10MB file copy: Ethernet (biods 0/3/7/11/15). [quick] uses a
    2.5 MB file for fast smoke runs; shapes, not absolutes, change. *)

val table2 : ?quick:bool -> ?env:Rig.env -> unit -> Nfsg_stats.Report.t
(** Ethernet + Prestoserve. *)

val table3 : ?quick:bool -> ?env:Rig.env -> unit -> Nfsg_stats.Report.t
(** FDDI. *)

val table4 : ?quick:bool -> ?env:Rig.env -> unit -> Nfsg_stats.Report.t
(** FDDI + Prestoserve. *)

val table5 : ?quick:bool -> ?env:Rig.env -> unit -> Nfsg_stats.Report.t
(** FDDI, 3 striped drives (biods up to 23). *)

val table6 : ?quick:bool -> ?env:Rig.env -> unit -> Nfsg_stats.Report.t
(** FDDI + Prestoserve, 3 striped drives. *)

val figure1 : ?env:Rig.env -> unit -> string
(** Packet/disk timelines of a standard vs a gathering server for the
    4-biod sequential writer, >100K into the file. *)

val figure2 : ?quick:bool -> ?env:Rig.env -> unit -> Laddis_curve.curve * Laddis_curve.curve
(** LADDIS-style throughput/latency curves (without, with gathering),
    FDDI, no NVRAM: {!Laddis_curve.curve} over a fixed load list with
    a knee fraction of 0, so every load runs and each curve's
    [capacity] is its peak throughput. *)

val figure3 : ?quick:bool -> ?env:Rig.env -> unit -> Laddis_curve.curve * Laddis_curve.curve
(** Same with Prestoserve. *)

val render_laddis : title:string -> Laddis_curve.curve * Laddis_curve.curve -> string
(** Each curve's points, its peak throughput with that point's
    latency, and the capacity change with gathering. *)

(** {1 Ablations} (design choices the paper discusses) *)

val ablation_procrastination : ?quick:bool -> ?env:Rig.env -> unit -> Nfsg_stats.Report.t
(** Sweep the procrastination interval (section 6.6: "I wish I could
    say I know how to calculate the right number"). *)

val ablation_reply_order : ?quick:bool -> ?env:Rig.env -> unit -> Nfsg_stats.Report.t
(** FIFO vs the abandoned LIFO (section 6.7). *)

val ablation_latency_device : ?quick:bool -> ?env:Rig.env -> unit -> Nfsg_stats.Report.t
(** Procrastination vs the [SIVA93] first-write-as-latency-device
    variant (section 6.6), with and without NVRAM. *)

val ablation_mbuf_hunter : ?quick:bool -> ?env:Rig.env -> unit -> Nfsg_stats.Report.t
(** Socket-buffer scanning on/off under Prestoserve (section 6.5). *)

val ablation_dumb_pc : ?quick:bool -> ?env:Rig.env -> unit -> Nfsg_stats.Report.t
(** The 0-biod worst case across networks (section 6.10). *)

val ablation_disk_scheduler : ?quick:bool -> ?env:Rig.env -> unit -> Nfsg_stats.Report.t
(** FIFO vs C-LOOK elevator in the driver, under a random-access write
    load on the standard server — the per-spindle request-pattern point
    the paper makes against [SIVA93] (section 6.6). *)

(** {1 Extensions} (the paper's Future Work, built out) *)

val extension_learned_clients : ?quick:bool -> ?env:Rig.env -> unit -> Nfsg_stats.Report.t
(** Mogul's learned-client database (section 8): the dumb-PC penalty
    disappears while multi-biod clients keep the full gathering win. *)

val extension_v3 : ?quick:bool -> ?env:Rig.env -> unit -> Nfsg_stats.Report.t
(** NFS version 3 asynchronous writes + COMMIT vs version 2, against
    standard and gathering servers — the mixed environment the paper
    wonders about in section 8. *)

val extension_write_modes : ?quick:bool -> ?env:Rig.env -> unit -> Nfsg_stats.Report.t
(** Standard vs gathering vs "dangerous mode" (async volatile acks,
    section 4.3): what the shortcut buys, next to what the crash tests
    show it costs. *)

(** {1 Machine-readable bench} *)

val bench_writegather : ?quick:bool -> ?env:Rig.env -> ?total:int -> unit -> Nfsg_stats.Json.t
(** The paper's core comparison as one JSON document
    ([BENCH_writegather.json]): Standard vs Gathering vs
    Gathering+Prestoserve on the FDDI 7-biod sequential write workload.
    Each row carries client throughput, server CPU, the WRITE latency
    split (mean/p50/p99 µs, from the client-side per-procedure
    histograms), disk transactions (total, KB/s and per 8 KB write),
    metadata flushes saved, and the gather batch-size histogram.
    Deterministic: same [total], same bytes. [total] overrides the
    workload size (default: the [quick]-dependent file-copy size).
    Each row reads its own world's registry back; [env.metrics]
    receives a copy of it when the row's {!Rig.run} ends. *)
