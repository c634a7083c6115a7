open Nfsg_sim
module Disk = Nfsg_disk.Disk
module Device = Nfsg_disk.Device
module Io = Nfsg_disk.Io
module Stripe = Nfsg_disk.Stripe
module Server = Nfsg_core.Server
module Client = Nfsg_nfs.Client
module Metrics = Nfsg_stats.Metrics
module Names = Nfsg_stats.Names
module Json = Nfsg_stats.Json

(* The redundancy comparison: the same multi-writer streaming load over
   a 3-drive array, once per RAID level, with write gathering on and
   off. The interesting cell is RAID-5 x gathering: individual 8 KB
   WRITEs commit as chunk read-modify-writes, while a gathered flush
   hands the array runs long enough to cover whole parity rows — the
   full-stripe commits that skip the read phase entirely. The bench
   then fails one member of each redundant array, serves reads and
   writes degraded, and rebuilds it online under measurement. *)

type config = {
  seed : int;
  members : int;  (** spindles per array *)
  member_capacity : int;
  chunk : int;
  writers : int;
  blocks_per_writer : int;  (** 8 KB blocks streamed per writer *)
  nfsds : int;
  sample_blocks : int;  (** blocks read back healthy/degraded/rebuilt *)
  degraded_write_blocks : int;  (** blocks written while degraded *)
  rebuild_pace : Time.t;
}

let default =
  {
    seed = 1994;
    members = 3;
    member_capacity = 6 * 1024 * 1024;
    chunk = 8192;
    writers = 4;
    blocks_per_writer = 48;
    nfsds = 8;
    sample_blocks = 16;
    degraded_write_blocks = 8;
    rebuild_pace = Time.of_us_f 200.0;
  }

type variant = { level : Stripe.level; gather : bool }

let variants =
  [
    { level = Stripe.Raid0; gather = false };
    { level = Stripe.Raid0; gather = true };
    { level = Stripe.Raid1; gather = false };
    { level = Stripe.Raid1; gather = true };
    { level = Stripe.Raid5; gather = false };
    { level = Stripe.Raid5; gather = true };
  ]

type redundancy = {
  degraded_read_blocks : int;
  degraded_read_mean_us : float;
  degraded_reads : int;  (** reconstructed / failed-over reads (counter) *)
  degraded_writes : int;  (** writes committed with a member missing *)
  rebuild_ms : float;
  rebuild_chunks : int;
  rebuild_bytes : int;
  reverified : bool;  (** sample blocks byte-equal healthy/degraded/rebuilt *)
}

type row = {
  variant : variant;
  elapsed_ms : float;
  written_kb_s : float;
  member_transactions : int;
  full_stripe_writes : int;
  rmw_writes : int;
  full_stripe_fraction : float;
  redundancy : redundancy option;  (** [None] for RAID-0 *)
}

let bs = 8192
let block w b = Bytes.init bs (fun j -> Char.chr ((j + (31 * w) + (131 * b)) mod 251))

(* One world per variant: same seed, same offered traffic; only the
   array level and the server's write layer differ. The server keeps
   the uncalibrated default CPU costs. *)
let run_variant ?(env = Rig.default_env) cfg v =
  let spec =
    {
      Rig.default_spec with
      Rig.seed = cfg.seed lxor 0x3a7;
      nfsds = cfg.nfsds;
      gathering = v.gather;
      server_overrides = (fun c -> { c with Server.costs = Server.default_config.Server.costs });
    }
  in
  let world = Rig.world ~env spec in
  let eng = world.Rig.eng and metrics = world.Rig.metrics in
  let members =
    Array.init cfg.members (fun i ->
        Disk.create eng
          ~name:(Printf.sprintf "m%d" i)
          ~metrics ?scheduler:env.Rig.scheduler
          (Disk.rz26 ~capacity:cfg.member_capacity ()))
  in
  let arr =
    Stripe.create eng ~name:"array" ~metrics ~level:v.level ~chunk:cfg.chunk members
  in
  let device = Stripe.device arr in
  let rig = Rig.serve world ~disks:members [ device ] in

  let writers_done = ref 0 in
  let tick = Time.of_ms_f 5.0 in
  let rec wait_for pred = if not (pred ()) then begin Engine.delay tick; wait_for pred end in
  let writer w () =
    let client = Rig.new_client rig (Printf.sprintf "w%d" w) in
    let root = Rig.root rig in
    let fh, _ = Client.create_file client root (Printf.sprintf "f%d" w) in
    let f = Client.open_file client fh in
    for b = 0 to cfg.blocks_per_writer - 1 do
      Client.write f ~off:(b * bs) (block w b)
    done;
    Client.close f;
    incr writers_done
  in

  let counter = Metrics.count metrics ~ns:(Names.Ns.raid "array") in
  let elapsed, redundancy =
    Rig.run rig (fun () ->
        let t0 = Engine.now eng in
        for w = 0 to cfg.writers - 1 do
          Engine.spawn eng ~name:(Printf.sprintf "writer%d" w) (writer w)
        done;
        wait_for (fun () -> !writers_done = cfg.writers);
        let elapsed = Engine.now eng - t0 in
        (* Degraded service and online rebuild, straight at the array:
           read a spread of blocks healthy, fail a member, read them
           again (reconstructed or failed over), stream some writes into
           untouched space, then resilver the member and re-verify. *)
        if v.level = Stripe.Raid0 then (elapsed, None)
        else begin
          let submit = device.Device.submit in
          (* Stride coprime to the row width so the samples cycle through
             every member's data chunks, including the failed one. *)
          let sample i = i * 5 * cfg.chunk in
          let read_samples () =
            Array.init cfg.sample_blocks (fun i -> Io.blocking_read ~submit ~off:(sample i) ~len:bs)
          in
          let healthy = read_samples () in
          Stripe.fail_member arr 1;
          let d0 = Engine.now eng in
          let degraded = read_samples () in
          let read_mean_us =
            Time.to_sec_f (Engine.now eng - d0) *. 1e6 /. float_of_int cfg.sample_blocks
          in
          let wbase = device.Device.capacity / 2 in
          for k = 0 to cfg.degraded_write_blocks - 1 do
            Io.blocking_write ~submit ~class_:`Sync_write ~off:(wbase + (k * bs)) (block 99 k)
          done;
          Stripe.rebuild ~pace:cfg.rebuild_pace arr ~member:1;
          let r0 = Engine.now eng in
          wait_for (fun () -> not (Stripe.rebuild_active arr));
          let rebuild_ms = Time.to_ms_f (Engine.now eng - r0) in
          let rebuilt = read_samples () in
          let reverified =
            Stripe.member_state arr 1 = Stripe.Active
            && Array.for_all2 Bytes.equal healthy degraded
            && Array.for_all2 Bytes.equal healthy rebuilt
          in
          ( elapsed,
            Some
              {
                degraded_read_blocks = cfg.sample_blocks;
                degraded_read_mean_us = read_mean_us;
                degraded_reads = counter Names.degraded_reads;
                degraded_writes = counter Names.degraded_writes;
                rebuild_ms;
                rebuild_chunks = counter Names.rebuild_chunks;
                rebuild_bytes = counter Names.rebuild_bytes;
                reverified;
              } )
        end)
  in
  let fsw = counter Names.full_stripe_writes and rmw = counter Names.rmw_writes in
  let written = cfg.writers * cfg.blocks_per_writer * bs in
  {
    variant = v;
    elapsed_ms = Time.to_ms_f elapsed;
    written_kb_s = float_of_int written /. 1024.0 /. Time.to_sec_f (Stdlib.max 1 elapsed);
    member_transactions = (Rig.spindle_stats rig).Device.transactions;
    full_stripe_writes = fsw;
    rmw_writes = rmw;
    full_stripe_fraction =
      (if fsw + rmw = 0 then 0.0 else float_of_int fsw /. float_of_int (fsw + rmw));
    redundancy;
  }

let run ?env ?(cfg = default) () = List.map (run_variant ?env cfg) variants

(* {1 BENCH_raid.json}

   The committed artifact CI regenerates and diffs, like the other
   bench JSON files: one fixed workload, byte-deterministic output. *)

let bench_raid ?env () =
  let rows = run ?env () in
  let json_row r =
    Json.Obj
      [
        ("level", Json.String (Stripe.level_name r.variant.level));
        ("gather", Json.Bool r.variant.gather);
        ("elapsed_ms", Json.Float r.elapsed_ms);
        ("written_kb_s", Json.Float r.written_kb_s);
        ("member_transactions", Json.Int r.member_transactions);
        ("full_stripe_writes", Json.Int r.full_stripe_writes);
        ("rmw_writes", Json.Int r.rmw_writes);
        ("full_stripe_fraction", Json.Float r.full_stripe_fraction);
        ( "redundancy",
          match r.redundancy with
          | None -> Json.Null
          | Some d ->
              Json.Obj
                [
                  ("degraded_read_blocks", Json.Int d.degraded_read_blocks);
                  ("degraded_read_mean_us", Json.Float d.degraded_read_mean_us);
                  ("degraded_reads", Json.Int d.degraded_reads);
                  ("degraded_writes", Json.Int d.degraded_writes);
                  ("rebuild_ms", Json.Float d.rebuild_ms);
                  ("rebuild_chunks", Json.Int d.rebuild_chunks);
                  ("rebuild_bytes", Json.Int d.rebuild_bytes);
                  ("reverified", Json.Bool d.reverified);
                ] );
      ]
  in
  Json.Obj
    [
      ("schema", Json.String "nfsgather-bench/1");
      ("bench", Json.String "raid");
      ( "workload",
        Json.Obj
          [
            ("net", Json.String "fddi");
            ("members", Json.Int default.members);
            ("member_capacity", Json.Int default.member_capacity);
            ("chunk", Json.Int default.chunk);
            ("writers", Json.Int default.writers);
            ("blocks_per_writer", Json.Int default.blocks_per_writer);
            ("nfsds", Json.Int default.nfsds);
            ("seed", Json.Int default.seed);
          ] );
      ("rows", Json.List (List.map json_row rows));
    ]
