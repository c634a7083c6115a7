open Nfsg_sim
open Nfsg_disk

let geometry = { (Disk.rz26 ~capacity:(8 * 1024 * 1024) ()) with Disk.track_bytes = 256 * 1024 }

let make n chunk =
  let eng = Engine.create () in
  let members = Array.init n (fun i -> Disk.create eng ~name:(Printf.sprintf "rz26-%d" i) geometry) in
  let dev = Stripe.device (Stripe.create eng ~chunk members) in
  (eng, members, dev)

let in_proc eng f =
  let r = ref None in
  Engine.spawn eng ~name:"test-driver" (fun () -> r := Some (f ()));
  Engine.run eng;
  match !r with Some v -> v | None -> Alcotest.fail "driver blocked"

let test_capacity () =
  let _, _, dev = make 3 8192 in
  Alcotest.(check int) "3x member capacity" (3 * 8 * 1024 * 1024) dev.Device.capacity

let test_roundtrip_spanning_chunks () =
  let eng, _, dev = make 3 8192 in
  in_proc eng (fun () ->
      let data = Bytes.init 65536 (fun i -> Char.chr ((i * 7) mod 256)) in
      dev.Device.write ~off:12_000 data;
      Alcotest.(check bytes) "roundtrip" data (dev.Device.read ~off:12_000 ~len:65536))

let test_distribution_across_members () =
  let eng, members, dev = make 3 8192 in
  in_proc eng (fun () ->
      (* 6 consecutive chunks land 2 on each member. *)
      dev.Device.write ~off:0 (Bytes.make (6 * 8192) 'd');
      Array.iter
        (fun m ->
          let s = m.Device.spindle_stats () in
          Alcotest.(check int) "2 chunks of bytes" (2 * 8192) s.Device.bytes_moved)
        members)

let test_parallel_speedup () =
  let time_with n =
    let eng, _, dev = make n 8192 in
    in_proc eng (fun () ->
        let t0 = Engine.now eng in
        dev.Device.write ~off:0 (Bytes.make (12 * 8192) 'p');
        Engine.now eng - t0)
  in
  let one = time_with 1 and three = time_with 3 in
  if three >= one then
    Alcotest.failf "no speedup from striping: 1 disk=%dns, 3 disks=%dns" one three

let test_stats_aggregate () =
  let eng, members, dev = make 2 8192 in
  in_proc eng (fun () ->
      dev.Device.write ~off:0 (Bytes.make (4 * 8192) 's');
      let agg = dev.Device.spindle_stats () in
      let manual =
        Array.fold_left (fun acc m -> Device.add_stats acc (m.Device.spindle_stats ())) Device.zero_stats members
      in
      Alcotest.(check int) "transactions" manual.Device.transactions agg.Device.transactions;
      (* Each member receives its two chunks as one batch of adjacent
         local writes, which the spindle scheduler coalesces into a
         single transaction — 2 members, 2 merged transactions. *)
      Alcotest.(check int) "2 merged member writes" 2 agg.Device.transactions;
      Alcotest.(check int) "bytes" (4 * 8192) agg.Device.bytes_moved)

let test_stable_paths () =
  let _, _, dev = make 3 4096 in
  let data = Bytes.init 20_000 (fun i -> Char.chr (i mod 251)) in
  dev.Device.stable_write ~off:5_000 data;
  Alcotest.(check bytes) "stable roundtrip" data (dev.Device.stable_read ~off:5_000 ~len:20_000)

let test_rejects_empty () =
  let eng = Engine.create () in
  Alcotest.check_raises "no members" (Invalid_argument "Stripe.create: no members") (fun () ->
      ignore (Stripe.create eng ~chunk:8192 [||]))

(* {1 Geometry validation} *)

let test_rejects_bad_geometry () =
  let eng = Engine.create () in
  let disk i cap = Disk.create eng ~name:(Printf.sprintf "gv-%d" i) (Disk.rz26 ~capacity:cap ()) in
  Alcotest.check_raises "unaligned chunk"
    (Invalid_argument "Stripe.create: chunk 1000 is not a multiple of the 512-byte sector")
    (fun () -> ignore (Stripe.create eng ~chunk:1000 [| disk 0 (1 lsl 20) |]));
  Alcotest.check_raises "non-positive chunk"
    (Invalid_argument "Stripe.create: chunk must be positive") (fun () ->
      ignore (Stripe.create eng ~chunk:0 [| disk 1 (1 lsl 20) |]));
  Alcotest.check_raises "mismatched capacities"
    (Invalid_argument
       "Stripe.create: member capacities differ (gv-2: 1048576 vs gv-3: 2097152)") (fun () ->
      ignore (Stripe.create eng ~chunk:8192 [| disk 2 (1 lsl 20); disk 3 (2 lsl 20) |]));
  Alcotest.check_raises "raid1 needs 2"
    (Invalid_argument "Stripe.create: raid1 needs at least 2 members") (fun () ->
      ignore (Stripe.create eng ~level:Stripe.Raid1 ~chunk:8192 [| disk 4 (1 lsl 20) |]));
  Alcotest.check_raises "raid5 needs 3"
    (Invalid_argument "Stripe.create: raid5 needs at least 3 members") (fun () ->
      ignore
        (Stripe.create eng ~level:Stripe.Raid5 ~chunk:8192 [| disk 5 (1 lsl 20); disk 6 (1 lsl 20) |]))

(* {1 Redundant levels} *)

let make_lvl ?(n = 3) ?(cap = 2 * 1024 * 1024) level chunk =
  let eng = Engine.create () in
  let g = { (Disk.rz26 ~capacity:cap ()) with Disk.track_bytes = 256 * 1024 } in
  let members = Array.init n (fun i -> Disk.create eng ~name:(Printf.sprintf "rz26-%d" i) g) in
  let metrics = Nfsg_stats.Metrics.create () in
  let arr = Stripe.create eng ~metrics ~level ~chunk members in
  (eng, members, arr, metrics)

let cval metrics name =
  Nfsg_stats.Metrics.(value (counter metrics ~ns:(Nfsg_stats.Names.Ns.raid "stripe") name))

let pattern len seed = Bytes.init len (fun i -> Char.chr ((i * 131 + seed) mod 256))

let xor_zero a b =
  let acc = Bytes.copy a in
  for i = 0 to Bytes.length b - 1 do
    Bytes.set acc i (Char.chr (Char.code (Bytes.get acc i) lxor Char.code (Bytes.get b i)))
  done;
  acc

(* Every RAID-5 row must XOR to zero across members (all-zero platters
   do initially; parity maintenance must preserve it). *)
let check_parity members chunk ~rows =
  for row = 0 to rows - 1 do
    let acc = ref (Bytes.make chunk '\000') in
    Array.iter
      (fun m -> acc := xor_zero !acc (m.Device.stable_read ~off:(row * chunk) ~len:chunk))
      members;
    if not (Bytes.equal !acc (Bytes.make chunk '\000')) then
      Alcotest.failf "parity invariant broken in row %d" row
  done

let test_raid1_roundtrip_and_mirror () =
  let eng, members, arr, _ = make_lvl Stripe.Raid1 8192 ~n:2 in
  let dev = Stripe.device arr in
  Alcotest.(check int) "raid1 capacity is one member" (2 * 1024 * 1024) dev.Device.capacity;
  in_proc eng (fun () ->
      let data = pattern 40_000 3 in
      dev.Device.write ~off:12_345 data;
      Alcotest.(check bytes) "roundtrip" data (dev.Device.read ~off:12_345 ~len:40_000));
  Array.iter
    (fun m ->
      Alcotest.(check bytes) "mirrored" (pattern 40_000 3) (m.Device.stable_read ~off:12_345 ~len:40_000))
    members

let test_raid1_read_balancing () =
  let eng, members, arr, _ = make_lvl Stripe.Raid1 8192 ~n:2 in
  let dev = Stripe.device arr in
  in_proc eng (fun () ->
      dev.Device.write ~off:0 (pattern 8192 5);
      for _ = 1 to 6 do
        ignore (dev.Device.read ~off:0 ~len:8192)
      done);
  Array.iter
    (fun m ->
      let s = m.Device.spindle_stats () in
      (* 6 reads dealt round-robin over 2 mirrors: 3 transactions each
         (plus the 1 mirrored write everywhere) *)
      if s.Device.transactions < 3 then
        Alcotest.failf "%s served only %d transactions for 6 reads" m.Device.name
          s.Device.transactions)
    members

(* Poll an online rebuild to its end, running [each] between polls. A
   row lock left held stalls the resilver for good, so the wait is
   bounded well above the 9-12 s of simulated time these rebuilds
   take: a stall fails the test instead of spinning forever. *)
let await_rebuild eng arr each =
  let deadline = Engine.now eng + Time.of_ms_f 60_000.0 in
  while Stripe.rebuild_active arr do
    if Engine.now eng > deadline then Alcotest.fail "rebuild still active after 60 s";
    each ();
    Engine.delay (Time.of_ms_f 1.0)
  done

let test_raid1_degraded_and_rebuild () =
  let eng, members, arr, metrics = make_lvl Stripe.Raid1 8192 ~n:2 in
  let dev = Stripe.device arr in
  let d1 = pattern 30_000 7 and d2 = pattern 30_000 11 in
  in_proc eng (fun () ->
      dev.Device.write ~off:0 d1;
      Stripe.fail_member arr 0;
      Alcotest.(check bool) "degraded" true (Stripe.degraded arr);
      (* reads fall over to the survivor, writes continue *)
      Alcotest.(check bytes) "degraded read" d1 (dev.Device.read ~off:0 ~len:30_000);
      dev.Device.write ~off:65_536 d2;
      Alcotest.(check bytes) "degraded read 2" d2 (dev.Device.read ~off:65_536 ~len:30_000);
      (* replacement arrives: resilver under a live read stream *)
      Stripe.rebuild arr ~member:0 ~pace:(Time.of_us_f 50.0);
      await_rebuild eng arr (fun () -> ignore (dev.Device.read ~off:65_536 ~len:4096));
      Alcotest.(check bool) "member active again" true (Stripe.member_state arr 0 = Stripe.Active));
  Alcotest.(check bytes) "resilvered old data" d1 (members.(0).Device.stable_read ~off:0 ~len:30_000);
  Alcotest.(check bytes) "resilvered degraded write" d2
    (members.(0).Device.stable_read ~off:65_536 ~len:30_000);
  Alcotest.(check bool) "rebuild completed counted" true
    (cval metrics Nfsg_stats.Names.rebuilds_completed = 1);
  Alcotest.(check bool) "degraded reads counted" true
    (cval metrics Nfsg_stats.Names.degraded_reads > 0)

let test_raid5_roundtrip_and_parity () =
  let eng, members, arr, _ = make_lvl Stripe.Raid5 8192 ~n:3 in
  let dev = Stripe.device arr in
  Alcotest.(check int) "raid5 capacity is n-1 members" (2 * 2 * 1024 * 1024) dev.Device.capacity;
  in_proc eng (fun () ->
      let data = pattern 100_000 13 in
      dev.Device.write ~off:5_000 data;
      Alcotest.(check bytes) "roundtrip" data (dev.Device.read ~off:5_000 ~len:100_000));
  check_parity members 8192 ~rows:32

let test_raid5_full_stripe_vs_rmw () =
  let eng, _, arr, metrics = make_lvl Stripe.Raid5 8192 ~n:3 in
  let dev = Stripe.device arr in
  in_proc eng (fun () ->
      (* one whole row, row-aligned: no read phase *)
      dev.Device.write ~off:0 (pattern (2 * 8192) 17);
      Alcotest.(check int) "full stripe" 1 (cval metrics Nfsg_stats.Names.full_stripe_writes);
      Alcotest.(check int) "no rmw yet" 0 (cval metrics Nfsg_stats.Names.rmw_writes);
      (* a half-chunk: read-modify-write *)
      dev.Device.write ~off:(4 * 8192) (pattern 4096 19);
      Alcotest.(check int) "rmw" 1 (cval metrics Nfsg_stats.Names.rmw_writes))

let test_raid5_degraded_and_rebuild () =
  let eng, members, arr, metrics = make_lvl Stripe.Raid5 8192 ~n:3 in
  let dev = Stripe.device arr in
  let d1 = pattern 60_000 23 and d2 = pattern 60_000 29 in
  in_proc eng (fun () ->
      dev.Device.write ~off:0 d1;
      Stripe.fail_member arr 1;
      (* reads reconstruct through parity *)
      Alcotest.(check bytes) "degraded read" d1 (dev.Device.read ~off:0 ~len:60_000);
      Alcotest.(check bool) "reconstructions counted" true
        (cval metrics Nfsg_stats.Names.degraded_reads > 0);
      (* writes log-and-continue: new data lands in parity *)
      dev.Device.write ~off:200_000 d2;
      Alcotest.(check bytes) "degraded write readback" d2 (dev.Device.read ~off:200_000 ~len:60_000);
      Stripe.rebuild arr ~member:1 ~pace:(Time.of_us_f 50.0);
      await_rebuild eng arr ignore;
      Alcotest.(check bool) "member active again" true (Stripe.member_state arr 1 = Stripe.Active);
      (* after the resilver the whole array serves directly again *)
      Alcotest.(check bytes) "post-rebuild read" d1 (dev.Device.read ~off:0 ~len:60_000);
      Alcotest.(check bytes) "post-rebuild read 2" d2 (dev.Device.read ~off:200_000 ~len:60_000));
  check_parity members 8192 ~rows:(2 * 1024 * 1024 / 8192)

let test_raid5_stable_paths_degraded () =
  let eng, members, arr, _ = make_lvl Stripe.Raid5 8192 ~n:3 in
  let dev = Stripe.device arr in
  ignore eng;
  let data = pattern 50_000 31 in
  dev.Device.stable_write ~off:7_000 data;
  Alcotest.(check bytes) "stable roundtrip" data (dev.Device.stable_read ~off:7_000 ~len:50_000);
  check_parity members 8192 ~rows:16;
  (* stable reads must reconstruct degraded, stable writes must keep
     parity: the filesystem's superblock/inode paths run on these *)
  Stripe.fail_member arr 0;
  Alcotest.(check bytes) "degraded stable read" data (dev.Device.stable_read ~off:7_000 ~len:50_000);
  let d2 = pattern 20_000 37 in
  dev.Device.stable_write ~off:300_000 d2;
  Alcotest.(check bytes) "degraded stable write readback" d2
    (dev.Device.stable_read ~off:300_000 ~len:20_000)

let suite =
  [
    Alcotest.test_case "capacity is sum of members" `Quick test_capacity;
    Alcotest.test_case "roundtrip across chunk boundaries" `Quick test_roundtrip_spanning_chunks;
    Alcotest.test_case "chunks deal round-robin" `Quick test_distribution_across_members;
    Alcotest.test_case "striping overlaps member service" `Quick test_parallel_speedup;
    Alcotest.test_case "stats aggregate members" `Quick test_stats_aggregate;
    Alcotest.test_case "stable read/write through layout" `Quick test_stable_paths;
    Alcotest.test_case "rejects empty member set" `Quick test_rejects_empty;
    Alcotest.test_case "rejects bad geometry" `Quick test_rejects_bad_geometry;
    Alcotest.test_case "raid1 roundtrip mirrors both members" `Quick test_raid1_roundtrip_and_mirror;
    Alcotest.test_case "raid1 reads balance across mirrors" `Quick test_raid1_read_balancing;
    Alcotest.test_case "raid1 degraded service and rebuild" `Quick test_raid1_degraded_and_rebuild;
    Alcotest.test_case "raid5 roundtrip keeps parity invariant" `Quick test_raid5_roundtrip_and_parity;
    Alcotest.test_case "raid5 counts full-stripe vs rmw" `Quick test_raid5_full_stripe_vs_rmw;
    Alcotest.test_case "raid5 degraded service and rebuild" `Quick test_raid5_degraded_and_rebuild;
    Alcotest.test_case "raid5 stable paths work degraded" `Quick test_raid5_stable_paths_degraded;
  ]
