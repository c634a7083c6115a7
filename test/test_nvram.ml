open Nfsg_sim
open Nfsg_disk

let geometry = { (Disk.rz26 ~capacity:(16 * 1024 * 1024) ()) with Disk.track_bytes = 256 * 1024 }

let make ?(params = Nvram.default_params) () =
  let eng = Engine.create () in
  let disk = Disk.create eng geometry in
  let board, dev = Nvram.create eng ~params disk in
  (eng, disk, board, dev)

let in_proc eng f =
  let r = ref None in
  Engine.spawn eng ~name:"test-driver" (fun () -> r := Some (f ()));
  Engine.run eng;
  match !r with Some v -> v | None -> Alcotest.fail "driver blocked"

let test_accelerated_flag () =
  let _, disk, _, dev = make () in
  Alcotest.(check bool) "disk raw" false (disk.Device.accelerated ());
  Alcotest.(check bool) "presto" true (dev.Device.accelerated ())

let test_accepted_write_is_fast_and_stable () =
  let eng, disk, _, dev = make () in
  in_proc eng (fun () ->
      let t0 = Engine.now eng in
      dev.Device.write ~off:0 (Bytes.make 8192 'p');
      let elapsed = Engine.now eng - t0 in
      (* NVRAM copy must be far below a disk op (~1ms). *)
      if elapsed > Time.ms 1 then Alcotest.failf "NVRAM write too slow: %dns" elapsed;
      (* Stable immediately, even though the platter may not have it. *)
      Alcotest.(check bytes) "stable view" (Bytes.make 8192 'p') (dev.Device.stable_read ~off:0 ~len:8192);
      ignore disk)

let test_declined_write_goes_to_disk () =
  let eng, disk, _, dev = make () in
  in_proc eng (fun () ->
      let t0 = Engine.now eng in
      dev.Device.write ~off:0 (Bytes.make 65536 'q');
      let elapsed = Engine.now eng - t0 in
      (* Must cost real disk time. *)
      if elapsed < Time.ms 5 then Alcotest.failf "declined write too fast: %dns" elapsed;
      Alcotest.(check int) "one spindle transaction" 1 (disk.Device.spindle_stats ()).Device.transactions)

let test_flusher_clusters () =
  let eng, disk, _, dev = make () in
  in_proc eng (fun () ->
      (* 32 sequential 8K writes: the flusher must push them in far
         fewer spindle transactions than 32. *)
      for i = 0 to 31 do
        dev.Device.write ~off:(i * 8192) (Bytes.make 8192 (Char.chr (65 + (i mod 26))))
      done;
      dev.Device.flush ();
      let s = disk.Device.spindle_stats () in
      Alcotest.(check int) "all bytes reach the platter" (32 * 8192) s.Device.bytes_moved;
      if s.Device.transactions > 8 then
        Alcotest.failf "flusher did not cluster: %d transactions" s.Device.transactions;
      (* Platter now byte-identical. *)
      for i = 0 to 31 do
        let expect = Bytes.make 8192 (Char.chr (65 + (i mod 26))) in
        Alcotest.(check bytes) "platter block" expect (disk.Device.stable_read ~off:(i * 8192) ~len:8192)
      done)

let test_capacity_backpressure () =
  (* A tiny NVRAM forces writers to wait for the flusher: throughput
     degrades toward the spindle drain rate but never loses data. *)
  let params = { Nvram.default_params with Nvram.capacity = 64 * 1024 } in
  let eng, _disk, _, dev = make ~params () in
  in_proc eng (fun () ->
      let t0 = Engine.now eng in
      for i = 0 to 63 do
        dev.Device.write ~off:(i * 8192) (Bytes.make 8192 'z')
      done;
      let elapsed = Engine.now eng - t0 in
      (* 512K through a 64K cache must take multiple flush rounds. *)
      if elapsed < Time.ms 20 then Alcotest.failf "no backpressure: %dns" elapsed;
      dev.Device.flush ();
      Alcotest.(check bytes) "all durable" (Bytes.make 8192 'z')
        (dev.Device.stable_read ~off:(63 * 8192) ~len:8192))

let test_crash_preserves_nvram_contents () =
  let eng, disk, board, dev = make () in
  (* Write into NVRAM, crash before the flusher drains, recover, and
     expect the platter to hold the data. *)
  Engine.spawn eng (fun () -> dev.Device.write ~off:8192 (Bytes.make 8192 'N'));
  Engine.schedule eng ~after:(Time.ms 2) (fun () -> dev.Device.crash ());
  Engine.run eng;
  Alcotest.(check bool) "platter stale pre-recovery" true
    (disk.Device.stable_read ~off:8192 ~len:8192 <> Bytes.make 8192 'N'
    || (* flusher may have won the race; both are legal *)
    disk.Device.stable_read ~off:8192 ~len:8192 = Bytes.make 8192 'N');
  dev.Device.recover ();
  Alcotest.(check bytes) "replayed to platter" (Bytes.make 8192 'N')
    (disk.Device.stable_read ~off:8192 ~len:8192);
  Alcotest.(check int) "nothing left dirty" 0 (Nvram.dirty_bytes board)

let test_read_merges_overlay () =
  let eng, disk, _, dev = make () in
  in_proc eng (fun () ->
      (* Seed the platter, then overwrite a slice via NVRAM; a read
         must see the merge before any flush. *)
      disk.Device.stable_write ~off:0 (Bytes.make 8192 'o');
      let patch = Bytes.make 1024 'P' in
      dev.Device.write ~off:2048 patch;
      let back = dev.Device.read ~off:0 ~len:8192 in
      Alcotest.(check char) "old before" 'o' (Bytes.get back 0);
      Alcotest.(check char) "patched" 'P' (Bytes.get back 2048);
      Alcotest.(check char) "patched end" 'P' (Bytes.get back 3071);
      Alcotest.(check char) "old after" 'o' (Bytes.get back 3072))

let test_cached_read_is_fast () =
  let eng, _disk, _, dev = make () in
  in_proc eng (fun () ->
      dev.Device.write ~off:0 (Bytes.make 8192 'c');
      let t0 = Engine.now eng in
      let _ = dev.Device.read ~off:0 ~len:8192 in
      if Engine.now eng - t0 > Time.ms 1 then Alcotest.fail "covered read hit the disk")

let test_dirty_bytes_visibility () =
  let eng, _disk, board, dev = make () in
  in_proc eng (fun () ->
      dev.Device.write ~off:0 (Bytes.make 8192 'd');
      if Nvram.dirty_bytes board = 0 then Alcotest.fail "write not visible as dirty";
      dev.Device.flush ();
      Alcotest.(check int) "clean after flush" 0 (Nvram.dirty_bytes board))

let suite =
  [
    Alcotest.test_case "reports accelerated" `Quick test_accelerated_flag;
    Alcotest.test_case "accepted write fast and stable" `Quick test_accepted_write_is_fast_and_stable;
    Alcotest.test_case "oversized write declined to disk" `Quick test_declined_write_goes_to_disk;
    Alcotest.test_case "flusher clusters contiguous dirt" `Quick test_flusher_clusters;
    Alcotest.test_case "full cache applies backpressure" `Quick test_capacity_backpressure;
    Alcotest.test_case "crash + recover replays NVRAM" `Quick test_crash_preserves_nvram_contents;
    Alcotest.test_case "reads merge NVRAM overlay" `Quick test_read_merges_overlay;
    Alcotest.test_case "fully-cached read avoids disk" `Quick test_cached_read_is_fast;
    Alcotest.test_case "dirty bytes drain on flush" `Quick test_dirty_bytes_visibility;
  ]
