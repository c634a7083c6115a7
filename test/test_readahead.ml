(* Buffer-cache read-ahead engine: sequential-run detection, prefetch
   accounting, and the eviction rules the capacity budget obeys. *)

open Nfsg_sim
module Disk = Nfsg_disk.Disk
module Bc = Nfsg_ufs.Buffer_cache

let bsize = 8192

let with_cache ?max_blocks ?readahead f =
  let eng = Engine.create () in
  let disk = Disk.create eng (Disk.rz26 ~capacity:(8 * 1024 * 1024) ()) in
  let cache = Bc.create disk ~bsize ?max_blocks () in
  (match readahead with Some config -> Bc.enable_readahead cache eng ~config () | None -> ());
  let result = ref None in
  Engine.spawn eng ~name:"driver" (fun () -> result := Some (f eng cache));
  Engine.run eng;
  match !result with Some v -> v | None -> Alcotest.fail "driver process blocked forever"

(* File block [f] lives at device block [100 + f]: a dense sequential
   mapping with no holes, so [map] never returns 0. *)
let map f = 100 + f

let test_sequential_detection () =
  with_cache ~readahead:{ Bc.window = 4; min_run = 2; max_streams = 2 } (fun _eng cache ->
      Alcotest.(check bool) "armed" true (Bc.readahead_active cache);
      (* One block read: below min_run, nothing prefetched. *)
      Bc.note_read cache ~stream:7 ~fbn:0 ~nblocks:1 ~map ~limit:50;
      Alcotest.(check int) "one read arms nothing" 0 (Bc.readahead_blocks cache);
      (* The next sequential block completes the run: a window of 4
         file blocks (2..5) goes to the device in one batch. *)
      Bc.note_read cache ~stream:7 ~fbn:1 ~nblocks:1 ~map ~limit:50;
      Alcotest.(check int) "window prefetched" 4 (Bc.readahead_blocks cache);
      Alcotest.(check int) "as one batch" 1 (Bc.readahead_batches cache);
      Engine.delay (Time.ms 200);
      Alcotest.(check bool) "prefetched block resident" true (Bc.is_prefetched cache (map 2));
      let misses0 = Bc.misses cache in
      ignore (Bc.get cache (map 2));
      Alcotest.(check int) "demand read of a prefetched block is a hit" misses0
        (Bc.misses cache);
      Alcotest.(check int) "and the guess is credited" 1 (Bc.readahead_hits cache);
      Alcotest.(check bool) "credited only once" false (Bc.is_prefetched cache (map 2));
      (* A random-access stream never completes a run: no new batch. *)
      Bc.note_read cache ~stream:9 ~fbn:10 ~nblocks:1 ~map ~limit:50;
      Bc.note_read cache ~stream:9 ~fbn:30 ~nblocks:1 ~map ~limit:50;
      Bc.note_read cache ~stream:9 ~fbn:20 ~nblocks:1 ~map ~limit:50;
      Alcotest.(check int) "random access prefetches nothing" 4 (Bc.readahead_blocks cache))

let test_overlap_tolerance () =
  with_cache ~readahead:{ Bc.window = 4; min_run = 2; max_streams = 2 } (fun _eng cache ->
      Bc.note_read cache ~stream:1 ~fbn:0 ~nblocks:1 ~map ~limit:50;
      Bc.note_read cache ~stream:1 ~fbn:1 ~nblocks:1 ~map ~limit:50;
      Alcotest.(check int) "run armed" 4 (Bc.readahead_blocks cache);
      (* A retransmitted read of the same block (dupcache miss) must
         neither break the run nor double-prefetch. *)
      Bc.note_read cache ~stream:1 ~fbn:1 ~nblocks:1 ~map ~limit:50;
      Alcotest.(check int) "re-read is absorbed" 4 (Bc.readahead_blocks cache);
      (* The stream continues: the window slides without re-requesting
         blocks already prefetched or in flight. *)
      Bc.note_read cache ~stream:1 ~fbn:2 ~nblocks:1 ~map ~limit:50;
      Alcotest.(check int) "window slides by one" 5 (Bc.readahead_blocks cache);
      Engine.delay (Time.ms 200);
      Alcotest.(check bool) "slid block arrived" true (Bc.is_prefetched cache (map 6)))

let test_eviction_spares_dirty () =
  with_cache ~max_blocks:8 (fun _eng cache ->
      for b = 0 to 5 do
        Bc.modify cache b Bc.Data Bc.Zeroed ignore
      done;
      for b = 6 to 7 do
        ignore (Bc.get cache b)
      done;
      (* Three more blocks through a full cache: every victim must come
         from the clean minority, never the dirty blocks. *)
      for b = 8 to 10 do
        ignore (Bc.get cache b)
      done;
      for b = 0 to 5 do
        Alcotest.(check bool) (Printf.sprintf "dirty block %d still resident" b) true
          (Bc.peek cache b <> None);
        Alcotest.(check bool) (Printf.sprintf "dirty block %d still dirty" b) true
          (Bc.is_dirty cache b)
      done;
      Alcotest.(check int) "clean victims only" 3 (Bc.evictions cache);
      Alcotest.(check int) "capacity respected" 8 (Bc.resident cache))

(* The victim is the least recently used clean block, found past a
   dirty block at the head of the LRU order. *)
let test_eviction_victim_is_lru_clean () =
  with_cache ~max_blocks:8 (fun _eng cache ->
      let resident b = Bc.peek cache b <> None in
      let fill blocks = List.iter (fun b -> ignore (Bc.get cache b)) blocks in
      Bc.modify cache 0 Bc.Data Bc.Zeroed ignore;
      fill [ 1; 2; 3; 4; 5; 6; 7 ];
      fill [ 1 ] (* a hit: 1 becomes the most recently used *);
      fill [ 8 ];
      Alcotest.(check bool) "dirty head kept" true (resident 0);
      Alcotest.(check bool) "touched block kept" true (resident 1);
      Alcotest.(check bool) "least recently used clean block evicted" false (resident 2);
      (* A dropped block leaves the order too: the next victim after the
         free slot is used is 3, then 5. *)
      Bc.drop cache 4;
      fill [ 9; 10 ];
      Alcotest.(check bool) "next victim" false (resident 3);
      fill [ 11 ];
      Alcotest.(check bool) "the dropped block was skipped" false (resident 5);
      Alcotest.(check bool) "newer blocks kept" true (List.for_all resident [ 0; 1; 6; 7; 8; 9; 10; 11 ]);
      Alcotest.(check int) "three evictions" 3 (Bc.evictions cache);
      (* A crash empties the order with the table. *)
      Bc.crash cache;
      fill [ 20; 21; 22; 23; 24; 25; 26; 27; 28 ];
      Alcotest.(check bool) "after a crash, the oldest goes first" false (resident 20);
      Alcotest.(check int) "capacity respected" 8 (Bc.resident cache))

let test_wasted_accounting () =
  with_cache ~readahead:{ Bc.window = 4; min_run = 1; max_streams = 2 } (fun _eng cache ->
      Bc.note_read cache ~stream:3 ~fbn:0 ~nblocks:1 ~map ~limit:50;
      Alcotest.(check int) "window prefetched" 4 (Bc.readahead_blocks cache);
      Engine.delay (Time.ms 200);
      (* One guess consumed, two dropped unread: only the drops count
         as waste, and consuming the survivor afterwards still pays. *)
      ignore (Bc.get cache (map 1));
      Bc.drop cache (map 2);
      Bc.drop cache (map 3);
      Alcotest.(check int) "dropped guesses are waste" 2 (Bc.readahead_wasted cache);
      ignore (Bc.get cache (map 4));
      Alcotest.(check int) "consumed guesses are hits" 2 (Bc.readahead_hits cache);
      Alcotest.(check int) "waste stays at the drops" 2 (Bc.readahead_wasted cache))

let test_disabled_is_inert () =
  with_cache (fun _eng cache ->
      Alcotest.(check bool) "off by default" false (Bc.readahead_active cache);
      Bc.note_read cache ~stream:1 ~fbn:0 ~nblocks:1 ~map ~limit:50;
      Bc.note_read cache ~stream:1 ~fbn:1 ~nblocks:1 ~map ~limit:50;
      Alcotest.(check int) "note_read is a no-op" 0 (Bc.readahead_blocks cache);
      ignore (Bc.get cache (map 0));
      Alcotest.(check int) "demand reads still miss through" 1 (Bc.misses cache))

let suite =
  [
    Alcotest.test_case "sequential run detection" `Quick test_sequential_detection;
    Alcotest.test_case "overlapping re-reads tolerated" `Quick test_overlap_tolerance;
    Alcotest.test_case "eviction never touches dirty blocks" `Quick test_eviction_spares_dirty;
    Alcotest.test_case "eviction takes the LRU clean block" `Quick test_eviction_victim_is_lru_clean;
    Alcotest.test_case "wasted-prefetch accounting" `Quick test_wasted_accounting;
    Alcotest.test_case "disabled engine is inert" `Quick test_disabled_is_inert;
  ]
