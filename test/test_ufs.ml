open Nfsg_sim
open Nfsg_disk
open Nfsg_ufs

let geometry = { (Disk.rz26 ~capacity:(32 * 1024 * 1024) ()) with Disk.track_bytes = 256 * 1024 }

let fresh_fs ?(bsize = 8192) ?(ninodes = 512) () =
  let eng = Engine.create () in
  let dev = Disk.create eng geometry in
  Fs.mkfs dev ~bsize ~ninodes ();
  let fs = Fs.mount eng dev in
  (eng, dev, fs)

let in_proc eng f =
  let r = ref None in
  Engine.spawn eng ~name:"test-driver" (fun () -> r := Some (f ()));
  Engine.run eng;
  match !r with Some v -> v | None -> Alcotest.fail "driver blocked"

let pattern n seed = Bytes.init n (fun i -> Char.chr ((i + seed) mod 251))

(* {1 Layout pure functions} *)

let test_superblock_roundtrip () =
  let sb = Layout.make_superblock ~bsize:8192 ~capacity:(32 * 1024 * 1024) ~ninodes:512 in
  let sb' = Layout.decode_superblock (Layout.encode_superblock sb) in
  Alcotest.(check bool) "roundtrip" true (sb = sb')

let test_dinode_roundtrip () =
  let di =
    {
      Layout.ftype = Layout.Regular;
      nlink = 2;
      size = 123456789;
      mtime = 42;
      atime = 7;
      ctime = 9;
      direct = Array.init 12 (fun i -> i * 100);
      single_ind = 5000;
      double_ind = 6000;
      gen = 17;
    }
  in
  Alcotest.(check bool) "roundtrip" true (Layout.decode_dinode (Layout.encode_dinode di) = di)

let test_dirents_roundtrip () =
  let entries = [ ("a", 2); ("file.with.dots", 3); (String.make 200 'n', 4) ] in
  Alcotest.(check bool) "roundtrip" true (Layout.decode_dirents (Layout.encode_dirents entries) = entries)

let prop_dirents =
  let name_gen = QCheck.Gen.(map (fun s -> "f" ^ String.concat "" (List.map (fun c -> String.make 1 c) s)) (list_size (0 -- 20) (char_range 'a' 'z'))) in
  let arb =
    QCheck.make
      QCheck.Gen.(list_size (0 -- 20) (pair name_gen (int_range 1 1000)))
  in
  QCheck.Test.make ~name:"dirent list roundtrips" ~count:200 arb (fun entries ->
      Layout.decode_dirents (Layout.encode_dirents entries) = entries)

(* {1 Files} *)

let test_create_lookup_readdir () =
  let eng, _, fs = fresh_fs () in
  in_proc eng (fun () ->
      let root = Fs.root fs in
      let f = Fs.create fs root "hello.txt" Layout.Regular in
      Alcotest.(check bool) "lookup finds it" true (Fs.inum (Fs.lookup fs root "hello.txt") = Fs.inum f);
      Alcotest.(check (list (pair string int))) "readdir" [ ("hello.txt", Fs.inum f) ] (Fs.readdir fs root);
      Alcotest.check_raises "duplicate create" (Fs.Exists "hello.txt") (fun () ->
          ignore (Fs.create fs root "hello.txt" Layout.Regular)))

let test_write_read_roundtrip () =
  let eng, _, fs = fresh_fs () in
  in_proc eng (fun () ->
      let f = Fs.create fs (Fs.root fs) "data" Layout.Regular in
      let data = pattern 50_000 3 in
      Fs.write fs f ~off:0 data ~mode:Fs.Sync;
      Alcotest.(check bytes) "roundtrip" data (Fs.read fs f ~off:0 ~len:50_000);
      Alcotest.(check int) "size" 50_000 (Fs.getattr f).Fs.size)

let test_unaligned_writes () =
  let eng, _, fs = fresh_fs () in
  in_proc eng (fun () ->
      let f = Fs.create fs (Fs.root fs) "u" Layout.Regular in
      Fs.write fs f ~off:100 (Bytes.of_string "abc") ~mode:Fs.Sync;
      Fs.write fs f ~off:8190 (Bytes.of_string "span") ~mode:Fs.Sync;
      (* Hole before 100 reads as zeros. *)
      let head = Fs.read fs f ~off:0 ~len:103 in
      Alcotest.(check char) "hole" '\000' (Bytes.get head 0);
      Alcotest.(check string) "tail" "abc" (Bytes.sub_string head 100 3);
      Alcotest.(check string) "block-spanning write" "span" (Bytes.to_string (Fs.read fs f ~off:8190 ~len:4));
      Alcotest.(check int) "size" 8194 (Fs.getattr f).Fs.size)

let test_sparse_holes_read_zero () =
  let eng, _, fs = fresh_fs () in
  in_proc eng (fun () ->
      let f = Fs.create fs (Fs.root fs) "sparse" Layout.Regular in
      Fs.write fs f ~off:(100 * 8192) (Bytes.of_string "end") ~mode:Fs.Sync;
      let mid = Fs.read fs f ~off:(50 * 8192) ~len:10 in
      Alcotest.(check bytes) "zeros" (Bytes.make 10 '\000') mid)

(* Reads that start, end and pass through holes return exactly the
   bytes of a flat copy of the file: written ranges as written,
   everything else zero. Pattern bytes are never zero at offsets where
   [pattern] runs, so a hole left unfilled would show. *)
let test_reads_across_holes () =
  let eng, _, fs = fresh_fs ~bsize:512 ~ninodes:64 () in
  in_proc eng (fun () ->
      let f = Fs.create fs (Fs.root fs) "holes" Layout.Regular in
      let size = 512 * 40 in
      let flat = Bytes.make size '\000' in
      List.iter
        (fun (off, len) ->
          let data = Bytes.map (fun c -> if c = '\000' then '\001' else c) (pattern len off) in
          Fs.write fs f ~off data ~mode:Fs.Sync;
          Bytes.blit data 0 flat off len)
        [ (700, 300); (512 * 9, 512 * 3); (512 * 20 + 17, 900); (size - 5, 5) ];
      List.iter
        (fun (off, len) ->
          Alcotest.(check bytes)
            (Printf.sprintf "read %d+%d" off len)
            (Bytes.sub flat off len) (Fs.read fs f ~off ~len))
        [ (0, size); (0, 700); (650, 512 * 10); (512 * 12, 512 * 8 + 40); (512 * 25, 512 * 15) ])

let test_indirect_boundaries () =
  (* With bsize=512: 12 direct blocks, then 128 single-indirect, then
     double-indirect. Write a file crossing all three regions. *)
  let eng, _, fs = fresh_fs ~bsize:512 ~ninodes:64 () in
  in_proc eng (fun () ->
      let f = Fs.create fs (Fs.root fs) "big" Layout.Regular in
      let total = 512 * (12 + 128 + 50) in
      let data = pattern total 11 in
      Fs.write fs f ~off:0 data ~mode:Fs.Delay_data;
      Alcotest.(check bytes) "all three mapping regions" data (Fs.read fs f ~off:0 ~len:total);
      Fs.commit_range_begin fs f ~off:0 ~len:total ();
      Alcotest.(check bytes) "after fsync" data (Fs.read fs f ~off:0 ~len:total);
      match Fs.check fs with
      | Ok () -> ()
      | Error es -> Alcotest.failf "fsck: %s" (String.concat "; " es))

let test_short_read_at_eof () =
  let eng, _, fs = fresh_fs () in
  in_proc eng (fun () ->
      let f = Fs.create fs (Fs.root fs) "short" Layout.Regular in
      Fs.write fs f ~off:0 (Bytes.of_string "0123456789") ~mode:Fs.Sync;
      Alcotest.(check string) "clamped" "56789" (Bytes.to_string (Fs.read fs f ~off:5 ~len:100));
      Alcotest.(check int) "past eof" 0 (Bytes.length (Fs.read fs f ~off:50 ~len:10)))

(* {1 Write modes and flush machinery} *)

let test_delay_data_stays_volatile () =
  let eng, dev, fs = fresh_fs () in
  in_proc eng (fun () ->
      let f = Fs.create fs (Fs.root fs) "vol" Layout.Regular in
      let before = (dev.Device.spindle_stats ()).Device.transactions in
      Fs.write fs f ~off:0 (pattern 8192 1) ~mode:Fs.Delay_data;
      let after = (dev.Device.spindle_stats ()).Device.transactions in
      Alcotest.(check int) "no disk traffic" before after;
      Alcotest.(check bool) "meta dirty" true (Fs.meta_dirty f = `Dirty))

let test_sync_commits_data_then_meta () =
  let eng, dev, fs = fresh_fs () in
  in_proc eng (fun () ->
      let f = Fs.create fs (Fs.root fs) "sync" Layout.Regular in
      let before = (dev.Device.spindle_stats ()).Device.transactions in
      Fs.write fs f ~off:0 (pattern 8192 2) ~mode:Fs.Sync;
      let after = (dev.Device.spindle_stats ()).Device.transactions in
      (* New block: data + inode (+ no indirect yet) = 2 transactions. *)
      Alcotest.(check int) "data + inode" 2 (after - before);
      Alcotest.(check bool) "meta clean" true (Fs.meta_dirty f = `Clean))

let test_mtime_only_update_is_async () =
  let eng, dev, fs = fresh_fs () in
  in_proc eng (fun () ->
      let f = Fs.create fs (Fs.root fs) "mt" Layout.Regular in
      Fs.write fs f ~off:0 (pattern 8192 3) ~mode:Fs.Sync;
      let before = (dev.Device.spindle_stats ()).Device.transactions in
      (* Overwrite in place: no size change, no new blocks. *)
      Fs.write fs f ~off:0 (pattern 8192 4) ~mode:Fs.Sync;
      let after = (dev.Device.spindle_stats ()).Device.transactions in
      Alcotest.(check int) "data only, inode deferred" 1 (after - before);
      Alcotest.(check bool) "time-only dirty" true (Fs.meta_dirty f = `Time_only))

let test_3n_transactions_for_large_file () =
  (* The paper's Case Study: a freshly created N*8K file written
     synchronously costs ~3N transactions once past the direct
     blocks. *)
  let eng, dev, fs = fresh_fs () in
  in_proc eng (fun () ->
      let f = Fs.create fs (Fs.root fs) "case-study" Layout.Regular in
      let n = 40 in
      let before = (dev.Device.spindle_stats ()).Device.transactions in
      for i = 0 to n - 1 do
        Fs.write fs f ~off:(i * 8192) (pattern 8192 i) ~mode:Fs.Sync
      done;
      let total = (dev.Device.spindle_stats ()).Device.transactions - before in
      (* First 12 writes: 2 ops each (data+inode). Next 28: 3 ops
         (data+inode+indirect), plus one for creating the indirect. *)
      let expected_min = (12 * 2) + (28 * 3) in
      if total < expected_min || total > expected_min + 3 then
        Alcotest.failf "expected ~%d transactions, saw %d" expected_min total)

let test_syncdata_clusters () =
  let eng, dev, fs = fresh_fs () in
  in_proc eng (fun () ->
      let f = Fs.create fs (Fs.root fs) "clu" Layout.Regular in
      (* 16 delayed 8K writes, then one ranged flush. *)
      for i = 0 to 15 do
        Fs.write fs f ~off:(i * 8192) (pattern 8192 i) ~mode:Fs.Delay_data
      done;
      let before = (dev.Device.spindle_stats ()).Device.transactions in
      Fs.syncdata fs f ~off:0 ~len:(16 * 8192);
      let data_writes = (dev.Device.spindle_stats ()).Device.transactions - before in
      (* 128K of dirt: blocks 0-11 are contiguous, the single indirect
         block interposes on disk, then blocks 12-15. The 64K cluster
         cap cuts three requests (8 + 4 + 4 blocks), but they are
         submitted as one batch and the first two are physically
         adjacent, so the spindle scheduler merges them back into a
         single 96K transaction: two transactions total. *)
      Alcotest.(check int) "two merged clustered writes" 2 data_writes;
      let before_meta = (dev.Device.spindle_stats ()).Device.transactions in
      Fs.fsync_metadata fs f;
      let meta_writes = (dev.Device.spindle_stats ()).Device.transactions - before_meta in
      (* inode block + single indirect block *)
      Alcotest.(check int) "metadata in two" 2 meta_writes)

let test_fsync_metadata_idempotent () =
  let eng, dev, fs = fresh_fs () in
  in_proc eng (fun () ->
      let f = Fs.create fs (Fs.root fs) "idem" Layout.Regular in
      Fs.write fs f ~off:0 (pattern 100 5) ~mode:Fs.Sync_data_only;
      Fs.fsync_metadata fs f;
      let before = (dev.Device.spindle_stats ()).Device.transactions in
      Fs.fsync_metadata fs f;
      Alcotest.(check int) "second flush is free" before
        (dev.Device.spindle_stats ()).Device.transactions)

(* {1 Namespace} *)

let test_remove_then_stale () =
  let eng, _, fs = fresh_fs () in
  in_proc eng (fun () ->
      let root = Fs.root fs in
      let f = Fs.create fs root "victim" Layout.Regular in
      Fs.write fs f ~off:0 (pattern 20_000 7) ~mode:Fs.Sync;
      let inum = Fs.inum f and gen = Fs.generation f in
      let free_before = (Fs.statfs fs).Fs.free_blocks in
      Fs.remove fs root "victim";
      Alcotest.(check bool) "blocks freed" true ((Fs.statfs fs).Fs.free_blocks > free_before);
      Alcotest.check_raises "handle is stale" (Fs.Stale inum) (fun () ->
          ignore (Fs.iget fs ~inum ~gen));
      Alcotest.check_raises "name gone" Not_found (fun () -> ignore (Fs.lookup fs root "victim")))

let test_generation_prevents_reuse_confusion () =
  let eng, _, fs = fresh_fs () in
  in_proc eng (fun () ->
      let root = Fs.root fs in
      let f = Fs.create fs root "first" Layout.Regular in
      let inum = Fs.inum f and gen = Fs.generation f in
      Fs.remove fs root "first";
      let g = Fs.create fs root "second" Layout.Regular in
      (* The slot is reused with a bumped generation. *)
      Alcotest.(check int) "slot reused" inum (Fs.inum g);
      Alcotest.(check bool) "gen bumped" true (Fs.generation g > gen);
      Alcotest.check_raises "old handle stale" (Fs.Stale inum) (fun () ->
          ignore (Fs.iget fs ~inum ~gen)))

let test_rename_same_dir () =
  let eng, _, fs = fresh_fs () in
  in_proc eng (fun () ->
      let root = Fs.root fs in
      let f = Fs.create fs root "old" Layout.Regular in
      Fs.write fs f ~off:0 (Bytes.of_string "payload") ~mode:Fs.Sync;
      Fs.rename fs ~src_dir:root ~src:"old" ~dst_dir:root ~dst:"new";
      Alcotest.check_raises "old gone" Not_found (fun () -> ignore (Fs.lookup fs root "old"));
      let g = Fs.lookup fs root "new" in
      Alcotest.(check string) "content follows" "payload" (Bytes.to_string (Fs.read fs g ~off:0 ~len:7)))

let test_rename_across_dirs () =
  let eng, _, fs = fresh_fs () in
  in_proc eng (fun () ->
      let root = Fs.root fs in
      let d1 = Fs.create fs root "d1" Layout.Directory in
      let d2 = Fs.create fs root "d2" Layout.Directory in
      ignore (Fs.create fs d1 "f" Layout.Regular);
      Fs.rename fs ~src_dir:d1 ~src:"f" ~dst_dir:d2 ~dst:"f2";
      Alcotest.(check int) "d1 empty" 0 (List.length (Fs.readdir fs d1));
      Alcotest.(check bool) "in d2" true (List.mem_assoc "f2" (Fs.readdir fs d2)))

let test_mkdir_rmdir () =
  let eng, _, fs = fresh_fs () in
  in_proc eng (fun () ->
      let root = Fs.root fs in
      let d = Fs.create fs root "dir" Layout.Directory in
      ignore (Fs.create fs d "child" Layout.Regular);
      let not_empty =
        try
          Fs.rmdir fs root "dir";
          false
        with Fs.Not_empty _ -> true
      in
      Alcotest.(check bool) "not empty" true not_empty;
      Fs.remove fs d "child";
      Fs.rmdir fs root "dir";
      Alcotest.check_raises "gone" Not_found (fun () -> ignore (Fs.lookup fs root "dir")))

let test_symlink_roundtrip_and_fsck () =
  let eng, _, fs = fresh_fs () in
  in_proc eng (fun () ->
      let root = Fs.root fs in
      let link = Fs.symlink fs root "ln" ~target:"somewhere/else" in
      Alcotest.(check string) "target stored" "somewhere/else" (Fs.readlink fs link);
      Alcotest.(check bool) "type" true ((Fs.getattr link).Fs.ftype = Layout.Symlink);
      (* Survives remount (it is on disk). *)
      Fs.crash fs;
      (Fs.device fs).Nfsg_disk.Device.recover ();
      let fs2 = Fs.mount eng (Fs.device fs) in
      let link2 = Fs.lookup fs2 (Fs.root fs2) "ln" in
      Alcotest.(check string) "target durable" "somewhere/else" (Fs.readlink fs2 link2);
      match Fs.check fs2 with
      | Ok () -> ()
      | Error es -> Alcotest.failf "fsck: %s" (String.concat "; " es))

let test_truncate_frees_and_check_passes () =
  let eng, _, fs = fresh_fs () in
  in_proc eng (fun () ->
      let f = Fs.create fs (Fs.root fs) "t" Layout.Regular in
      Fs.write fs f ~off:0 (pattern 200_000 13) ~mode:Fs.Sync;
      let free0 = (Fs.statfs fs).Fs.free_blocks in
      Fs.truncate fs f 10_000;
      Fs.fsync_metadata fs f;
      Alcotest.(check int) "size" 10_000 (Fs.getattr f).Fs.size;
      Alcotest.(check bool) "freed" true ((Fs.statfs fs).Fs.free_blocks > free0);
      (* Old tail is unreadable. *)
      Alcotest.(check int) "tail gone" 0 (Bytes.length (Fs.read fs f ~off:10_000 ~len:100));
      match Fs.check fs with
      | Ok () -> ()
      | Error es -> Alcotest.failf "fsck: %s" (String.concat "; " es))

(* A freshly written file leaves nothing to report; the cases below
   each break one rule. *)
let test_check_clean_fs () =
  let eng, _, fs = fresh_fs () in
  in_proc eng (fun () ->
      let f = Fs.create fs (Fs.root fs) "c" Layout.Regular in
      Fs.write fs f ~off:0 (pattern 8192 1) ~mode:Fs.Sync;
      match Fs.check fs with
      | Error es -> Alcotest.failf "clean fs flagged: %s" (String.concat ";" es)
      | Ok () -> ())

(* {1 fsck detection}

   Each case commits a small tree, breaks one rule and expects
   [Fs.check] to report exactly that fault. Most faults are written to
   the platter and seen through a remount, as a stray write would leave
   them; [mount] rebuilds the bitmap from reachable blocks, so the two
   bitmap faults go into the mounted filesystem's cached bitmap. *)

let superblock (dev : Device.t) = Layout.decode_superblock (dev.Device.stable_read ~off:0 ~len:512)

(* Byte offset of inode [inum]'s slot on the platter. *)
let dinode_off dev inum =
  let sb = superblock dev in
  let blk, off = Layout.inode_block sb inum in
  (blk * sb.Layout.bsize) + off

let dinode_on_disk dev inum =
  Layout.decode_dinode (dev.Device.stable_read ~off:(dinode_off dev inum) ~len:Layout.inode_size)

let write_dinode dev inum d = dev.Device.stable_write ~off:(dinode_off dev inum) (Layout.encode_dinode d)

(* Power-cycle [fs], let [corrupt] change the platter, and mount the
   result. *)
let remount_after eng dev fs corrupt =
  Fs.crash fs;
  dev.Device.recover ();
  corrupt ();
  Fs.mount eng dev

(* Set or clear block [b]'s bit in [fs]'s cached bitmap. *)
let set_bitmap_bit dev fs b v =
  let sb = superblock dev in
  let bits = sb.Layout.bsize * 8 in
  Buffer_cache.modify (Fs.cache fs) (sb.Layout.bitmap_start + (b / bits)) Buffer_cache.Metadata
    Buffer_cache.From_disk (fun buf ->
      let i = b mod bits / 8 and m = 1 lsl (b mod 8) in
      let c = Char.code (Bytes.get buf i) in
      Bytes.set buf i (Char.chr (if v then c lor m else c land lnot m)))

(* Files [names], one synchronously written block each; returns their
   inode numbers. *)
let one_block_files fs names =
  List.mapi
    (fun i name ->
      let f = Fs.create fs (Fs.root fs) name Layout.Regular in
      Fs.write fs f ~off:0 (pattern 8192 (i + 1)) ~mode:Fs.Sync;
      Fs.inum f)
    names

let expect_fsck fs expected =
  match Fs.check fs with
  | Ok () -> Alcotest.failf "fsck found nothing, expected: %s" (String.concat "; " expected)
  | Error es -> Alcotest.(check (list string)) "fsck reports" expected es

let test_check_block_claimed_twice () =
  let eng, dev, fs = fresh_fs () in
  in_proc eng (fun () ->
      let a, b = match one_block_files fs [ "a"; "b" ] with [ a; b ] -> (a, b) | _ -> assert false in
      let shared = (dinode_on_disk dev a).Layout.direct.(0) in
      let fs2 =
        remount_after eng dev fs (fun () ->
            let d = dinode_on_disk dev b in
            d.Layout.direct.(0) <- shared;
            write_dinode dev b d)
      in
      expect_fsck fs2 [ Printf.sprintf "block %d multiply claimed (again by inode %d)" shared b ])

let test_check_referenced_block_free () =
  let eng, dev, fs = fresh_fs () in
  in_proc eng (fun () ->
      let a = List.hd (one_block_files fs [ "a" ]) in
      let blk = (dinode_on_disk dev a).Layout.direct.(0) in
      set_bitmap_bit dev fs blk false;
      expect_fsck fs [ Printf.sprintf "block %d used by inode %d but free in bitmap" blk a ])

let test_check_unreachable_block () =
  let eng, dev, fs = fresh_fs () in
  in_proc eng (fun () ->
      ignore (one_block_files fs [ "a" ]);
      let stray = (superblock dev).Layout.nblocks - 1 in
      set_bitmap_bit dev fs stray true;
      expect_fsck fs [ Printf.sprintf "block %d allocated in bitmap but unreachable" stray ])

let test_check_size_beyond_mappable () =
  let eng, dev, fs = fresh_fs () in
  in_proc eng (fun () ->
      let a = List.hd (one_block_files fs [ "a" ]) in
      let size = 1 lsl 50 in
      let fs2 =
        remount_after eng dev fs (fun () -> write_dinode dev a { (dinode_on_disk dev a) with Layout.size })
      in
      expect_fsck fs2 [ Printf.sprintf "inode %d size %d exceeds mappable bytes" a size ])

let test_check_entry_names_free_inode () =
  let eng, dev, fs = fresh_fs () in
  in_proc eng (fun () ->
      ignore (one_block_files fs [ "a" ]);
      let root = 1 and ghost = 40 in
      let entries = Layout.encode_dirents (Fs.readdir fs (Fs.root fs) @ [ ("ghost", ghost) ]) in
      let fs2 =
        remount_after eng dev fs (fun () ->
            let d = dinode_on_disk dev root in
            dev.Device.stable_write ~off:(d.Layout.direct.(0) * 8192) entries;
            write_dinode dev root { d with Layout.size = Bytes.length entries })
      in
      expect_fsck fs2 [ Printf.sprintf "directory %d entry %S points at dead inode %d" root "ghost" ghost ])

let test_check_nlink_mismatch () =
  let eng, dev, fs = fresh_fs () in
  in_proc eng (fun () ->
      let a = List.hd (one_block_files fs [ "a" ]) in
      let fs2 =
        remount_after eng dev fs (fun () ->
            write_dinode dev a { (dinode_on_disk dev a) with Layout.nlink = 2 })
      in
      expect_fsck fs2 [ Printf.sprintf "inode %d nlink 2 but 1 directory references" a ])

(* Pointers outside the data area: a direct pointer past the volume
   whose bitmap bit would lie in the other file's first data block, a
   single-indirect pointer past the volume and a double-indirect one
   naming the bitmap. [mount] neither claims nor reads through them,
   and [check] names each without reading through it. *)
let test_check_pointers_outside_data_area () =
  let eng, dev, fs = fresh_fs () in
  in_proc eng (fun () ->
      let other, victim =
        match one_block_files fs [ "other"; "victim" ] with [ o; v ] -> (o, v) | _ -> assert false
      in
      let sb = superblock dev in
      let first = (dinode_on_disk dev other).Layout.direct.(0) in
      let far = ((first - sb.Layout.bitmap_start) * sb.Layout.bsize * 8) + 5 in
      let past = sb.Layout.nblocks + 7 and bitmap = sb.Layout.bitmap_start in
      let fs2 =
        remount_after eng dev fs (fun () ->
            let d = dinode_on_disk dev victim in
            d.Layout.direct.(0) <- far;
            write_dinode dev victim { d with Layout.single_ind = past; double_ind = bitmap })
      in
      let o = Fs.lookup fs2 (Fs.root fs2) "other" in
      Alcotest.(check bytes) "the other file reads back unchanged" (pattern 8192 1)
        (Fs.read fs2 o ~off:0 ~len:8192);
      Alcotest.(check bool) "its block is clean" false (Buffer_cache.is_dirty (Fs.cache fs2) first);
      expect_fsck fs2
        (List.map
           (Printf.sprintf "inode %d references out-of-range block %d" victim)
           [ far; past; bitmap ]))

(* The size limit: a write or truncate that would take the file past
   the largest size the tree maps is refused before it changes
   anything; one that ends exactly there goes through. *)
let test_size_limit () =
  let eng, dev, fs = fresh_fs ~bsize:512 ~ninodes:64 () in
  let limit = Layout.max_file_size (superblock dev) in
  in_proc eng (fun () ->
      let f = Fs.create fs (Fs.root fs) "edge" Layout.Regular in
      Fs.write fs f ~off:0 (pattern 1000 1) ~mode:Fs.Sync;
      let free = (Fs.statfs fs).Fs.free_blocks in
      Alcotest.check_raises "write across the limit" (Fs.File_too_big (Fs.inum f)) (fun () ->
          Fs.write fs f ~off:(limit - 100) (pattern 200 2) ~mode:Fs.Sync);
      Alcotest.check_raises "truncate past the limit" (Fs.File_too_big (Fs.inum f)) (fun () ->
          Fs.truncate fs f (limit + 1));
      Alcotest.(check int) "size unchanged" 1000 (Fs.getattr f).Fs.size;
      Alcotest.(check int) "nothing allocated" free (Fs.statfs fs).Fs.free_blocks;
      Alcotest.(check bytes) "bytes unchanged" (pattern 1000 1) (Fs.read fs f ~off:0 ~len:1000);
      Fs.write fs f ~off:(limit - 100) (pattern 100 3) ~mode:Fs.Sync;
      Alcotest.(check int) "a write ending at the limit" limit (Fs.getattr f).Fs.size;
      Alcotest.(check bytes) "reads back" (pattern 100 3) (Fs.read fs f ~off:(limit - 100) ~len:100);
      match Fs.check fs with
      | Ok () -> ()
      | Error es -> Alcotest.failf "fsck: %s" (String.concat "; " es))

(* [check] walks each tree through the buffer cache, whose evicted
   buffers back later misses. One file's double-indirect block names 80
   level-2 blocks on a 512-byte-block volume; through the smallest
   cache [mount] allows, reading them evicts the double-indirect block
   long before the walk is done with its pointers, and the next miss
   refills its buffer. The walk must still see every pointer. *)
let test_check_through_the_minimum_cache () =
  let bs = 512 in
  let eng, dev, fs = fresh_fs ~bsize:bs ~ninodes:64 () in
  let p = bs / 4 and level2 = 80 in
  in_proc eng (fun () ->
      let f = Fs.create fs (Fs.root fs) "wide" Layout.Regular in
      (* One data block under each level-2 block. *)
      for i = 0 to level2 - 1 do
        Fs.write fs f ~off:((Layout.nd_direct + p + (i * p)) * bs) (pattern 1 i) ~mode:Fs.Delay_data
      done;
      Fs.commit_range_begin fs f ~off:0 ~len:(Fs.getattr f).Fs.size ();
      let double_ind = (dinode_on_disk dev (Fs.inum f)).Layout.double_ind in
      Fs.crash fs;
      dev.Device.recover ();
      let fs2 = Fs.mount eng dev ~cache_blocks:1 in
      (match Fs.check fs2 with
      | Ok () -> ()
      | Error es -> Alcotest.failf "%d faults, the first: %s" (List.length es) (List.hd es));
      Alcotest.(check bool) "the walk evicted the double-indirect block" true
        (Buffer_cache.peek (Fs.cache fs2) double_ind = None))

(* {1 Crash / recovery} *)

let test_crash_loses_delayed_keeps_synced () =
  let eng, dev, fs = fresh_fs () in
  in_proc eng (fun () ->
      let root = Fs.root fs in
      let f = Fs.create fs root "durable" Layout.Regular in
      Fs.write fs f ~off:0 (pattern 8192 21) ~mode:Fs.Sync;
      let g = Fs.create fs root "volatile" Layout.Regular in
      Fs.write fs g ~off:0 (pattern 8192 22) ~mode:Fs.Delay_data;
      Fs.crash fs;
      dev.Device.recover ();
      let fs2 = Fs.mount eng dev in
      let root2 = Fs.root fs2 in
      let f2 = Fs.lookup fs2 root2 "durable" in
      Alcotest.(check bytes) "synced data survived" (pattern 8192 21) (Fs.read fs2 f2 ~off:0 ~len:8192);
      (* volatile's data never hit the disk; its create was durable, so
         the name exists with size but zero/absent content is the
         honest outcome; what matters is its *size* metadata was never
         fsynced either. *)
      let g2 = Fs.lookup fs2 root2 "volatile" in
      Alcotest.(check int) "unsynced size lost" 0 (Fs.getattr g2).Fs.size;
      match Fs.check fs2 with
      | Ok () -> ()
      | Error es -> Alcotest.failf "fsck after crash: %s" (String.concat "; " es))

(* The format generation lives on the platter: a blank device's first
   format is generation 1 in every world, a remount reads it back, and
   a reformat stamps the next. *)
let test_format_generation () =
  let eng, dev, fs = fresh_fs () in
  Alcotest.(check int) "first format" 1 (Fs.format_generation fs);
  Alcotest.(check int) "remount" 1 (Fs.format_generation (Fs.mount eng dev));
  Fs.mkfs dev ~ninodes:512 ();
  Alcotest.(check int) "reformat" 2 (Fs.format_generation (Fs.mount eng dev))

let test_remount_rebuilds_bitmap () =
  let eng, dev, fs = fresh_fs () in
  in_proc eng (fun () ->
      let f = Fs.create fs (Fs.root fs) "keep" Layout.Regular in
      Fs.write fs f ~off:0 (pattern 100_000 31) ~mode:Fs.Sync;
      let free_live = (Fs.statfs fs).Fs.free_blocks in
      Fs.crash fs;
      dev.Device.recover ();
      let fs2 = Fs.mount eng dev in
      (* Same reachable blocks -> same free count. *)
      Alcotest.(check int) "bitmap rebuilt" free_live (Fs.statfs fs2).Fs.free_blocks;
      (* Writing after recovery must not clobber existing data. *)
      let g = Fs.create fs2 (Fs.root fs2) "after" Layout.Regular in
      Fs.write fs2 g ~off:0 (pattern 50_000 32) ~mode:Fs.Sync;
      let f2 = Fs.lookup fs2 (Fs.root fs2) "keep" in
      Alcotest.(check bytes) "old data intact" (pattern 100_000 31)
        (Fs.read fs2 f2 ~off:0 ~len:100_000);
      match Fs.check fs2 with
      | Ok () -> ()
      | Error es -> Alcotest.failf "fsck: %s" (String.concat "; " es))

(* Regression for the write-path lock leak nfsrace's Y003 found: the
   old open-coded lock/unlock pairs only released on the exceptions
   the handler anticipated, so anything else (allocator assert, fault
   injection) wedged the vnode for every later writer. [Fs.with_lock]
   must release on ANY exception and leave the vnode usable. *)
exception Unexpected

let test_vnode_lock_released_on_unexpected_exception () =
  let eng, _, fs = fresh_fs () in
  in_proc eng (fun () ->
      let f = Fs.create fs (Fs.root fs) "leak" Layout.Regular in
      (match Fs.with_lock f (fun () -> raise Unexpected) with
      | () -> Alcotest.fail "the exception must propagate"
      | exception Unexpected -> ());
      Alcotest.(check bool) "vnode unlocked after raise" false (Mutex.locked (Fs.lock_of f));
      (* The call the leak used to wedge: a later locked write. *)
      let committed = ref false in
      Fs.with_lock f (fun () ->
          Fs.write fs f ~off:0 (pattern 100 3) ~mode:Fs.Sync;
          committed := true);
      Alcotest.(check bool) "later locked write proceeds" true !committed)

(* An inode change made while a metadata commit is in flight must
   survive it: the commit marks the inode clean when it snapshots it,
   not when the device answers, so the size change below stays dirty
   for the next commit instead of being dropped. *)
let test_inode_change_during_commit_kept () =
  let eng, dev, fs = fresh_fs () in
  let f =
    in_proc eng (fun () ->
        let f = Fs.create fs (Fs.root fs) "grow" Layout.Regular in
        Fs.write fs f ~off:0 (pattern 8192 5) ~mode:Fs.Sync;
        f)
  in
  Engine.spawn eng ~name:"committer" (fun () ->
      Fs.touch fs f ~mtime:(Engine.now eng);
      Fs.fsync_metadata fs f);
  Engine.spawn eng ~name:"extender" (fun () ->
      Engine.delay (Time.of_us_f 100.0);
      Fs.write fs f ~off:8192 (pattern 8192 6) ~mode:Fs.Sync_data_only);
  Engine.run eng;
  Alcotest.(check bool) "size change still dirty" true (Fs.meta_dirty f <> `Clean);
  in_proc eng (fun () -> Fs.fsync_metadata fs f);
  Fs.crash fs;
  dev.Device.recover ();
  let fs2 = Fs.mount eng dev in
  let size = (Fs.getattr (in_proc eng (fun () -> Fs.lookup fs2 (Fs.root fs2) "grow"))).Fs.size in
  Alcotest.(check int) "size durable" 16384 size

let prop_random_writes_match_model =
  (* Random (offset, length) writes against an in-memory reference. *)
  let arb =
    QCheck.make
      ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
      QCheck.Gen.(list_size (1 -- 25) (pair (int_bound 120_000) (int_range 1 20_000)))
  in
  QCheck.Test.make ~name:"random writes equal sparse-file model" ~count:25 arb (fun ops ->
      let eng, _, fs = fresh_fs () in
      let model = Bytes.make 160_000 '\000' in
      let model_size = ref 0 in
      in_proc eng (fun () ->
          let f = Fs.create fs (Fs.root fs) "m" Layout.Regular in
          List.iteri
            (fun i (off, len) ->
              let data = pattern len (i + 1) in
              let mode = if i mod 2 = 0 then Fs.Sync else Fs.Delay_data in
              Fs.write fs f ~off data ~mode;
              Bytes.blit data 0 model off len;
              model_size := Stdlib.max !model_size (off + len))
            ops;
          let expect = Bytes.sub model 0 !model_size in
          Fs.read fs f ~off:0 ~len:!model_size = expect
          && (Fs.getattr f).Fs.size = !model_size))

type tree_op = Grow of int * int  (** offset, length *) | Cut of int  (** new size *)

(* One file on a 512-byte-block volume, whose 12 direct, 128
   single-indirect and double-indirect blocks the writes and truncates
   cross back and forth, through three level-2 blocks: after a commit,
   a crash and a remount it reads back as a model, the rebuilt bitmap
   frees exactly what was free before the crash, and fsck is clean. *)
let prop_block_tree_survives_remount =
  let bs = 512 in
  let cap = bs * (12 + 128 + (3 * 128)) in
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun off len -> Grow (off, len)) (int_bound (cap - 1)) (int_range 1 (16 * bs)));
          (1, map (fun size -> Cut size) (int_bound cap));
        ])
  in
  let show = function
    | Grow (off, len) -> Printf.sprintf "write %d+%d" off len
    | Cut size -> Printf.sprintf "truncate %d" size
  in
  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map show ops))
      QCheck.Gen.(list_size (1 -- 20) op)
  in
  QCheck.Test.make ~name:"a double-indirect file survives a remount" ~count:30 arb (fun ops ->
      let eng, dev, fs = fresh_fs ~bsize:bs ~ninodes:64 () in
      let model = Bytes.make cap '\000' and size = ref 0 in
      let free_live =
        in_proc eng (fun () ->
            let f = Fs.create fs (Fs.root fs) "tree" Layout.Regular in
            List.iteri
              (fun i op ->
                match op with
                | Grow (off, len) ->
                    let data = pattern (Stdlib.min len (cap - off)) (i + 1) in
                    Fs.write fs f ~off data ~mode:(if i mod 3 = 0 then Fs.Sync else Fs.Delay_data);
                    Bytes.blit data 0 model off (Bytes.length data);
                    size := Stdlib.max !size (off + Bytes.length data)
                | Cut s ->
                    Fs.truncate fs f s;
                    let kept = (s + bs - 1) / bs * bs in
                    Bytes.fill model kept (cap - kept) '\000';
                    size := s)
              ops;
            Fs.commit_range_begin fs f ~off:0 ~len:!size ();
            (Fs.statfs fs).Fs.free_blocks)
      in
      Fs.crash fs;
      dev.Device.recover ();
      let fs2 = Fs.mount eng dev in
      in_proc eng (fun () ->
          let f = Fs.lookup fs2 (Fs.root fs2) "tree" in
          let got = (Fs.getattr f).Fs.size in
          if got <> !size then QCheck.Test.fail_reportf "size %d, model %d" got !size;
          if not (Bytes.equal (Fs.read fs2 f ~off:0 ~len:!size) (Bytes.sub model 0 !size)) then
            QCheck.Test.fail_report "reads back other bytes than the model";
          let free = (Fs.statfs fs2).Fs.free_blocks in
          if free <> free_live then
            QCheck.Test.fail_reportf "%d blocks free after the remount, %d before the crash" free free_live;
          match Fs.check fs2 with
          | Ok () -> true
          | Error es -> QCheck.Test.fail_reportf "fsck: %s" (String.concat "; " es)))

(* {1 Copy-on-write}

   A cluster write carries the cache's own block buffers. These tests
   change a block while its write is in flight and check, from a device
   wrapper, that every write still reaches the platter with exactly the
   bytes it was submitted with. *)

(* Wraps [dev]: copies each write's bytes when it is submitted, and when
   it completes compares the platter with that copy. *)
type recorder = {
  mutable writes : Io.req list;  (** newest first *)
  mutable mismatches : string list;
}

let recording (dev : Device.t) =
  let rc = { writes = []; mismatches = [] } in
  let note (r : Io.req) =
    if Io.is_write r then begin
      let at_submit = Io.sub r ~pos:0 ~len:r.Io.len in
      rc.writes <- r :: rc.writes;
      Ivar.upon r.Io.done_ (fun () ->
          if
            r.Io.error = None
            && not (Bytes.equal (dev.Device.stable_read ~off:r.Io.off ~len:r.Io.len) at_submit)
          then
            rc.mismatches <-
              Printf.sprintf "%d-byte write at %d: the platter differs from its bytes at submission"
                r.Io.len r.Io.off
              :: rc.mismatches)
    end
  in
  let submit items =
    List.iter (function Io.Req r -> note r | Io.Barrier _ -> ()) items;
    dev.Device.submit items
  in
  (rc, { dev with Device.submit })

let recorded_fs ?cache_blocks () =
  let eng = Engine.create () in
  let disk = Disk.create eng geometry in
  Fs.mkfs disk ~ninodes:512 ();
  let rc, dev = recording disk in
  (eng, disk, rc, Fs.mount eng ?cache_blocks dev)

let no_mismatch rc = Alcotest.(check (list string)) "every write landed as submitted" [] rc.mismatches

(* The newest recorded write of class [class_]. *)
let last_write rc class_ =
  match List.find_opt (fun (r : Io.req) -> r.Io.class_ = class_) rc.writes with
  | Some w -> w
  | None -> Alcotest.failf "no %s write recorded" (Io.class_name class_)

(* Power fails, stays off while the queue would drain, and returns. *)
let power_cycle fs (disk : Device.t) =
  Fs.crash fs;
  Engine.delay (Time.ms 200);
  disk.Device.recover ()

let test_data_rewrite_during_flush () =
  let eng, disk, rc, fs = recorded_fs () in
  let bs = 8192 in
  let first = pattern (4 * bs) 1 and rewrite = pattern bs 2 in
  in_proc eng (fun () ->
      let f = Fs.create fs (Fs.root fs) "cow" Layout.Regular in
      Fs.write fs f ~off:0 first ~mode:Fs.Delay_data;
      let await = Fs.commit_range_begin fs f ~off:0 ~len:(4 * bs) in
      (* The gathered flush is queued, not yet serviced: rewrite its
         third block. *)
      Fs.write fs f ~off:(2 * bs) rewrite ~mode:Fs.Delay_data;
      await ();
      let flush = last_write rc `Gather_flush in
      Alcotest.(check int) "one 4-block cluster" (4 * bs) flush.Io.len;
      let b2 = flush.Io.off + (2 * bs) in
      Alcotest.(check bytes) "the platter has the bytes at submission" (Bytes.sub first (2 * bs) bs)
        (disk.Device.stable_read ~off:b2 ~len:bs);
      Alcotest.(check bytes) "the cache keeps the rewrite" rewrite (Fs.read fs f ~off:(2 * bs) ~len:bs);
      Alcotest.(check bool) "the rewritten block is dirty" true
        (Buffer_cache.is_dirty (Fs.cache fs) (b2 / bs));
      Fs.syncdata fs f ~off:0 ~len:(4 * bs);
      Alcotest.(check bytes) "the next commit writes it" rewrite (disk.Device.stable_read ~off:b2 ~len:bs);
      no_mismatch rc)

let test_crash_during_rewritten_flush () =
  let eng, disk, rc, fs = recorded_fs () in
  let bs = 8192 in
  let durable = pattern (4 * bs) 1 in
  in_proc eng (fun () ->
      let f = Fs.create fs (Fs.root fs) "cow" Layout.Regular in
      Fs.write fs f ~off:0 durable ~mode:Fs.Sync;
      Fs.write fs f ~off:0 (pattern (4 * bs) 3) ~mode:Fs.Delay_data;
      let (_ : unit -> unit) = Fs.commit_range_begin fs f ~off:0 ~len:(4 * bs) in
      Fs.write fs f ~off:(2 * bs) (pattern bs 4) ~mode:Fs.Delay_data;
      let flush = last_write rc `Gather_flush in
      power_cycle fs disk;
      Alcotest.(check bytes) "a crash before completion leaves the platter as it was" durable
        (disk.Device.stable_read ~off:flush.Io.off ~len:(4 * bs)))

(* The inode-table block holds both files' inodes. *)
let inode_sizes_in disk buf ~f ~g =
  let sb = Layout.decode_superblock (disk.Device.stable_read ~off:0 ~len:512) in
  let size (ino : Fs.inode) =
    let _, off = Layout.inode_block sb (Fs.inum ino) in
    (Layout.decode_dinode (Bytes.sub buf off Layout.inode_size)).Layout.size
  in
  (size f, size g)

(* Two files whose inodes share a table block, both committed at 100
   bytes and then grown to 150 in core; [f]'s metadata commit is then
   submitted, and in flight until the caller yields. Returns the files,
   that commit's await and its request. *)
let neighbours_with_commit_in_flight rc fs =
  let f = Fs.create fs (Fs.root fs) "f" Layout.Regular in
  let g = Fs.create fs (Fs.root fs) "g" Layout.Regular in
  Fs.write fs f ~off:0 (pattern 100 1) ~mode:Fs.Sync;
  Fs.write fs g ~off:0 (pattern 100 2) ~mode:Fs.Sync;
  Fs.write fs f ~off:100 (pattern 50 3) ~mode:Fs.Delay_data;
  Fs.write fs g ~off:100 (pattern 50 4) ~mode:Fs.Delay_data;
  let await_f = Fs.commit_range_begin fs f ~off:0 ~len:0 in
  let r1 = last_write rc `Sync_write in
  (f, g, await_f, r1)

let test_inode_block_change_during_commit () =
  let eng, disk, rc, fs = recorded_fs () in
  let pair = Alcotest.(pair int int) in
  in_proc eng (fun () ->
      let f, g, await_f, r1 = neighbours_with_commit_in_flight rc fs in
      let iblk = r1.Io.off / 8192 in
      (* [g]'s commit changes the block [f]'s commit is writing. *)
      let await_g = Fs.commit_range_begin fs g ~off:0 ~len:0 in
      Alcotest.check pair "the cache keeps the new bytes" (150, 150)
        (inode_sizes_in disk (Option.get (Buffer_cache.peek (Fs.cache fs) iblk)) ~f ~g);
      await_f ();
      Alcotest.check pair "the platter has the first commit's bytes at submission" (150, 100)
        (inode_sizes_in disk (disk.Device.stable_read ~off:r1.Io.off ~len:8192) ~f ~g);
      await_g ();
      Alcotest.check pair "the next commit writes the new bytes" (150, 150)
        (inode_sizes_in disk (disk.Device.stable_read ~off:r1.Io.off ~len:8192) ~f ~g);
      no_mismatch rc)

let test_crash_during_inode_block_change () =
  let eng, disk, rc, fs = recorded_fs () in
  in_proc eng (fun () ->
      let f, g, _, r1 = neighbours_with_commit_in_flight rc fs in
      let (_ : unit -> unit) = Fs.commit_range_begin fs g ~off:0 ~len:0 in
      power_cycle fs disk;
      Alcotest.(check (pair int int)) "a crash before completion leaves the platter as it was" (100, 100)
        (inode_sizes_in disk (disk.Device.stable_read ~off:r1.Io.off ~len:8192) ~f ~g))

type cow_op =
  | W of int * int * int  (** file, offset, length: a delayed write *)
  | T of int * int  (** file, new size *)
  | C of int * int * int  (** file, offset, length: a commit, awaited by a process of its own *)
  | Y of int  (** let the disk run for this many microseconds *)
  | R of int  (** file: remove it and create it anew, empty *)

let show_cow_op = function
  | W (k, off, len) -> Printf.sprintf "write f%d %d+%d" k off len
  | T (k, size) -> Printf.sprintf "truncate f%d %d" k size
  | C (k, off, len) -> Printf.sprintf "commit f%d %d+%d" k off len
  | Y us -> Printf.sprintf "yield %dus" us
  | R k -> Printf.sprintf "remove f%d" k

(* Writes, truncates, removes and commits of two files, interleaved
   with commits still in flight: every write reaches the platter with
   the bytes it was submitted with, and the files read back as a model
   kept alongside. Truncation frees whole blocks past the new end
   (they read back as zeros) and keeps the tail of the last one; a
   remove frees them all, busy ones included, and the file is created
   again, empty. A freed block's buffer backs later fills, so the
   recorder is also what catches a buffer reused while a write still
   holds it. The second arm runs longer cases through the smallest
   cache [mount] allows, so they evict, re-read and re-lend the disk's
   pages: a lent page written into, or reused as a fill buffer, shows
   there as wrong bytes on the platter or in a file. *)
let cow_writes_land_as_submitted ?cache_blocks ~ops name =
  let bs = 8192 and cap = 160_000 in
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map3 (fun k off len -> W (k, off, len)) (int_bound 1) (int_bound 120_000) (int_range 1 20_000));
          (1, map2 (fun k size -> T (k, size)) (int_bound 1) (int_bound 140_000));
          (3, map3 (fun k off len -> C (k, off, len)) (int_bound 1) (int_bound 120_000) (int_bound 40_000));
          (2, map (fun us -> Y us) (int_bound 30_000));
          (1, map (fun k -> R k) (int_bound 1));
        ])
  in
  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map show_cow_op ops))
      QCheck.Gen.(list_size (1 -- ops) op)
  in
  QCheck.Test.make ~name ~count:40 arb (fun ops ->
      let eng, _, rc, fs = recorded_fs ?cache_blocks () in
      let models = Array.init 2 (fun _ -> Bytes.make cap '\000') and sizes = Array.make 2 0 in
      let files =
        in_proc eng (fun () ->
            Array.init 2 (fun k -> Fs.create fs (Fs.root fs) (Printf.sprintf "f%d" k) Layout.Regular))
      in
      in_proc eng (fun () ->
          List.iteri
            (fun i op ->
              match op with
              | W (k, off, len) ->
                  let data = pattern len (i + 1) in
                  Fs.write fs files.(k) ~off data ~mode:Fs.Delay_data;
                  Bytes.blit data 0 models.(k) off len;
                  sizes.(k) <- Stdlib.max sizes.(k) (off + len)
              | T (k, size) ->
                  Fs.truncate fs files.(k) size;
                  let kept = (size + bs - 1) / bs * bs in
                  if kept < cap then Bytes.fill models.(k) kept (cap - kept) '\000';
                  sizes.(k) <- size
              | C (k, off, len) ->
                  let await = Fs.commit_range_begin fs files.(k) ~off ~len in
                  Engine.spawn eng ~name:"awaiter" await
              | Y us -> Engine.delay (Time.us us)
              | R k ->
                  let name = Printf.sprintf "f%d" k in
                  Fs.remove fs (Fs.root fs) name;
                  files.(k) <- Fs.create fs (Fs.root fs) name Layout.Regular;
                  Bytes.fill models.(k) 0 cap '\000';
                  sizes.(k) <- 0)
            ops);
      let contents =
        in_proc eng (fun () ->
            Array.map (fun f -> Fs.read fs f ~off:0 ~len:(Fs.getattr f).Fs.size) files)
      in
      (match rc.mismatches with [] -> () | m :: _ -> QCheck.Test.fail_report m);
      Array.iteri
        (fun k got ->
          if not (Bytes.equal got (Bytes.sub models.(k) 0 sizes.(k))) then
            QCheck.Test.fail_reportf "f%d reads back other bytes than the model" k)
        contents;
      true)

let prop_cow_writes_land_as_submitted =
  cow_writes_land_as_submitted ~ops:30 "writes land as submitted under copy-on-write"

let prop_cow_writes_land_through_the_minimum_cache =
  cow_writes_land_as_submitted ~cache_blocks:1 ~ops:100
    "writes land as submitted under copy-on-write, through the minimum cache"

(* {1 Buffer reuse}

   An evicted block's buffer backs the cache's next fill. A block busy
   in a write request is no victim: it stays cached until the request
   completes. *)

(* Wraps [dev]: holds every write until [release] hands them down or
   [fail] fails them, so reads overtake them. *)
let holding (dev : Device.t) =
  let held = ref [] in
  let submit items =
    let writes, reads =
      List.partition (function Io.Req r -> Io.is_write r | Io.Barrier _ -> true) items
    in
    held := !held @ writes;
    if reads <> [] then dev.Device.submit reads
  in
  let take () =
    let writes = !held in
    held := [];
    writes
  in
  let release () = dev.Device.submit (take ()) in
  let fail exn = List.iter (fun item -> Io.fail_item item exn) (take ()) in
  ({ dev with Device.submit }, release, fail)

(* An 8-block cache whose 8 blocks, 100 to 107, are dirty with 'd'
   bytes and written as one cluster, held back. *)
let held_cluster () =
  let eng = Engine.create () in
  let disk = Disk.create eng geometry in
  let held, release, fail = holding disk in
  let rc, dev = recording held in
  let cache = Buffer_cache.create dev ~bsize:8192 ~max_blocks:8 () in
  let blocks = List.init 8 (fun i -> 100 + i) in
  List.iter
    (fun b ->
      Buffer_cache.modify cache b Buffer_cache.Data Buffer_cache.Overwritten (fun buf ->
          Bytes.fill buf 0 8192 'd'))
    blocks;
  let submit () =
    let p = Buffer_cache.prepare cache ~class_:`Gather_flush ~max_cluster:(64 * 1024) blocks in
    dev.Device.submit (Buffer_cache.prepared_items p);
    p
  in
  (eng, disk, rc, cache, blocks, submit, release, fail)

(* While the cluster is held back every block is busy, so a miss evicts
   none of them and fills a buffer of its own. Once the write lands as
   submitted, each block holds the disk's page, and the buffers the
   cluster carried back later misses; evicting a block leaves its page,
   and the bytes in it, to the disk. *)
let test_busy_block_is_no_victim () =
  let eng, disk, rc, cache, blocks, submit, release, _ = held_cluster () in
  let bs = 8192 in
  let buf_of b = Option.get (Buffer_cache.peek cache b) in
  let bufs = List.map buf_of blocks in
  in_proc eng (fun () ->
      let p = submit () in
      ignore (Buffer_cache.get cache 300 : Bytes.t);
      Alcotest.(check bool) "every busy block stays cached" true
        (List.for_all (fun b -> Buffer_cache.peek cache b <> None) blocks);
      Alcotest.(check bool) "the miss filled another buffer" false
        (List.exists (fun buf -> buf == buf_of 300) bufs);
      release ();
      Buffer_cache.await_prepared cache [ p ];
      no_mismatch rc;
      List.iter
        (fun b ->
          Alcotest.(check bytes) "the platter has the cluster" (Bytes.make bs 'd')
            (disk.Device.stable_read ~off:(b * bs) ~len:bs))
        blocks;
      let victim = buf_of 100 in
      Alcotest.(check bool) "the landed block holds the disk's page" true
        (victim == disk.Device.stable_page ~off:(100 * bs));
      ignore (Buffer_cache.get cache 301 : Bytes.t);
      Alcotest.(check bool) "the idle block is the victim" true (Buffer_cache.peek cache 100 = None);
      ignore (Buffer_cache.get cache 302 : Bytes.t);
      Alcotest.(check bool) "the cluster's buffers back later misses" true
        (List.for_all (fun b -> List.exists (fun buf -> buf == buf_of b) bufs) [ 301; 302 ]);
      Alcotest.(check bytes) "filled with its own block" (Bytes.make bs '\000') (buf_of 302);
      Alcotest.(check bytes) "the victim's page keeps its bytes" (Bytes.make bs 'd') victim)

(* A miss while the cluster is held back, then the write fails: the
   block the miss would have evicted is still cached, dirty again, with
   its bytes in the buffer it was written from, so a later sync can
   retry it. The platter's older bytes stay the disk's: a failed write
   lends no page. *)
let test_failed_write_keeps_its_blocks () =
  let eng, disk, _, cache, _, submit, _, fail = held_cluster () in
  disk.Device.stable_write ~off:(100 * 8192) (Bytes.make (8 * 8192) 'o');
  let written = Option.get (Buffer_cache.peek cache 100) in
  in_proc eng (fun () ->
      let p = submit () in
      ignore (Buffer_cache.get cache 300 : Bytes.t);
      fail (Device.Io_error "held write");
      (match Buffer_cache.await_prepared cache [ p ] with
      | () -> Alcotest.fail "the held write failed"
      | exception Device.Io_error _ -> ());
      Alcotest.(check bool) "block 100 is dirty" true (Buffer_cache.is_dirty cache 100);
      Alcotest.(check (option bytes)) "with its bytes" (Some (Bytes.make 8192 'd'))
        (Buffer_cache.peek cache 100);
      Alcotest.(check bool) "in the buffer it was written from" true
        (Option.get (Buffer_cache.peek cache 100) == written))

(* {1 Lent pages}

   A clean block holds the disk's own page of stable storage instead of
   a private copy, and the buffer it held backs a later fill. The cache
   never writes into a lent page and never fills one. *)

(* Wraps [dev]: keeps the buffer of every read request, newest first. *)
let read_buffers (dev : Device.t) =
  let seen = ref [] in
  let submit items =
    List.iter
      (function Io.Req r when not (Io.is_write r) -> seen := Io.read_buf r :: !seen | _ -> ())
      items;
    dev.Device.submit items
  in
  (seen, { dev with Device.submit })

(* Write the dirty subset of [blocks] as clusters and await them. *)
let flush cache (dev : Device.t) blocks =
  let p = Buffer_cache.prepare cache ~class_:`Gather_flush ~max_cluster:(64 * 1024) blocks in
  dev.Device.submit (Buffer_cache.prepared_items p);
  Buffer_cache.await_prepared cache [ p ]

(* An 8-block cache whose 8 blocks, 100 to 107, were written with 'd'
   bytes as one cluster, which has landed. Returns the buffers the
   cluster carried too. *)
let landed_cluster () =
  let eng = Engine.create () in
  let disk = Disk.create eng geometry in
  let reads, dev = read_buffers disk in
  let cache = Buffer_cache.create dev ~bsize:8192 ~max_blocks:8 () in
  let blocks = List.init 8 (fun i -> 100 + i) in
  List.iter
    (fun b ->
      Buffer_cache.modify cache b Buffer_cache.Data Buffer_cache.Overwritten (fun buf ->
          Bytes.fill buf 0 8192 'd'))
    blocks;
  let bufs = List.map (fun b -> Option.get (Buffer_cache.peek cache b)) blocks in
  in_proc eng (fun () -> flush cache dev blocks);
  (eng, disk, dev, reads, cache, blocks, bufs)

let test_landed_cluster_lends_pages () =
  let eng, disk, _, reads, cache, blocks, bufs = landed_cluster () in
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "block %d holds the disk's page" b)
        true
        (Option.get (Buffer_cache.peek cache b) == disk.Device.stable_page ~off:(b * 8192)))
    blocks;
  in_proc eng (fun () -> ignore (Buffer_cache.get cache 300 : Bytes.t));
  match !reads with
  | [ buf ] ->
      Alcotest.(check bool) "a buffer the cluster carried backs the next miss" true
        (List.exists (fun b -> b == buf) bufs)
  | l -> Alcotest.failf "%d reads for one miss" (List.length l)

let test_lent_block_changes_in_a_copy () =
  let eng, disk, dev, _, cache, _, _ = landed_cluster () in
  let bs = 8192 in
  let page = disk.Device.stable_page ~off:(100 * bs) in
  let changed = Bytes.make bs 'd' in
  Bytes.fill changed 0 10 'x';
  Buffer_cache.modify cache 100 Buffer_cache.Data Buffer_cache.From_disk (fun buf ->
      Bytes.fill buf 0 10 'x');
  Alcotest.(check (option bytes)) "the cache has the change" (Some changed) (Buffer_cache.peek cache 100);
  Alcotest.(check bytes) "the platter keeps its bytes" (Bytes.make bs 'd')
    (disk.Device.stable_read ~off:(100 * bs) ~len:bs);
  in_proc eng (fun () -> flush cache dev [ 100 ]);
  Alcotest.(check bytes) "until the flush lands" changed (disk.Device.stable_read ~off:(100 * bs) ~len:bs);
  Alcotest.(check bool) "and the block holds the page again" true
    (Option.get (Buffer_cache.peek cache 100) == page)

let test_evicted_lent_block_stays_on_the_platter () =
  let eng, disk, _, _, cache, blocks, _ = landed_cluster () in
  (* Blocks never written: the disk lends no page for them, so each
     miss keeps the buffer it read into. *)
  in_proc eng (fun () ->
      for b = 300 to 315 do
        ignore (Buffer_cache.get cache b : Bytes.t)
      done);
  List.iter
    (fun b ->
      Alcotest.(check bool) (Printf.sprintf "block %d was evicted" b) true (Buffer_cache.peek cache b = None);
      Alcotest.(check bytes) "its bytes stay on the platter" (Bytes.make 8192 'd')
        (disk.Device.stable_read ~off:(b * 8192) ~len:8192))
    blocks

(* A device whose newest bytes are not in one page of its own lends
   none, though the platter underneath holds a page for the block: a
   flushed block keeps the buffer it was written from. *)
let flushed_block_keeps_its_buffer eng (dev : Device.t) =
  let cache = Buffer_cache.create dev ~bsize:8192 () in
  Buffer_cache.modify cache 100 Buffer_cache.Data Buffer_cache.Overwritten (fun buf ->
      Bytes.fill buf 0 8192 'd');
  let written = Option.get (Buffer_cache.peek cache 100) in
  in_proc eng (fun () -> flush cache dev [ 100 ]);
  let now = Option.get (Buffer_cache.peek cache 100) in
  now == written && Bytes.equal now (Bytes.make 8192 'd')

let test_nvram_and_stripe_lend_nothing () =
  let eng = Engine.create () in
  let disk = Disk.create eng geometry in
  disk.Device.stable_write ~off:(100 * 8192) (Bytes.make 8192 'o');
  let _, nvram = Nvram.create eng disk in
  Alcotest.(check bool) "over NVRAM" true (flushed_block_keeps_its_buffer eng nvram);
  let eng = Engine.create () in
  let members =
    Array.init 3 (fun i ->
        let m = Disk.create eng ~name:(Printf.sprintf "m%d" i) geometry in
        m.Device.stable_write ~off:0 (Bytes.make (1024 * 1024) 'o');
        m)
  in
  let stripe = Stripe.device (Stripe.create eng ~chunk:8192 members) in
  Alcotest.(check bool) "over a stripe set" true (flushed_block_keeps_its_buffer eng stripe)

(* Block [b] rewritten whole with [c] bytes and prepared as a write of
   its own, not yet submitted. *)
let prepare_rewrite cache b c =
  Buffer_cache.modify cache b Buffer_cache.Data Buffer_cache.Overwritten (fun buf ->
      Bytes.fill buf 0 8192 c);
  Buffer_cache.prepare cache ~class_:`Gather_flush ~max_cluster:8192 [ b ]

(* A write fails while the other request of its set is still in
   flight, and before the set's await returns, its block is changed,
   flushed and lent the page. The await dirties the block again (the
   failed bytes must reach the platter) in a private copy: the next
   flush writes the copy, never the page, so the page never joins the
   spares and the next miss does not read into it. *)
let test_failed_write_redirties_in_a_copy () =
  let eng = Engine.create () in
  let disk = Disk.create eng geometry in
  let reads, dev = read_buffers disk in
  let cache = Buffer_cache.create dev ~bsize:8192 ~max_blocks:8 () in
  let bs = 8192 in
  let page () = disk.Device.stable_page ~off:(100 * bs) in
  List.iter
    (fun b ->
      Buffer_cache.modify cache b Buffer_cache.Data Buffer_cache.Overwritten (fun buf ->
          Bytes.fill buf 0 bs 'a'))
    [ 100; 200 ];
  in_proc eng (fun () ->
      let p = Buffer_cache.prepare cache ~class_:`Gather_flush ~max_cluster:(64 * 1024) [ 100; 200 ] in
      match Buffer_cache.prepared_items p with
      | [ Io.Req failed; Io.Req other ] ->
          Io.fail failed (Device.Io_error "injected");
          Buffer_cache.modify cache 100 Buffer_cache.Data Buffer_cache.From_disk (fun buf ->
              Bytes.fill buf 0 bs 'b');
          flush cache dev [ 100 ];
          Alcotest.(check bool) "the rewrite landed and lent the page" true
            (Option.get (Buffer_cache.peek cache 100) == page ());
          dev.Device.submit [ Io.Req other ];
          (match Buffer_cache.await_prepared cache [ p ] with
          | () -> Alcotest.fail "the set had a failed write"
          | exception Device.Io_error _ -> ());
          Alcotest.(check bool) "the failed block is dirty again" true (Buffer_cache.is_dirty cache 100);
          Alcotest.(check bool) "in a buffer of its own" false
            (Option.get (Buffer_cache.peek cache 100) == page ());
          flush cache dev [ 100 ];
          ignore (Buffer_cache.get cache 300 : Bytes.t);
          Alcotest.(check bool) "the next miss reads into another buffer than the page" false
            (List.hd !reads == page ());
          Alcotest.(check bytes) "the platter keeps the block's bytes" (Bytes.make bs 'b')
            (disk.Device.stable_read ~off:(100 * bs) ~len:bs)
      | _ -> Alcotest.fail "expected two cluster writes")

(* Two writes of one block in flight, and the newer lands first: an
   elevator serves it while a barrier holds the older back behind a far
   request. A block takes no page while a write of it is left to land,
   so the cache keeps the newer bytes, though the older write lands in
   the page last. *)
let test_reordered_writes_keep_the_newer_bytes () =
  let eng = Engine.create () in
  let disk = Disk.create eng ~scheduler:Disk.Elevator geometry in
  let cache = Buffer_cache.create disk ~bsize:8192 () in
  let bs = 8192 in
  in_proc eng (fun () ->
      let older = prepare_rewrite cache 100 'a' in
      let newer = prepare_rewrite cache 100 'b' in
      let far = Io.write_req ~class_:`Gather_flush ~off:(3000 * bs) [ Bytes.make bs 'f' ] in
      disk.Device.submit (Io.Req far :: Io.barrier () :: Buffer_cache.prepared_items older);
      disk.Device.submit (Buffer_cache.prepared_items newer);
      Buffer_cache.await_prepared cache [ older; newer ];
      Alcotest.(check bytes) "the older write landed last" (Bytes.make bs 'a')
        (disk.Device.stable_read ~off:(100 * bs) ~len:bs);
      Alcotest.(check (option bytes)) "the cache keeps the newer bytes" (Some (Bytes.make bs 'b'))
        (Buffer_cache.peek cache 100))

(* The newer of two writes lands, the block is evicted and read again
   before the older write lands: a write of a block that left the cache
   still counts, so the block read again keeps the bytes the read
   returned in a buffer of its own. *)
let test_reread_block_takes_no_page_while_a_write_is_left () =
  let eng = Engine.create () in
  let disk = Disk.create eng geometry in
  let cache = Buffer_cache.create disk ~bsize:8192 ~max_blocks:8 () in
  let bs = 8192 in
  in_proc eng (fun () ->
      let older = prepare_rewrite cache 100 'a' in
      let newer = prepare_rewrite cache 100 'b' in
      disk.Device.submit (Buffer_cache.prepared_items newer);
      Buffer_cache.await_prepared cache [ newer ];
      for b = 300 to 307 do
        ignore (Buffer_cache.get cache b : Bytes.t)
      done;
      Alcotest.(check bool) "block 100 was evicted" true (Buffer_cache.peek cache 100 = None);
      Alcotest.(check bytes) "and reads back the newer bytes" (Bytes.make bs 'b') (Buffer_cache.get cache 100);
      disk.Device.submit (Buffer_cache.prepared_items older);
      Buffer_cache.await_prepared cache [ older ];
      Alcotest.(check bytes) "the older write landed last" (Bytes.make bs 'a')
        (disk.Device.stable_read ~off:(100 * bs) ~len:bs);
      Alcotest.(check (option bytes)) "the cache keeps what the read returned" (Some (Bytes.make bs 'b'))
        (Buffer_cache.peek cache 100))

(* Wraps [dev]: while [hold] is set, a read's data is read at once but
   its completion waits for [release]. *)
let late_reads (dev : Device.t) =
  let hold = ref false and held = ref [] in
  let submit items =
    let items =
      List.map
        (function
          | Io.Req r when !hold && not (Io.is_write r) ->
              let twin = { r with Io.done_ = Ivar.create (); error = None } in
              held := r :: !held;
              Io.Req twin
          | item -> item)
        items
    in
    dev.Device.submit items
  in
  let release () =
    List.iter Io.complete !held;
    held := []
  in
  (hold, release, { dev with Device.submit })

(* A block read again while an older write of it is left to land, and
   the write lands and completes before the read's completion: the
   read's bytes are then behind the page's, and the block keeps them
   in a buffer of its own. *)
let test_fill_behind_the_page_takes_no_page () =
  let eng = Engine.create () in
  let disk = Disk.create eng geometry in
  let hold, release, dev = late_reads disk in
  let cache = Buffer_cache.create dev ~bsize:8192 ~max_blocks:8 () in
  let bs = 8192 in
  in_proc eng (fun () ->
      let older = prepare_rewrite cache 100 'a' in
      let newer = prepare_rewrite cache 100 'b' in
      dev.Device.submit (Buffer_cache.prepared_items newer);
      Buffer_cache.await_prepared cache [ newer ];
      for b = 300 to 307 do
        ignore (Buffer_cache.get cache b : Bytes.t)
      done;
      hold := true;
      let reread = Ivar.create () in
      Engine.spawn eng ~name:"reader" (fun () -> Ivar.fill reread (Buffer_cache.get cache 100));
      Engine.delay (Time.ms 50);
      dev.Device.submit (Buffer_cache.prepared_items older);
      Buffer_cache.await_prepared cache [ older ];
      release ();
      Alcotest.(check bytes) "the read returned the newer bytes" (Bytes.make bs 'b') (Ivar.read reread);
      Alcotest.(check bytes) "the older write landed after it" (Bytes.make bs 'a')
        (disk.Device.stable_read ~off:(100 * bs) ~len:bs);
      Alcotest.(check (option bytes)) "the cache keeps what the read returned" (Some (Bytes.make bs 'b'))
        (Buffer_cache.peek cache 100))

(* {1 Allocation} *)

(* A removed file's blocks back the next file's: once the first file
   is committed and removed, writing as many blocks into a second one
   allocates no block buffer, its indirect block's included. The bound
   is a quarter of a block per block written; this cache allocates 76
   words per block as measured here, and one that let a freed block's
   buffer go 1,134. *)
let test_removed_files_blocks_back_the_next_file () =
  let eng, _, fs = fresh_fs () in
  let bs = 8192 and n = 32 in
  let data = pattern (n * bs) 5 in
  let words =
    in_proc eng (fun () ->
        let root = Fs.root fs in
        let f = Fs.create fs root "first" Layout.Regular in
        Fs.write fs f ~off:0 data ~mode:Fs.Delay_data;
        Fs.commit_range_begin fs f ~off:0 ~len:(n * bs) ();
        Fs.remove fs root "first";
        let g = Fs.create fs root "second" Layout.Regular in
        snd (Testbed.allocated (fun () -> Fs.write fs g ~off:0 data ~mode:Fs.Delay_data)))
  in
  if words >= float_of_int (n * Testbed.block_words / 4) then
    Alcotest.failf "writing %d blocks after a remove allocated %.0f words" n words

(* A committed block holds the disk's page, and the buffer it was
   written from backs the next file's block: once a first file's blocks
   are written and committed, writing and committing as many blocks of
   a second file allocates about one block per block, the disk's new
   page. The bound is 1.5 blocks per block; this cache allocates 1.20
   as measured here, and one that kept a private copy of each clean
   block 2.19 (a cache buffer, and the page). *)
let test_committed_blocks_back_the_next_file () =
  let eng, _, fs = fresh_fs () in
  let bs = 8192 and n = 32 in
  let data = pattern (n * bs) 5 in
  let words =
    in_proc eng (fun () ->
        let root = Fs.root fs in
        let f = Fs.create fs root "first" Layout.Regular in
        Fs.write fs f ~off:0 data ~mode:Fs.Delay_data;
        Fs.commit_range_begin fs f ~off:0 ~len:(n * bs) ();
        let g = Fs.create fs root "second" Layout.Regular in
        snd
          (Testbed.allocated (fun () ->
               Fs.write fs g ~off:0 data ~mode:Fs.Delay_data;
               Fs.commit_range_begin fs g ~off:0 ~len:(n * bs) ())))
  in
  if words >= 1.5 *. float_of_int (n * Testbed.block_words) then
    Alcotest.failf "writing and committing %d blocks allocated %.2f blocks per block" n
      (words /. float_of_int (n * Testbed.block_words))

(* A block rewritten while its flush is in flight goes to a copy, and
   the flush's buffer backs a later fill once the flush completes: from
   the second round on, the rewrite takes its copy from the buffer the
   previous round's flush let go. The bound is an eighth of a block;
   this cache allocates 20 words a round as measured here, and one that
   allocated each copy 1,046. *)
let test_rewrite_during_flush_reuses_the_flushed_buffer () =
  let eng, _, fs = fresh_fs () in
  let bs = 8192 in
  let before = pattern bs 1 and after = pattern bs 2 in
  let rounds =
    in_proc eng (fun () ->
        let f = Fs.create fs (Fs.root fs) "hot" Layout.Regular in
        Fs.write fs f ~off:0 before ~mode:Fs.Sync;
        List.init 6 (fun _ ->
            Fs.write fs f ~off:0 before ~mode:Fs.Delay_data;
            let await = Fs.commit_range_begin fs f ~off:0 ~len:bs in
            let (), words =
              Testbed.allocated (fun () -> Fs.write fs f ~off:0 after ~mode:Fs.Delay_data)
            in
            await ();
            words))
  in
  List.iteri
    (fun i words ->
      if i > 0 && words >= float_of_int (Testbed.block_words / 8) then
        Alcotest.failf "round %d's rewrite during the flush allocated %.0f words" (i + 1) words)
    rounds

(* A partial write into a new block keeps the block's zero fill: only
   a whole-block write starts from an uninitialised buffer. *)
let test_partial_write_into_new_block_zero_filled () =
  let eng, _, fs = fresh_fs () in
  in_proc eng (fun () ->
      let f = Fs.create fs (Fs.root fs) "z" Layout.Regular in
      Fs.write fs f ~off:1000 (Bytes.make 100 'y') ~mode:Fs.Delay_data;
      Fs.truncate fs f 8192;
      let expect = Bytes.make 8192 '\000' in
      Bytes.fill expect 1000 100 'y';
      Alcotest.(check bytes) "zeros around the write" expect (Fs.read fs f ~off:0 ~len:8192))

(* Gathering an 8-block dirty run into a cluster copies no block: the
   request's gather list is the cache's own buffers. *)
let test_prepare_copies_no_block () =
  let eng = Engine.create () in
  let disk = Disk.create eng geometry in
  let cache = Buffer_cache.create disk ~bsize:8192 () in
  let blocks = List.init 8 (fun i -> 100 + i) in
  List.iter
    (fun b -> Buffer_cache.modify cache b Buffer_cache.Data Buffer_cache.Overwritten (fun buf -> Bytes.fill buf 0 8192 'd'))
    blocks;
  let p, words =
    Testbed.allocated (fun () ->
        Buffer_cache.prepare cache ~class_:`Gather_flush ~max_cluster:(64 * 1024) blocks)
  in
  (match Buffer_cache.prepared_items p with
  | [ Io.Req { Io.op = Io.Write bufs; off; _ } ] ->
      Alcotest.(check int) "at the run's first block" (100 * 8192) off;
      Alcotest.(check bool) "the cache's own buffers" true
        (List.for_all2 (fun b buf -> Option.get (Buffer_cache.peek cache b) == buf) blocks bufs)
  | _ -> Alcotest.fail "expected one cluster write");
  if words >= float_of_int Testbed.block_words then
    Alcotest.failf "prepare allocated %.0f words for an 8-block run" words

(* A READ of a cached block replies from the block itself. *)
let test_read_ahead_of_cached_block_copies_nothing () =
  let eng, _, fs = fresh_fs () in
  in_proc eng (fun () ->
      let f = Fs.create fs (Fs.root fs) "r" Layout.Regular in
      Fs.write fs f ~off:0 (pattern 8192 9) ~mode:Fs.Sync;
      let view, words = Testbed.allocated (fun () -> Fs.read_ahead fs f ~stream:0 ~off:0 ~len:8192) in
      Alcotest.(check bytes) "the block's bytes" (pattern 8192 9) (Nfsg_rpc.Xdr.view_copy view);
      if words >= float_of_int Testbed.block_words then
        Alcotest.failf "read_ahead allocated %.0f words for a cached block" words)

(* A demand miss into a full, warmed cache reads into the buffer an
   earlier victim left. The bound is half a block (512 words); this
   cache allocates 32 as measured here, and one that allocated a fresh
   8 KB buffer per miss 1,058. The least of eight misses is taken (see
   [Testbed.allocated]). *)
let test_demand_miss_reuses_its_victims_buffer () =
  let eng = Engine.create () in
  let cache = Buffer_cache.create (Disk.create eng geometry) ~bsize:8192 ~max_blocks:8 () in
  let words =
    in_proc eng (fun () ->
        for b = 0 to 9 do
          ignore (Buffer_cache.get cache b : Bytes.t)
        done;
        let miss i = snd (Testbed.allocated (fun () -> Buffer_cache.get cache (100 + i))) in
        List.fold_left Float.min infinity (List.init 8 miss))
  in
  if words >= float_of_int (Testbed.block_words / 2) then
    Alcotest.failf "a demand miss allocated %.0f words" words

let suite =
  [
    Alcotest.test_case "superblock roundtrip" `Quick test_superblock_roundtrip;
    Alcotest.test_case "dinode roundtrip" `Quick test_dinode_roundtrip;
    Alcotest.test_case "dirents roundtrip" `Quick test_dirents_roundtrip;
    QCheck_alcotest.to_alcotest prop_dirents;
    Alcotest.test_case "create / lookup / readdir" `Quick test_create_lookup_readdir;
    Alcotest.test_case "write/read roundtrip" `Quick test_write_read_roundtrip;
    Alcotest.test_case "unaligned and spanning writes" `Quick test_unaligned_writes;
    Alcotest.test_case "sparse holes read zero" `Quick test_sparse_holes_read_zero;
    Alcotest.test_case "reads across holes match a flat copy" `Quick test_reads_across_holes;
    Alcotest.test_case "direct/single/double indirect" `Quick test_indirect_boundaries;
    Alcotest.test_case "short read at EOF" `Quick test_short_read_at_eof;
    Alcotest.test_case "Delay_data stays volatile" `Quick test_delay_data_stays_volatile;
    Alcotest.test_case "Sync commits data then inode" `Quick test_sync_commits_data_then_meta;
    Alcotest.test_case "mtime-only inode update is async" `Quick test_mtime_only_update_is_async;
    Alcotest.test_case "case study: ~3N transactions" `Quick test_3n_transactions_for_large_file;
    Alcotest.test_case "syncdata clusters to 64K" `Quick test_syncdata_clusters;
    Alcotest.test_case "fsync_metadata idempotent" `Quick test_fsync_metadata_idempotent;
    Alcotest.test_case "remove frees and stales handles" `Quick test_remove_then_stale;
    Alcotest.test_case "generation guards inode reuse" `Quick test_generation_prevents_reuse_confusion;
    Alcotest.test_case "rename within a directory" `Quick test_rename_same_dir;
    Alcotest.test_case "rename across directories" `Quick test_rename_across_dirs;
    Alcotest.test_case "mkdir / rmdir" `Quick test_mkdir_rmdir;
    Alcotest.test_case "symlink roundtrip + fsck + remount" `Quick test_symlink_roundtrip_and_fsck;
    Alcotest.test_case "truncate frees blocks" `Quick test_truncate_frees_and_check_passes;
    Alcotest.test_case "fsck passes on clean fs" `Quick test_check_clean_fs;
    Alcotest.test_case "fsck: a block claimed twice" `Quick test_check_block_claimed_twice;
    Alcotest.test_case "fsck: a referenced block free in the bitmap" `Quick
      test_check_referenced_block_free;
    Alcotest.test_case "fsck: an allocated block nothing reaches" `Quick test_check_unreachable_block;
    Alcotest.test_case "fsck: a size beyond the mappable bytes" `Quick test_check_size_beyond_mappable;
    Alcotest.test_case "fsck: an entry naming a free inode" `Quick test_check_entry_names_free_inode;
    Alcotest.test_case "fsck: nlink against directory references" `Quick test_check_nlink_mismatch;
    Alcotest.test_case "fsck: pointers outside the data area" `Quick
      test_check_pointers_outside_data_area;
    Alcotest.test_case "the size limit refuses before changing anything" `Quick test_size_limit;
    Alcotest.test_case "crash: synced survives, delayed lost" `Quick test_crash_loses_delayed_keeps_synced;
    Alcotest.test_case "remount rebuilds bitmap" `Quick test_remount_rebuilds_bitmap;
    Alcotest.test_case "vnode lock survives unexpected exception" `Quick
      test_vnode_lock_released_on_unexpected_exception;
    QCheck_alcotest.to_alcotest prop_random_writes_match_model;
    QCheck_alcotest.to_alcotest prop_block_tree_survives_remount;
    Alcotest.test_case "inode change during a metadata commit is kept" `Quick
      test_inode_change_during_commit_kept;
    Alcotest.test_case "data block rewritten during its flush" `Quick test_data_rewrite_during_flush;
    Alcotest.test_case "crash during a rewritten flush" `Quick test_crash_during_rewritten_flush;
    Alcotest.test_case "inode block changed during a commit" `Quick test_inode_block_change_during_commit;
    Alcotest.test_case "crash during an inode block change" `Quick test_crash_during_inode_block_change;
    QCheck_alcotest.to_alcotest prop_cow_writes_land_as_submitted;
    QCheck_alcotest.to_alcotest prop_cow_writes_land_through_the_minimum_cache;
    Alcotest.test_case "partial write into a new block is zero-filled" `Quick
      test_partial_write_into_new_block_zero_filled;
    Alcotest.test_case "prepare copies no block" `Quick test_prepare_copies_no_block;
    Alcotest.test_case "read_ahead of a cached block copies nothing" `Quick
      test_read_ahead_of_cached_block_copies_nothing;
    Alcotest.test_case "fsck through the minimum cache" `Quick test_check_through_the_minimum_cache;
    Alcotest.test_case "a busy block is no victim" `Quick test_busy_block_is_no_victim;
    Alcotest.test_case "a failed write keeps its blocks" `Quick test_failed_write_keeps_its_blocks;
    Alcotest.test_case "a landed cluster lends the disk's pages" `Quick test_landed_cluster_lends_pages;
    Alcotest.test_case "a lent block changes in a copy" `Quick test_lent_block_changes_in_a_copy;
    Alcotest.test_case "an evicted lent block stays on the platter" `Quick
      test_evicted_lent_block_stays_on_the_platter;
    Alcotest.test_case "NVRAM and a stripe set lend nothing" `Quick test_nvram_and_stripe_lend_nothing;
    Alcotest.test_case "a failed write re-dirties in a copy" `Quick test_failed_write_redirties_in_a_copy;
    Alcotest.test_case "reordered writes keep the newer bytes" `Quick
      test_reordered_writes_keep_the_newer_bytes;
    Alcotest.test_case "a block read again takes no page while a write is left" `Quick
      test_reread_block_takes_no_page_while_a_write_is_left;
    Alcotest.test_case "a fill behind the page takes no page" `Quick test_fill_behind_the_page_takes_no_page;
    Alcotest.test_case "a demand miss reuses its victim's buffer" `Quick
      test_demand_miss_reuses_its_victims_buffer;
    Alcotest.test_case "a removed file's blocks back the next file's" `Quick
      test_removed_files_blocks_back_the_next_file;
    Alcotest.test_case "a rewrite during a flush reuses the flushed buffer" `Quick
      test_rewrite_during_flush_reuses_the_flushed_buffer;
    Alcotest.test_case "committed blocks back the next file's" `Quick
      test_committed_blocks_back_the_next_file;
    Alcotest.test_case "a reformat stamps the next generation" `Quick test_format_generation;
  ]
