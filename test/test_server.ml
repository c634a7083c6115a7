(* End-to-end NFS server tests through the full stack (client RPC over
   the simulated network to the server over the simulated disk), in
   Standard write-layer mode. *)

open Testbed
module Write_layer = Nfsg_core.Write_layer
module Server = Nfsg_core.Server
module Fs = Nfsg_ufs.Fs

let standard_config =
  { Server.default_config with Server.write_layer = Write_layer.standard }

let test_create_write_read_roundtrip () =
  let rig = make ~config:standard_config () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "file.dat" in
      let total = 200_000 in
      let _ = write_file rig fh ~total () in
      let back = Client.read rig.client fh ~off:0 ~len:total in
      Alcotest.(check bytes) "data fidelity over the wire" (expect_pattern ~total ~seed:7) back;
      let a = Client.getattr rig.client fh in
      Alcotest.(check int) "size attribute" total a.Proto.size)

let test_lookup_and_dirops () =
  let rig = make ~config:standard_config () in
  run rig (fun () ->
      let r = root rig in
      let dfh, _ = Client.mkdir rig.client r "sub" in
      let ffh, _ = Client.create_file rig.client dfh "x" in
      let found, a = Client.lookup rig.client dfh "x" in
      Alcotest.(check int) "same file" ffh.Proto.inum found.Proto.inum;
      Alcotest.(check bool) "regular" true (a.Proto.ftype = Proto.NFREG);
      Alcotest.(check (list (pair string int))) "readdir" [ ("x", ffh.Proto.inum) ]
        (Client.readdir rig.client dfh);
      Client.remove rig.client dfh "x";
      (match Client.lookup rig.client dfh "x" with
      | _ -> Alcotest.fail "expected NOENT"
      | exception Client.Error Proto.NFSERR_NOENT -> ());
      Client.rmdir rig.client r "sub";
      match Client.readdir rig.client r with
      | entries -> Alcotest.(check int) "root empty" 0 (List.length entries))

let test_stale_handle_after_remove () =
  let rig = make ~config:standard_config () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "doomed" in
      Client.remove rig.client (root rig) "doomed";
      match Client.getattr rig.client fh with
      | _ -> Alcotest.fail "expected STALE"
      | exception Client.Error Proto.NFSERR_STALE -> ())

let test_rename_over_wire () =
  let rig = make ~config:standard_config () in
  run rig (fun () ->
      let r = root rig in
      let fh, _ = Client.create_file rig.client r "before" in
      Client.rename rig.client ~from_dir:r ~from_name:"before" ~to_dir:r ~to_name:"after";
      let found, _ = Client.lookup rig.client r "after" in
      Alcotest.(check int) "kept identity" fh.Proto.inum found.Proto.inum)

let test_setattr_truncate () =
  let rig = make ~config:standard_config () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "t" in
      let _ = write_file rig fh ~total:50_000 () in
      let a = Client.setattr rig.client fh (Proto.sattr_truncate 1000) in
      Alcotest.(check int) "truncated" 1000 a.Proto.size;
      let back = Client.read rig.client fh ~off:0 ~len:5000 in
      Alcotest.(check int) "short read" 1000 (Bytes.length back))

let test_statfs_and_null () =
  let rig = make ~config:standard_config () in
  run rig (fun () ->
      Client.null_ping rig.client;
      let s = Client.statfs rig.client (root rig) in
      Alcotest.(check int) "bsize" 8192 s.Proto.bsize;
      Alcotest.(check bool) "free blocks sane" true (s.Proto.bfree > 0 && s.Proto.bfree <= s.Proto.blocks))

let test_errors_over_wire () =
  let rig = make ~config:standard_config () in
  run rig (fun () ->
      let r = root rig in
      (match Client.lookup rig.client r "missing" with
      | _ -> Alcotest.fail "expected NOENT"
      | exception Client.Error Proto.NFSERR_NOENT -> ());
      let _ = Client.create_file rig.client r "dup" in
      (match Client.create_file rig.client r "dup" with
      | _ -> Alcotest.fail "expected EXIST"
      | exception Client.Error Proto.NFSERR_EXIST -> ());
      let fh, _ = Client.lookup rig.client r "dup" in
      match Client.lookup rig.client fh "x" with
      | _ -> Alcotest.fail "expected NOTDIR"
      | exception Client.Error Proto.NFSERR_NOTDIR -> ())

let test_rmdir_not_empty_over_wire () =
  let rig = make ~config:standard_config () in
  run rig (fun () ->
      let r = root rig in
      let dfh, _ = Client.mkdir rig.client r "busy" in
      let _ = Client.create_file rig.client dfh "kid" in
      (* A non-empty directory must come back as NFSERR_NOTEMPTY — not
         a generic IO error, and above all not a dead nfsd. *)
      (match Client.rmdir rig.client r "busy" with
      | () -> Alcotest.fail "expected NOTEMPTY"
      | exception Client.Error Proto.NFSERR_NOTEMPTY -> ());
      (* The failed rmdir must not have damaged the directory. *)
      let found, _ = Client.lookup rig.client dfh "kid" in
      Alcotest.(check bool) "child intact" true (found.Proto.inum > 0);
      Client.remove rig.client dfh "kid";
      Client.rmdir rig.client r "busy";
      Alcotest.(check int) "root empty afterwards" 0 (List.length (Client.readdir rig.client r)))

(* The core protocol promise: when the server replies to a WRITE, data
   AND metadata are on stable storage. Check against the device's
   stable view immediately after close() returns. *)
let test_stable_on_reply () =
  let rig = make ~config:standard_config () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "stable" in
      let total = 64 * 1024 in
      let _ = write_file rig fh ~total () in
      (* No flush/sync calls: what close() guarantees must already be
         stable. Crash the server and remount from stable state only. *)
      Server.crash rig.server;
      rig.device.Device.recover ();
      let fs2 = Fs.mount rig.eng rig.device in
      let f2 = Fs.lookup fs2 (Fs.root fs2) "stable" in
      Alcotest.(check int) "size durable" total (Fs.getattr f2).Fs.size;
      let back = Fs.read fs2 f2 ~off:0 ~len:total in
      Alcotest.(check bytes) "bytes durable" (expect_pattern ~total ~seed:7) back)

let test_3n_disk_transactions_over_wire () =
  let rig = make ~config:standard_config ~biods:4 () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "big" in
      let before = (rig.device.Device.spindle_stats ()).Device.transactions in
      let total = 80 * 8192 in
      let _ = write_file rig fh ~total () in
      let total_trans = (rig.device.Device.spindle_stats ()).Device.transactions - before in
      (* Standard mode: past the 12 direct blocks every 8K write costs
         3 transactions (data + inode + indirect). *)
      let expected = (12 * 2) + (68 * 3) + 1 in
      if abs (total_trans - expected) > 4 then
        Alcotest.failf "expected ~%d transactions, saw %d" expected total_trans)

let test_concurrent_clients_isolated () =
  (* Two client hosts writing different files concurrently: both file
     bodies must come back intact. *)
  let rig = make ~config:standard_config () in
  let client2_sock = Socket.create rig.segment ~addr:"client2" () in
  let rpc2 = Rpc_client.create rig.eng ~sock:client2_sock ~server:"server" () in
  let client2 = Client.create rig.eng ~rpc:rpc2 ~biods:4 () in
  let done2 = ref false in
  Nfsg_sim.Engine.spawn rig.eng ~name:"client2-app" (fun () ->
      let fh, _ = Client.create_file client2 (root rig) "from-c2" in
      let f = Client.open_file client2 fh in
      for i = 0 to 19 do
        Client.write f ~off:(i * 8192) (Bytes.make 8192 'B')
      done;
      Client.close f;
      let back = Client.read client2 fh ~off:0 ~len:(20 * 8192) in
      Alcotest.(check bytes) "client2 data" (Bytes.make (20 * 8192) 'B') back;
      done2 := true);
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "from-c1" in
      let total = 30 * 8192 in
      let _ = write_file rig fh ~total () in
      let back = Client.read rig.client fh ~off:0 ~len:total in
      Alcotest.(check bytes) "client1 data" (expect_pattern ~total ~seed:7) back);
  Alcotest.(check bool) "client2 finished" true !done2

let test_symlink_readlink_over_wire () =
  let rig = make ~config:standard_config () in
  run rig (fun () ->
      let r = root rig in
      let _ = Client.create_file rig.client r "real.txt" in
      let lfh, la = Client.symlink rig.client r "link" ~target:"real.txt" in
      Alcotest.(check bool) "NFLNK type" true (la.Proto.ftype = Proto.NFLNK);
      Alcotest.(check string) "readlink" "real.txt" (Client.readlink rig.client lfh);
      (* readlink of a regular file is an error *)
      let ffh, _ = Client.lookup rig.client r "real.txt" in
      (match Client.readlink rig.client ffh with
      | _ -> Alcotest.fail "expected error"
      | exception Client.Error _ -> ());
      (* links are removable and stale afterwards *)
      Client.remove rig.client r "link";
      match Client.readlink rig.client lfh with
      | _ -> Alcotest.fail "expected STALE"
      | exception Client.Error Proto.NFSERR_STALE -> ())

let test_op_counters () =
  let rig = make ~config:standard_config () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "ops" in
      let f = Client.open_file rig.client fh in
      Client.write f ~off:0 (Bytes.make 8192 'o');
      Client.close f;
      ignore (Client.getattr rig.client fh));
  Alcotest.(check int) "one create" 1 (op_count rig.server Proto.proc_create);
  Alcotest.(check int) "one write" 1 (op_count rig.server Proto.proc_write);
  Alcotest.(check bool) "getattr seen" true (op_count rig.server Proto.proc_getattr >= 1)

let suite =
  [
    Alcotest.test_case "create/write/read roundtrip" `Quick test_create_write_read_roundtrip;
    Alcotest.test_case "lookup and directory ops" `Quick test_lookup_and_dirops;
    Alcotest.test_case "stale handle after remove" `Quick test_stale_handle_after_remove;
    Alcotest.test_case "rename over the wire" `Quick test_rename_over_wire;
    Alcotest.test_case "setattr truncate" `Quick test_setattr_truncate;
    Alcotest.test_case "statfs and null ping" `Quick test_statfs_and_null;
    Alcotest.test_case "error statuses over the wire" `Quick test_errors_over_wire;
    Alcotest.test_case "rmdir of non-empty directory" `Quick test_rmdir_not_empty_over_wire;
    Alcotest.test_case "replied writes are stable (crash test)" `Quick test_stable_on_reply;
    Alcotest.test_case "~3N transactions in standard mode" `Quick test_3n_disk_transactions_over_wire;
    Alcotest.test_case "two clients, isolated files" `Quick test_concurrent_clients_isolated;
    Alcotest.test_case "per-op counters" `Quick test_op_counters;
    Alcotest.test_case "symlink / readlink over the wire" `Quick test_symlink_readlink_over_wire;
  ]
