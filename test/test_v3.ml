(* NFS v3 asynchronous writes + COMMIT — the paper's Future Work
   environment, built out: unstable writes, the write verifier, and
   the mixed v2/v3 client case. *)

open Testbed
module Server = Nfsg_core.Server
module Write_layer = Nfsg_core.Write_layer
module Fs = Nfsg_ufs.Fs
module Engine = Nfsg_sim.Engine
module Time = Nfsg_sim.Time
module Xdr = Nfsg_rpc.Xdr

let v3_client rig ?(biods = 8) addr =
  let sock = Socket.create rig.segment ~addr () in
  let rpc = Rpc_client.create rig.eng ~sock ~server:"server" () in
  Client.create rig.eng ~rpc ~biods ~protocol:Client.V3 ()

let test_proto_roundtrips () =
  let fh = { Proto.fsid = 1; vgen = 1; inum = 9; gen = 2 } in
  let args =
    [
      Proto.Write3 { fh; offset = 8192; stable = Proto.Unstable; data = Xdr.view_of_bytes (Bytes.make 100 'u') };
      Proto.Write3 { fh; offset = 0; stable = Proto.File_sync; data = Xdr.empty_view };
      Proto.Commit { fh; offset = 0; count = 65536 };
    ]
  in
  List.iter
    (fun a ->
      let proc = Proto.proc_of_args a in
      Alcotest.(check bool) "args roundtrip" true
        (Proto.encode_args (Proto.decode_args ~proc (Xdr.view_of_bytes (Proto.encode_args a)))
        = Proto.encode_args a))
    args;
  let sample_attr =
    {
      Proto.ftype = Proto.NFREG;
      mode = 0o644;
      nlink = 1;
      uid = 0;
      gid = 0;
      size = 1;
      blocksize = 8192;
      rdev = 0;
      blocks = 1;
      fsid = 1;
      fileid = 9;
      atime = { Proto.sec = 1; usec = 2 };
      mtime = { Proto.sec = 3; usec = 4 };
      ctime = { Proto.sec = 5; usec = 6 };
    }
  in
  let results =
    [
      (Proto.proc_write3, Proto.RWrite3 (Ok (sample_attr, Proto.Unstable, 42)));
      (Proto.proc_write3, Proto.RWrite3 (Error Proto.NFSERR_STALE));
      (Proto.proc_commit, Proto.RCommit (Ok (sample_attr, 43)));
      (Proto.proc_commit, Proto.RCommit (Error Proto.NFSERR_IO));
    ]
  in
  List.iter
    (fun (proc, r) ->
      Alcotest.(check bool) "res roundtrip" true
        (Proto.decode_res ~proc (Xdr.view_of_bytes (Proto.encode_res r)) = r))
    results

let test_v3_write_read_roundtrip () =
  let rig = make () in
  run rig (fun () ->
      let c = v3_client rig "v3c" in
      let fh, _ = Client.create_file c (root rig) "v3.dat" in
      let f = Client.open_file c fh in
      let total = 64 * 8192 in
      for i = 0 to 63 do
        Client.write f ~off:(i * 8192)
          (Bytes.init 8192 (fun j -> Char.chr (((i * 8192) + j + 7) mod 251)))
      done;
      Client.close f;
      Alcotest.(check int) "one COMMIT at close" 1 (Client.commits_sent c);
      let back = Client.read c fh ~off:0 ~len:total in
      Alcotest.(check bytes) "fidelity" (expect_pattern ~total ~seed:7) back)

let test_v3_unstable_is_volatile_until_commit () =
  (* Unstable writes live in the buffer cache; only COMMIT makes them
     durable. Check the device's stable view either side of commit. *)
  let rig = make () in
  run rig (fun () ->
      let c = v3_client rig "v3c" in
      let fh, _ = Client.create_file c (root rig) "vol" in
      let f = Client.open_file c fh in
      let before = (rig.device.Device.spindle_stats ()).Device.transactions in
      for i = 0 to 15 do
        Client.write f ~off:(i * 8192) (Bytes.make 8192 'v')
      done;
      Client.flush f;
      (* Wait for all the unstable writes to be acknowledged. *)
      Engine.delay (Time.ms 200);
      let mid = (rig.device.Device.spindle_stats ()).Device.transactions in
      Alcotest.(check int) "no disk transactions before COMMIT" before mid;
      Client.commit f;
      let after = (rig.device.Device.spindle_stats ()).Device.transactions in
      (* 128K of clustered data + inode + indirect: a handful, far
         fewer than 16. *)
      Alcotest.(check bool) "COMMIT flushed" true (after > mid);
      Alcotest.(check bool) "clustered" true (after - mid <= 6);
      Client.close f)

let test_v3_commit_durability () =
  let rig = make () in
  run rig (fun () ->
      let c = v3_client rig "v3c" in
      let fh, _ = Client.create_file c (root rig) "durable3" in
      let f = Client.open_file c fh in
      let total = 32 * 8192 in
      for i = 0 to 31 do
        Client.write f ~off:(i * 8192)
          (Bytes.init 8192 (fun j -> Char.chr (((i * 8192) + j + 7) mod 251)))
      done;
      Client.close f;
      (* close() committed: crash now, everything must survive. *)
      Server.crash rig.server;
      rig.device.Device.recover ();
      let fs2 = Fs.mount rig.eng rig.device in
      let f2 = Fs.lookup fs2 (Fs.root fs2) "durable3" in
      Alcotest.(check bytes) "committed data durable" (expect_pattern ~total ~seed:7)
        (Fs.read fs2 f2 ~off:0 ~len:total))

(* Three calls at 2^40, far past the largest file 8 KB blocks can map,
   on a gathering server: the writes are refused with NFSERR_FBIG in
   their own reply shape and change nothing, the COMMIT syncs the
   (empty) part of its range below the limit, and the next write to the
   file is answered as usual. No call escapes as a dispatch error. *)
let test_write_past_largest_file_fails_alone () =
  let rig = make () in
  let call ~proc args =
    match Rpc_client.call rig.rpc ~proc (Proto.encode_args args) with
    | Nfsg_rpc.Rpc.Success, body -> Proto.decode_res ~proc body
    | _ -> Alcotest.failf "proc %d: call not accepted" proc
  in
  let write3 fh ~offset stable data =
    call ~proc:Proto.proc_write3
      (Proto.Write3 { fh; offset; stable; data = Xdr.view_of_bytes data })
  in
  let far = 1 lsl 40 in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "big" in
      let first = Bytes.make 4096 'a' in
      (match write3 fh ~offset:0 Proto.File_sync first with
      | Proto.RWrite3 (Ok _) -> ()
      | _ -> Alcotest.fail "first write refused");
      (match write3 fh ~offset:far Proto.Unstable (Bytes.make 8192 'u') with
      | Proto.RWrite3 (Error Proto.NFSERR_FBIG) -> ()
      | _ -> Alcotest.fail "UNSTABLE write past the limit: expected NFSERR_FBIG");
      (match call ~proc:Proto.proc_commit (Proto.Commit { fh; offset = far; count = 8192 }) with
      | Proto.RCommit (Ok _) -> ()
      | _ -> Alcotest.fail "COMMIT past the limit: expected NFS_OK");
      (match write3 fh ~offset:far Proto.File_sync (Bytes.make 8192 's') with
      | Proto.RWrite3 (Error Proto.NFSERR_FBIG) -> ()
      | _ -> Alcotest.fail "FILE_SYNC write past the limit: expected NFSERR_FBIG");
      (match call ~proc:Proto.proc_read (Proto.Read { fh; offset = 0; count = 8192 }) with
      | Proto.RRead (Ok (a, data)) ->
          Alcotest.(check int) "size unchanged" 4096 a.Proto.size;
          Alcotest.(check bytes) "bytes unchanged" first (Xdr.view_copy data)
      | _ -> Alcotest.fail "READ failed");
      match write3 fh ~offset:0 Proto.File_sync (Bytes.make 8192 'b') with
      | Proto.RWrite3 (Ok (a, _, _)) -> Alcotest.(check int) "next write answered" 8192 a.Proto.size
      | _ -> Alcotest.fail "write at 0 after the refused ones failed");
  Alcotest.(check (option int)) "no dispatch errors" (Some 0)
    (Nfsg_stats.Metrics.find_counter (Server.metrics rig.server) ~ns:Nfsg_stats.Names.Ns.rpc_svc
       Nfsg_stats.Names.dispatch_errors)

let test_v3_verifier_changes_across_reboot () =
  let rig = make () in
  let verf1 = Server.write_verifier rig.server in
  run rig (fun () ->
      let c = v3_client rig "v3c" in
      let fh, _ = Client.create_file c (root rig) "x" in
      let f = Client.open_file c fh in
      Client.write f ~off:0 (Bytes.make 8192 'a');
      Client.close f;
      Server.crash rig.server);
  let revived = Server.restart rig.server in
  Alcotest.(check bool) "verifier moved" true (Server.write_verifier revived <> verf1)

let test_v3_client_detects_reboot () =
  (* Write unstable, reboot the server under the client, write more and
     commit: the client must raise Verifier_changed rather than
     silently lose the uncommitted data. *)
  let rig = make () in
  let saw_change = ref false in
  run rig (fun () ->
      let c = v3_client rig ~biods:0 "v3c" in
      let fh, _ = Client.create_file c (root rig) "reboot" in
      let f = Client.open_file c fh in
      Client.write f ~off:0 (Bytes.make 8192 'a');
      Client.flush f;
      Engine.delay (Time.ms 100);
      (* Power-cycle the server; the revived instance has a new
         verifier. *)
      Server.crash rig.server;
      rig.device.Device.recover ();
      let _revived = Server.restart rig.server in
      (* Resume writing against the revived server (same fs). *)
      (try
         Client.write f ~off:8192 (Bytes.make 8192 'b');
         Client.flush f;
         Engine.delay (Time.ms 100);
         Client.commit f
       with
      | Client.Verifier_changed -> saw_change := true
      | Client.Error _ -> ()));
  Alcotest.(check bool) "client saw the verifier move" true !saw_change

let test_v3_file_sync_writes_gather_with_v2 () =
  (* A v3 client using V2 semantics (File_sync) and a plain v2 client
     write the same file concurrently: both delivery paths go through
     the gathering layer and batch together. *)
  let rig = make ~biods:8 () in
  let v3_done = ref false in
  let fh_box = ref None in
  Nfsg_sim.Engine.spawn rig.eng ~name:"v3-writer" (fun () ->
      let sock = Socket.create rig.segment ~addr:"v3c" () in
      let rpc = Rpc_client.create rig.eng ~sock ~server:"server" () in
      let rec wait () =
        match !fh_box with
        | Some fh -> fh
        | None ->
            Engine.delay (Time.ms 2);
            wait ()
      in
      let fh = wait () in
      (* Direct stable v3 writes. *)
      for i = 16 to 31 do
        match
          Rpc_client.call rpc ~klass:Rpc_client.Heavy ~proc:Proto.proc_write3
            (Proto.encode_args
               (Proto.Write3
                  { fh; offset = i * 8192; stable = Proto.File_sync;
                    data = Xdr.view_of_bytes (Bytes.make 8192 '3') }))
        with
        | Nfsg_rpc.Rpc.Success, body -> (
            match Proto.decode_res ~proc:Proto.proc_write3 body with
            | Proto.RWrite3 (Ok (_, how, _)) ->
                if how <> Proto.File_sync then Alcotest.fail "expected File_sync commitment"
            | _ -> Alcotest.fail "bad WRITE3 reply")
        | _ -> Alcotest.fail "WRITE3 failed"
      done;
      v3_done := true);
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "mixed" in
      fh_box := Some fh;
      let f = Client.open_file rig.client fh in
      for i = 0 to 15 do
        Client.write f ~off:(i * 8192) (Bytes.make 8192 '2')
      done;
      Client.close f;
      while not !v3_done do
        Engine.delay (Time.ms 5)
      done;
      let r1 = Client.read rig.client fh ~off:0 ~len:(16 * 8192) in
      let r2 = Client.read rig.client fh ~off:(16 * 8192) ~len:(16 * 8192) in
      Alcotest.(check bytes) "v2 region" (Bytes.make (16 * 8192) '2') r1;
      Alcotest.(check bytes) "v3 region" (Bytes.make (16 * 8192) '3') r2)

let test_v3_faster_than_v2_standard () =
  (* The point of v3 async writes: against a STANDARD (non-gathering)
     server, a v3 client beats a v2 client by batching durability into
     one COMMIT. *)
  let elapsed protocol =
    let config =
      { Server.default_config with Server.write_layer = Write_layer.standard }
    in
    let rig = make ~config () in
    run rig (fun () ->
        let sock = Socket.create rig.segment ~addr:"c" () in
        let rpc = Rpc_client.create rig.eng ~sock ~server:"server" () in
        let c = Client.create rig.eng ~rpc ~biods:8 ~protocol () in
        let fh, _ = Client.create_file c (root rig) "race" in
        let f = Client.open_file c fh in
        let t0 = Engine.now rig.eng in
        for i = 0 to 63 do
          Client.write f ~off:(i * 8192) (Bytes.make 8192 'x')
        done;
        Client.close f;
        Engine.now rig.eng - t0)
  in
  let v2 = elapsed Client.V2 and v3 = elapsed Client.V3 in
  if v3 * 2 > v2 then Alcotest.failf "v3 not much faster: v2=%dns v3=%dns" v2 v3

let test_unsafe_async_loses_data () =
  (* The "dangerous mode" contrast: fast, and the crash test FAILS —
     acknowledged data evaporates. This is exactly why the paper
     refuses to relax the stable-storage rule. *)
  let config =
    { Server.default_config with Server.write_layer = Write_layer.unsafe_async }
  in
  let rig = make ~config () in
  let lost = ref false in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "danger" in
      let f = Client.open_file rig.client fh in
      for i = 0 to 31 do
        Client.write f ~off:(i * 8192) (Bytes.make 8192 'd')
      done;
      Client.close f;
      (* All writes acknowledged. Crash before anything is flushed. *)
      Server.crash rig.server;
      rig.device.Device.recover ();
      let fs2 = Fs.mount rig.eng rig.device in
      match Fs.lookup fs2 (Fs.root fs2) "danger" with
      | exception Not_found -> lost := true
      | f2 ->
          let a = Fs.getattr f2 in
          if a.Fs.size < 32 * 8192 then lost := true
          else begin
            let back = Fs.read fs2 f2 ~off:0 ~len:(32 * 8192) in
            if not (Bytes.equal back (Bytes.make (32 * 8192) 'd')) then lost := true
          end);
  Alcotest.(check bool) "acknowledged data was lost (the danger)" true !lost

let suite =
  [
    Alcotest.test_case "WRITE3/COMMIT wire roundtrips" `Quick test_proto_roundtrips;
    Alcotest.test_case "v3 write/read roundtrip" `Quick test_v3_write_read_roundtrip;
    Alcotest.test_case "unstable until COMMIT" `Quick test_v3_unstable_is_volatile_until_commit;
    Alcotest.test_case "COMMIT makes data durable" `Quick test_v3_commit_durability;
    Alcotest.test_case "a write past the largest file fails alone" `Quick
      test_write_past_largest_file_fails_alone;
    Alcotest.test_case "verifier changes across reboot" `Quick test_v3_verifier_changes_across_reboot;
    Alcotest.test_case "client detects server reboot" `Quick test_v3_client_detects_reboot;
    Alcotest.test_case "v3 File_sync gathers with v2" `Quick test_v3_file_sync_writes_gather_with_v2;
    Alcotest.test_case "v3 beats v2 on a standard server" `Quick test_v3_faster_than_v2_standard;
    Alcotest.test_case "dangerous mode loses data" `Quick test_unsafe_async_loses_data;
  ]
