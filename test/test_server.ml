(* End-to-end NFS server tests through the full stack (client RPC over
   the simulated network to the server over the simulated disk), in
   Standard write-layer mode. *)

open Testbed
module Write_layer = Nfsg_core.Write_layer
module Server = Nfsg_core.Server
module Fs = Nfsg_ufs.Fs
module Rpc = Nfsg_rpc.Rpc
module Xdr = Nfsg_rpc.Xdr
module Metrics = Nfsg_stats.Metrics
module Names = Nfsg_stats.Names

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

(* Procedure numbers without a row in the table: ROOT (3) and LINK
   (12) of RFC 1094, which this server does not offer, one past STATFS
   and one far off. Each is PROC_UNAVAIL (RFC 1057), answered before
   any dispatch CPU is charged: not garbage arguments, and not an op. *)
let test_unknown_procedures_unavailable () =
  let rig = make ~config:standard_config () in
  let body = Proto.encode_args (Proto.Getattr (root rig)) in
  let procs = [ 3; 12; 18; 99 ] in
  let stats = run rig (fun () -> List.map (fun proc -> fst (Rpc_client.call rig.rpc ~proc body)) procs) in
  List.iter2
    (fun proc st -> Alcotest.(check bool) (Proto.proc_name proc) true (st = Rpc.Proc_unavail))
    procs stats;
  let m = Server.metrics rig.server in
  Alcotest.(check (option int)) "no garbage" (Some 0) (Metrics.find_counter m ~ns:Names.Ns.rpc_svc Names.garbage);
  List.iter
    (fun proc ->
      Alcotest.(check (option int)) "no op counter" None
        (Metrics.find_counter m ~ns:Names.Ns.server (Names.ops (Proto.proc_name proc))))
    (List.init 100 Fun.id);
  let costs = standard_config.Server.costs in
  Alcotest.(check int) "only the receive cost" (List.length procs * costs.Nfsg_core.Cpu_model.rx_fragment)
    (Nfsg_sim.Resource.busy_time (Server.cpu rig.server))

(* A READ returns at most NFS_MAXDATA bytes, whatever count it asks
   for: one call cannot make the server copy out a whole file. *)
let test_read_returns_at_most_maxdata () =
  let rig = make ~config:standard_config () in
  let n =
    run rig (fun () ->
        let fh, _ = Client.create_file rig.client (root rig) "sparse" in
        ignore (Client.setattr rig.client fh (Proto.sattr_truncate (1 lsl 20)));
        let body = Proto.encode_args (Proto.Read { fh; offset = 0; count = 1 lsl 20 }) in
        match Rpc_client.call rig.rpc ~proc:Proto.proc_read body with
        | Rpc.Success, res -> (
            match Proto.decode_res ~proc:Proto.proc_read res with
            | Proto.RRead (Ok (_, data)) -> Xdr.view_length data
            | _ -> -1)
        | _ -> -1)
  in
  Alcotest.(check int) "one transfer" Proto.max_data n

(* A WRITE whose end passes the 32-bit size an fattr carries is FBIG,
   and changes nothing. *)
let test_write_past_32bit_size () =
  let rig = make ~config:standard_config () in
  let data = Xdr.view_of_bytes (Bytes.make 8192 'x') in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "huge" in
      List.iter
        (fun args ->
          let proc = Proto.proc_of_args args in
          match Rpc_client.call rig.rpc ~proc (Proto.encode_args args) with
          | Rpc.Success, res ->
              Alcotest.(check bool) (Proto.proc_name proc) true
                (Proto.decode_res ~proc res = Proto.error_res ~proc Proto.NFSERR_FBIG)
          | _ -> Alcotest.fail "no NFS reply")
        [
          Proto.Write { fh; offset = Proto.max_size - 4096; data };
          Proto.Write3 { fh; offset = Proto.max_size; stable = Proto.Unstable; data };
        ];
      Alcotest.(check int) "still empty" 0 (Client.getattr rig.client fh).Proto.size)

(* {1 Hostile datagrams at the server}

   A call of every procedure in the table, built from live handles, is
   damaged the ways test_nfs_proto damages its seeds (a word or a byte
   overwritten, the tail cut off), in its arguments or anywhere in the
   datagram, and sent from a raw socket to a one-nfsd server with a
   valid 8 KB WRITE right behind it. *)

type hostile_world = {
  rig : rig;
  raw : Socket.t;
  calls : Proto.args list;  (** one per procedure *)
  target : Proto.fh;  (** the valid WRITE's file, in a directory no call names *)
}

let hostile_world () =
  let rig = make ~config:{ Server.default_config with Server.nfsds = 1 } () in
  let c = rig.client in
  run rig (fun () ->
      let r = root rig in
      let file, _ = Client.create_file c r "victim" in
      let f = Client.open_file c file in
      Client.write f ~off:0 (Bytes.make 8192 'v');
      Client.close f;
      ignore (Client.create_file c r "doomed");
      ignore (Client.mkdir c r "empty");
      let link, _ = Client.symlink c r "link" ~target:"victim" in
      let keep, _ = Client.mkdir c r "keep" in
      let target, _ = Client.create_file c keep "target" in
      let sattr = Proto.sattr_none and data = Xdr.view_of_bytes (Bytes.make 1000 'h') in
      let calls =
        [
          Proto.Null;
          Proto.Getattr file;
          Proto.Setattr (file, { sattr with Proto.s_mtime = Some { Proto.sec = 1; usec = 0 } });
          Proto.Lookup (r, "victim");
          Proto.Readlink link;
          Proto.Read { fh = file; offset = 0; count = 8192 };
          Proto.Write { fh = file; offset = 8192; data };
          Proto.Create { dir = r; name = "new"; sattr };
          Proto.Remove { dir = r; name = "doomed" };
          Proto.Rename { from_dir = r; from_name = "victim"; to_dir = r; to_name = "moved" };
          Proto.Mkdir { dir = r; name = "sub"; sattr };
          Proto.Rmdir { dir = r; name = "empty" };
          Proto.Readdir { fh = r; cookie = 0; count = 4096 };
          Proto.Statfs r;
          Proto.Symlink { dir = r; name = "l2"; target = "victim"; sattr };
          Proto.Write3 { fh = file; offset = 16384; stable = Proto.Unstable; data };
          Proto.Commit { fh = file; offset = 0; count = 0 };
        ]
      in
      { rig; raw = Socket.create rig.segment ~addr:"hostile" (); calls; target })

let test_hostile_calls_cover_table () =
  Alcotest.(check bool) "a call per procedure" true
    (Test_nfs_proto.covers_table (hostile_world ()).calls)

(* The accept status of every reply waiting on the raw socket. *)
let replies raw =
  let rec go acc =
    if Socket.pending raw = 0 then List.rev acc
    else go ((Rpc.decode_reply (snd (Socket.recv raw))).Rpc.stat :: acc)
  in
  go []

(* What garbage must leave alone: the write layer's WRITE count, the
   root listing and the free blocks. *)
let snapshot rig =
  let fs = Server.fs rig.server in
  ( Metrics.count (Server.metrics rig.server) ~ns:Names.Ns.write_layer Names.writes,
    Fs.readdir fs (Fs.root fs),
    (Fs.statfs fs).Fs.free_blocks )

let prop_hostile_datagrams_at_server =
  let open QCheck.Gen in
  let gen =
    triple
      (int_bound (List.length Proto.procs - 1))
      (oneofl [ `Args; `Datagram ])
      (list_size (1 -- 3) Test_nfs_proto.mutation)
  in
  let print (i, scope, ms) =
    Printf.sprintf "%s, %s: %s" (List.nth Proto.procs i).Proto.name
      (match scope with `Args -> "arguments" | `Datagram -> "datagram")
      (String.concat ", " (List.map Test_nfs_proto.show_mutation ms))
  in
  QCheck.Test.make ~name:"hostile datagrams at the server" ~count:120 (QCheck.make ~print gen)
    (fun (i, scope, ms) ->
      let proc = (List.nth Proto.procs i).Proto.num in
      let w = hostile_world () in
      let args = List.find (fun a -> Proto.proc_of_args a = proc) w.calls in
      let clean =
        Rpc.encode_call_with ~xid:0x5eed ~prog:Rpc.nfs_program ~vers:Rpc.nfs_version ~proc (fun enc ->
            Proto.put_args enc args)
      in
      let damage b = List.fold_left Test_nfs_proto.apply_mutation b ms in
      let dgram =
        match scope with
        | `Datagram -> damage clean
        | `Args ->
            let header = Bytes.length clean - Bytes.length (Proto.encode_args args) in
            Bytes.cat (Bytes.sub clean 0 header) (damage (Bytes.sub clean header (Bytes.length clean - header)))
      in
      (* A datagram that is not a call is garbage with no reply. *)
      let is_call = Option.is_some (Rpc.peek_call dgram) in
      let rig = w.rig in
      let svc name = Metrics.count (Server.metrics rig.server) ~ns:Names.Ns.rpc_svc name in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let block = Bytes.init 8192 (fun i -> Char.chr (i mod 251)) in
      run rig (fun () ->
          let garbage0 = svc Names.garbage and writes0, listing0, _ = snapshot rig in
          Socket.send w.raw ~dst:"server" dgram;
          (match
             Rpc_client.call_with rig.rpc ~klass:Rpc_client.Heavy ~proc:Proto.proc_write
               (fun enc ->
                 Proto.put_args enc (Proto.Write { fh = w.target; offset = 0; data = Xdr.view_of_bytes block }))
               (fun stat body -> (stat, Proto.decode_res ~proc:Proto.proc_write body))
           with
          | Rpc.Success, Proto.RAttr (Ok _) -> ()
          | _ -> fail "the WRITE behind it was not acknowledged");
          Nfsg_sim.Engine.delay (Nfsg_sim.Time.sec 1);
          let stats = replies w.raw in
          if List.length stats <> (if is_call then 1 else 0) then fail "%d replies" (List.length stats);
          if List.mem Rpc.System_err stats then fail "SYSTEM_ERR";
          let garbage = (not is_call) || stats = [ Rpc.Garbage_args ] in
          let counted = svc Names.garbage - garbage0 in
          if counted <> (if garbage then 1 else 0) then fail "garbage counted %d times" counted;
          if garbage then begin
            let writes, listing, _ = snapshot rig in
            if writes <> writes0 + 1 || listing <> listing0 then fail "garbage changed the server";
            (* Sent again, it is garbage again, and still changes nothing. *)
            let before = snapshot rig and garbage1 = svc Names.garbage in
            let replays = svc Names.duplicate_replays in
            Socket.send w.raw ~dst:"server" dgram;
            Nfsg_sim.Engine.delay (Nfsg_sim.Time.sec 1);
            if replies w.raw <> (if is_call then [ Rpc.Garbage_args ] else []) then fail "resent: not garbage";
            if svc Names.garbage <> garbage1 + 1 then fail "resent: not counted once";
            if svc Names.duplicate_replays <> replays then fail "resent: replayed";
            if snapshot rig <> before then fail "resent: changed the server";
            match Fs.check (Server.fs rig.server) with
            | Ok () -> ()
            | Error es -> fail "fsck: %s" (String.concat "; " es)
          end;
          if svc Names.dispatch_errors <> 0 then fail "dispatch errors";
          if Client.read rig.client w.target ~off:0 ~len:8192 <> block then fail "the WRITE does not read back";
          true))

(* {1 Reply datagrams that come back} *)

(* One READ of the 8 KB block at [off]: the reply datagram it came in
   and its data. The decode reads the datagram; the tests only compare
   it ([==]) afterwards. *)
let read_reply rig fh ~off =
  Rpc_client.call_with rig.rpc ~proc:Proto.proc_read
    (fun enc -> Proto.put_args enc (Proto.Read { fh; offset = off; count = 8192 }))
    (fun _ body ->
      match Proto.decode_res ~proc:Proto.proc_read body with
      | Proto.RRead (Ok (_, data)) -> (body.Xdr.view_buf, Xdr.view_to_string data)
      | _ -> Alcotest.fail "READ failed")

let test_read_reply_backs_a_later_reply () =
  let rig = make ~config:standard_config () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "twice" in
      let _ = write_file rig fh ~total:(2 * 8192) () in
      let first, _ = read_reply rig fh ~off:0 in
      (* Past the cache's 6 s TTL: the next admission lets the entry,
         and the datagram its client gave back, go. *)
      Nfsg_sim.Engine.delay (Nfsg_sim.Time.sec 7);
      let second, data = read_reply rig fh ~off:8192 in
      Alcotest.(check bool) "the second READ's reply is the first's datagram" true (second == first);
      Alcotest.(check string) "holding the second block"
        (Bytes.sub_string (expect_pattern ~total:(2 * 8192) ~seed:7) 8192 8192)
        data)

(* Without a duplicate cache, each reply datagram backs the next reply
   as soon as it comes back, so a READ's data must be copied out before
   the next one is answered. *)
let test_multi_block_read_copies_each_reply () =
  let rig = make ~config:{ standard_config with Server.dupcache = false } () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "blocks" in
      let total = 6 * 8192 in
      let _ = write_file rig fh ~total () in
      Alcotest.(check bytes) "every block as written" (expect_pattern ~total ~seed:7)
        (Client.read rig.client fh ~off:0 ~len:total))

let test_restart_reuses_crashed_replies () =
  let rig = make ~config:standard_config () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "boot" in
      let _ = write_file rig fh ~total:(2 * 8192) () in
      let before = List.map (fun off -> fst (read_reply rig fh ~off)) [ 0; 8192 ] in
      Server.crash rig.server;
      let _next = Server.restart rig.server in
      let after, data = read_reply rig fh ~off:0 in
      Alcotest.(check bool) "the first reply after the restart reuses a crashed one's datagram" true
        (List.memq after before);
      Alcotest.(check string) "holding the block" (Bytes.sub_string (expect_pattern ~total:8192 ~seed:7) 0 8192)
        data)

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
    Alcotest.test_case "unknown procedures are PROC_UNAVAIL" `Quick test_unknown_procedures_unavailable;
    Alcotest.test_case "a READ returns at most NFS_MAXDATA" `Quick test_read_returns_at_most_maxdata;
    Alcotest.test_case "a WRITE past a 32-bit size is FBIG" `Quick test_write_past_32bit_size;
    Alcotest.test_case "hostile calls cover the table" `Quick test_hostile_calls_cover_table;
    QCheck_alcotest.to_alcotest prop_hostile_datagrams_at_server;
    Alcotest.test_case "a READ reply backs a later one" `Quick test_read_reply_backs_a_later_reply;
    Alcotest.test_case "a multi-block read copies each reply" `Quick
      test_multi_block_read_copies_each_reply;
    Alcotest.test_case "a restart reuses crashed replies" `Quick test_restart_reuses_crashed_replies;
  ]
