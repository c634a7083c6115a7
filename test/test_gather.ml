(* Write gathering (the paper's section 6) — end-to-end semantics. *)

open Testbed
module Server = Nfsg_core.Server
module Fs = Nfsg_ufs.Fs
module Time = Nfsg_sim.Time

let gathering_config = Server.default_config (* gathering is the default *)

let standard_config =
  { Server.default_config with Server.write_layer = Write_layer.standard }

let test_byte_fidelity_with_gathering () =
  let rig = make ~config:gathering_config ~biods:8 () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "g.dat" in
      let total = 500_000 in
      let _ = write_file rig fh ~total () in
      let back = Client.read rig.client fh ~off:0 ~len:total in
      Alcotest.(check bytes) "gathered writes preserve bytes" (expect_pattern ~total ~seed:7) back)

let test_metadata_amortised () =
  (* The headline effect: with biods, the per-write inode+indirect
     transactions collapse. Compare spindle transactions. *)
  let transactions config =
    let rig = make ~config ~biods:8 () in
    run rig (fun () ->
        let fh, _ = Client.create_file rig.client (root rig) "f" in
        let _ = write_file rig fh ~total:(100 * 8192) () in
        (rig.device.Device.spindle_stats ()).Device.transactions)
  in
  let std = transactions standard_config in
  let gat = transactions gathering_config in
  (* Standard is ~3N = ~300; gathering should be far below half. *)
  if gat * 2 > std then Alcotest.failf "gathering did not amortise: std=%d gathered=%d" std gat

let test_all_writes_replied_exactly_once () =
  let rig = make ~config:gathering_config ~biods:8 () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "r" in
      let _ = write_file rig fh ~total:(64 * 8192) () in
      ());
  let wl = Server.write_layer rig.server in
  Alcotest.(check int) "64 writes handled" 64 (Write_layer.writes_handled wl);
  Alcotest.(check int) "64 replies sent" 64 (Write_layer.gathered_replies wl);
  Alcotest.(check int) "no handles leaked" 64 (Client.wire_writes rig.client)

let test_gathered_replies_share_mtime () =
  let rig = make ~config:gathering_config ~biods:8 () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "mt" in
      let _ = write_file rig fh ~total:(32 * 8192) () in
      ());
  let wl = Server.write_layer rig.server in
  let batches = Write_layer.batches wl in
  let mtimes = Client.last_write_mtimes rig.client in
  let distinct = List.sort_uniq compare mtimes in
  Alcotest.(check int) "32 write replies" 32 (List.length mtimes);
  (* Every reply in a batch carries the same mtime, so distinct mtimes
     cannot exceed the number of metadata updates. *)
  Alcotest.(check bool) "distinct mtimes <= batches" true (List.length distinct <= batches);
  Alcotest.(check bool) "gathering actually batched" true (batches < 32)

let test_fifo_reply_order () =
  let rig = make ~config:gathering_config ~biods:8 () in
  (* Observe reply order via xids: FIFO means offsets complete in
     issue order. We use the client mtime list plus per-reply arrival
     order implied by rpc xid completion; simpler: reply order within a
     batch equals request order, which we check by reading the file's
     final state and the batch statistics. *)
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "fifo" in
      let _ = write_file rig fh ~total:(16 * 8192) () in
      let back = Client.read rig.client fh ~off:0 ~len:(16 * 8192) in
      Alcotest.(check bytes) "consistent" (expect_pattern ~total:(16 * 8192) ~seed:7) back)

let test_zero_biods_procrastination_penalty () =
  (* Dumb PC (section 6.10): gathering must cost throughput at 0
     biods, and the loss should be bounded (~15% in the paper; we
     accept 5-40%). *)
  let elapsed config =
    let rig = make ~net:Segment.ethernet ~config ~biods:0 () in
    run rig (fun () ->
        let fh, _ = Client.create_file rig.client (root rig) "pc" in
        write_file rig fh ~total:(64 * 8192) ())
  in
  let std = elapsed standard_config in
  let gat = elapsed gathering_config in
  if gat <= std then Alcotest.failf "no procrastination penalty: std=%dns gat=%dns" std gat;
  let loss = float_of_int (gat - std) /. float_of_int gat in
  if loss < 0.03 || loss > 0.45 then Alcotest.failf "penalty %.1f%% out of band" (100.0 *. loss)

let test_procrastination_counted () =
  let rig = make ~config:gathering_config ~biods:0 () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "p" in
      let _ = write_file rig fh ~total:(8 * 8192) () in
      ());
  let wl = Server.write_layer rig.server in
  Alcotest.(check bool) "procrastinated" true (Write_layer.procrastinations wl > 0);
  Alcotest.(check bool) "wasted procrastinations counted" true
    (Write_layer.procrastinate_failures wl > 0)

let test_batching_grows_with_biods () =
  let mean_batch biods =
    let rig = make ~config:gathering_config ~biods () in
    run rig (fun () ->
        let fh, _ = Client.create_file rig.client (root rig) "b" in
        let _ = write_file rig fh ~total:(128 * 8192) () in
        ());
    Write_layer.mean_batch_size (Server.write_layer rig.server)
  in
  let b0 = mean_batch 0 and b3 = mean_batch 3 and b15 = mean_batch 15 in
  if not (b0 < b3 && b3 < b15) then
    Alcotest.failf "batch size not increasing: %.2f %.2f %.2f" b0 b3 b15;
  if b0 > 1.01 then Alcotest.failf "0 biods cannot gather, got %.2f" b0

let test_random_offsets_still_gather () =
  (* Section 6.11: random-access writes amortise metadata equally. *)
  let rig = make ~config:gathering_config ~biods:8 () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "rand" in
      let rng = Nfsg_sim.Rng.create 4242 in
      let f = Client.open_file rig.client fh in
      for _ = 1 to 64 do
        let blk = Nfsg_sim.Rng.int rng 64 in
        Client.write f ~off:(blk * 8192) (Bytes.make 8192 'r')
      done;
      Client.close f);
  let wl = Server.write_layer rig.server in
  Alcotest.(check bool) "metadata updates amortised" true (Write_layer.batches wl < 32)

let test_mbuf_hunter_fires_under_presto () =
  (* With NVRAM the nfsd never blocks in VOP_WRITE, so gathering leans
     on the socket-buffer scan (section 6.5). Use 1 nfsd so requests
     pile up in the socket buffer. *)
  let config =
    { gathering_config with Server.nfsds = 1 }
  in
  let rig = make ~accel:true ~config ~biods:8 () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "presto" in
      let _ = write_file rig fh ~total:(128 * 8192) () in
      ());
  let wl = Server.write_layer rig.server in
  Alcotest.(check bool) "mbuf hunter hits" true (Write_layer.mbuf_hits wl > 0);
  Alcotest.(check bool) "still gathers with one nfsd" true (Write_layer.mean_batch_size wl > 1.5)

let test_single_nfsd_can_still_gather () =
  (* Paper: "optimal write gathering ... with as few as one nfsd". *)
  let config = { gathering_config with Server.nfsds = 1 } in
  let rig = make ~config ~biods:8 () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "one-nfsd" in
      let _ = write_file rig fh ~total:(64 * 8192) () in
      let back = Client.read rig.client fh ~off:0 ~len:(64 * 8192) in
      Alcotest.(check bytes) "fidelity" (expect_pattern ~total:(64 * 8192) ~seed:7) back);
  Alcotest.(check bool) "gathered" true
    (Write_layer.mean_batch_size (Server.write_layer rig.server) > 1.5)

let test_two_files_gather_independently () =
  let rig = make ~config:gathering_config ~biods:8 () in
  let second_done = ref false in
  Nfsg_sim.Engine.spawn rig.eng ~name:"app2" (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "file2" in
      let f = Client.open_file rig.client fh in
      for i = 0 to 31 do
        Client.write f ~off:(i * 8192) (Bytes.make 8192 '2')
      done;
      Client.close f;
      let back = Client.read rig.client fh ~off:0 ~len:(32 * 8192) in
      Alcotest.(check bytes) "file2 intact" (Bytes.make (32 * 8192) '2') back;
      second_done := true);
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "file1" in
      let total = 32 * 8192 in
      let _ = write_file rig fh ~total () in
      let back = Client.read rig.client fh ~off:0 ~len:total in
      Alcotest.(check bytes) "file1 intact" (expect_pattern ~total ~seed:7) back);
  Alcotest.(check bool) "second writer finished" true !second_done

let test_gathered_stability_crash () =
  (* The crash-recovery invariant under gathering: everything the
     client saw acknowledged before the crash is readable after
     recovery. *)
  let rig = make ~config:gathering_config ~biods:8 () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "crashme" in
      let total = 48 * 8192 in
      let _ = write_file rig fh ~total () in
      (* close() returned => all 48 writes were acknowledged. *)
      Server.crash rig.server;
      rig.device.Device.recover ();
      let fs2 = Fs.mount rig.eng rig.device in
      let f2 = Fs.lookup fs2 (Fs.root fs2) "crashme" in
      Alcotest.(check int) "size durable" total (Fs.getattr f2).Fs.size;
      Alcotest.(check bytes) "all acknowledged bytes durable" (expect_pattern ~total ~seed:7)
        (Fs.read fs2 f2 ~off:0 ~len:total);
      match Fs.check fs2 with
      | Ok () -> ()
      | Error es -> Alcotest.failf "fsck: %s" (String.concat "; " es))

let test_lifo_ablation_runs () =
  let config =
    {
      gathering_config with
      Server.write_layer = { Write_layer.default_gathering with Write_layer.reply_order = `Lifo };
    }
  in
  let rig = make ~config ~biods:4 () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "lifo" in
      let total = 32 * 8192 in
      let _ = write_file rig fh ~total () in
      let back = Client.read rig.client fh ~off:0 ~len:total in
      Alcotest.(check bytes) "LIFO is slower but correct" (expect_pattern ~total ~seed:7) back)

let test_learned_clients_lift_pc_penalty () =
  (* A 0-biod client against a learning gathering server: after the
     first writes, the server stops procrastinating on that client. *)
  let config =
    {
      gathering_config with
      Server.write_layer =
        { Write_layer.default_gathering with Write_layer.learn_clients = true };
    }
  in
  let rig = make ~config ~biods:0 () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "pc" in
      let _ = write_file rig fh ~total:(48 * 8192) () in
      ());
  let wl = Server.write_layer rig.server in
  (* Once learned, the remaining writes skip procrastination: far fewer
     sleeps than writes. *)
  Alcotest.(check bool) "procrastinations curtailed" true (Write_layer.procrastinations wl < 24)

let test_learned_clients_keep_gathering_for_biods () =
  let config =
    {
      gathering_config with
      Server.write_layer =
        { Write_layer.default_gathering with Write_layer.learn_clients = true };
    }
  in
  let rig = make ~config ~biods:8 () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "fast" in
      let _ = write_file rig fh ~total:(96 * 8192) () in
      ());
  let wl = Server.write_layer rig.server in
  Alcotest.(check bool) "still batching" true (Write_layer.mean_batch_size wl > 4.0)

let test_siva_variant_runs () =
  let config =
    {
      gathering_config with
      Server.write_layer =
        { Write_layer.default_gathering with Write_layer.latency_device = `First_write };
    }
  in
  let rig = make ~config ~biods:8 () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "siva" in
      let total = 64 * 8192 in
      let _ = write_file rig fh ~total () in
      let back = Client.read rig.client fh ~off:0 ~len:total in
      Alcotest.(check bytes) "SIVA93 variant correct" (expect_pattern ~total ~seed:7) back)

(* Property: under arbitrary small configurations and write patterns,
   every write is acknowledged exactly once and the bytes survive. *)
let prop_random_traffic =
  let gen =
    QCheck.Gen.(
      quad (int_range 0 12) (* biods *) (int_range 1 8) (* nfsds *)
        (int_range 1 40) (* 8K writes *)
        (int_range 1 3) (* concurrent files *))
  in
  let arb =
    QCheck.make
      ~print:(fun (b, n, w, f) -> Printf.sprintf "biods=%d nfsds=%d writes=%d files=%d" b n w f)
      gen
  in
  QCheck.Test.make ~name:"random traffic: exactly-once replies + fidelity" ~count:20 arb
    (fun (biods, nfsds, writes, nfiles) ->
      let config = { gathering_config with Server.nfsds } in
      let rig = make ~config ~biods () in
      let ok = ref true in
      run rig (fun () ->
          let files =
            List.init nfiles (fun i ->
                fst (Client.create_file rig.client (root rig) (Printf.sprintf "f%d" i)))
          in
          List.iteri
            (fun fi fh ->
              let h = Client.open_file rig.client fh in
              for i = 0 to writes - 1 do
                Client.write h ~off:(i * 8192)
                  (Bytes.make 8192 (Char.chr (65 + ((fi + i) mod 26))))
              done;
              Client.close h)
            files;
          List.iteri
            (fun fi fh ->
              let back = Client.read rig.client fh ~off:0 ~len:(writes * 8192) in
              for i = 0 to writes - 1 do
                if Bytes.get back (i * 8192) <> Char.chr (65 + ((fi + i) mod 26)) then ok := false
              done)
            files);
      let wl = Server.write_layer rig.server in
      !ok
      && Write_layer.writes_handled wl = writes * nfiles
      && Write_layer.gathered_replies wl = writes * nfiles
      && Client.wire_writes rig.client = writes * nfiles)

(* A truncated WRITE sitting in the socket buffer while the only nfsd
   decides whether to gather: the mbuf hunter must skip the datagram it
   cannot decode, not let the decode failure escape and answer the
   valid WRITE ahead of it with GARBAGE_ARGS (orphaning its gather
   queue). The truncated WRITE itself earns GARBAGE_ARGS, counted as
   garbage by Svc like any undecodable request. *)
let test_truncated_write_in_socket_buffer () =
  let rig = make ~config:{ gathering_config with Server.nfsds = 1 } () in
  let sender addr =
    let sock = Socket.create rig.segment ~addr () in
    Rpc_client.create rig.eng ~sock ~server:"server" ()
  in
  let valid_rpc = sender "valid" and truncated_rpc = sender "truncated" in
  let truncated_stat = ref None in
  let valid_res =
    run rig (fun () ->
        let fh, _ = Client.create_file rig.client (root rig) "victim" in
        let body =
          Proto.encode_args
            (Proto.Write { fh; offset = 0; data = Nfsg_rpc.Xdr.view_of_bytes (Bytes.make 8192 'v') })
        in
        (* Well-framed RPC whose WRITE data runs past the end of the
           body. Sent just behind the valid WRITE so it is queued in
           the socket buffer while the nfsd handles that one. *)
        let truncated = Bytes.sub body 0 (Bytes.length body - 4000) in
        Nfsg_sim.Engine.spawn rig.eng ~name:"truncated-sender" (fun () ->
            Nfsg_sim.Engine.delay (Time.us 600);
            truncated_stat :=
              Some (fst (Rpc_client.call truncated_rpc ~proc:Proto.proc_write truncated)));
        match Rpc_client.call valid_rpc ~klass:Rpc_client.Heavy ~proc:Proto.proc_write body with
        | Nfsg_rpc.Rpc.Success, res -> Some (Proto.decode_res ~proc:Proto.proc_write res)
        | _ -> None)
  in
  (match valid_res with
  | Some (Proto.RAttr (Ok a)) -> Alcotest.(check int) "valid WRITE acked" 8192 a.Proto.size
  | _ -> Alcotest.fail "valid WRITE was not acknowledged");
  Alcotest.(check bool) "truncated WRITE earns GARBAGE_ARGS" true
    (!truncated_stat = Some Nfsg_rpc.Rpc.Garbage_args);
  let svc_count name =
    Nfsg_stats.Metrics.find_counter (Server.metrics rig.server) ~ns:Nfsg_stats.Names.Ns.rpc_svc name
  in
  Alcotest.(check (option int)) "no dispatch errors" (Some 0) (svc_count Nfsg_stats.Names.dispatch_errors);
  Alcotest.(check (option int)) "counted as garbage" (Some 1) (svc_count Nfsg_stats.Names.garbage)

(* {1 The flight recorder: Figure 1 for any run} *)

let event = Alcotest.testable (Fmt.of_to_string Write_layer.describe) ( = )

(* Every write layer keeps its events with no option set. Five 8K
   WRITEs from a 4-biod client make the paper's gathered batch: the
   first nfsd procrastinates while the rest arrive, and once the train
   stops it writes one cluster and one inode and answers all five. *)
let test_recorder_keeps_gathered_batch () =
  let rig = make () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "fig1" in
      ignore (write_file rig fh ~total:(5 * 8192) ()));
  let evs = Write_layer.events (Server.write_layer rig.server) in
  let received off = Write_layer.Received { bytes = 8192; off } in
  Alcotest.(check (list event))
    "received per WRITE, procrastination, one cluster, one inode, one batch of replies"
    Write_layer.
      [
        received 0;
        Procrastinating;
        received 8192;
        received 16384;
        received 24576;
        received 32768;
        Procrastinating;
        To_disk { bytes = 5 * 8192; clustered = true };
        Metadata_to_disk;
        Replied_batch 5;
      ]
    (List.map (fun (_, _, e) -> e) evs);
  match List.rev evs with
  | (replied, writer, _) :: (meta, writer', _) :: (data, _, _) :: _ ->
      Alcotest.(check string) "the metadata writer answers" writer' writer;
      Alcotest.(check int) "data and inode in one submission" data meta;
      Alcotest.(check bool) "replies after the flush" true (replied > meta)
  | _ -> Alcotest.fail "too few events"

(* The standard server's per-WRITE triplet, each recorded by the nfsd
   that handled the WRITE. *)
let test_recorder_keeps_standard_triplets () =
  let rig = make ~config:standard_config () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "std" in
      ignore (write_file rig fh ~total:(3 * 8192) ()));
  let evs = Write_layer.events (Server.write_layer rig.server) in
  let triplet = Write_layer.[ To_disk { bytes = 8192; clustered = false }; Metadata_to_disk; Replied ] in
  Alcotest.(check (list event)) "data, inode, reply per WRITE" (triplet @ triplet @ triplet)
    (List.map (fun (_, _, e) -> e) evs);
  let actors = List.map (fun (_, a, _) -> a) evs in
  List.iteri
    (fun i a -> Alcotest.(check string) "one nfsd per triplet" (List.nth actors (i / 3 * 3)) a)
    actors

let test_describe_labels_every_event () =
  List.iter
    (fun (ev, label) -> Alcotest.(check string) label label (Write_layer.describe ev))
    Write_layer.
      [
        (Received { bytes = 8192; off = 106496 }, "8K Write recv (off=104K)");
        (To_presto { bytes = 8192 }, "8K data to Presto");
        (Procrastinating, "Gather Writes (procrastinate)");
        (To_disk { bytes = 40960; clustered = true }, "40K data to disk (clustered)");
        (To_disk { bytes = 8192; clustered = false }, "8K data to disk");
        (Metadata_to_disk, "Metadata to disk");
        (Replied, "Write Reply");
        (Replied_batch 1, "1 Write Reply");
        (Replied_batch 2, "2 Write Replies");
        (Replied_volatile, "Write Reply (volatile!)");
        (Write_failed, "Write failed: NFSERR_IO");
        (Flush_failed 1, "Flush failed: 1 NFSERR_IO Reply");
        (Flush_failed 3, "Flush failed: 3 NFSERR_IO Replies");
      ]

let suite =
  [
    Alcotest.test_case "byte fidelity" `Quick test_byte_fidelity_with_gathering;
    Alcotest.test_case "metadata transactions amortised" `Quick test_metadata_amortised;
    Alcotest.test_case "every write replied exactly once" `Quick test_all_writes_replied_exactly_once;
    Alcotest.test_case "gathered replies share mtime" `Quick test_gathered_replies_share_mtime;
    Alcotest.test_case "FIFO reply order consistent" `Quick test_fifo_reply_order;
    Alcotest.test_case "0-biod procrastination penalty" `Quick test_zero_biods_procrastination_penalty;
    Alcotest.test_case "procrastinations counted" `Quick test_procrastination_counted;
    Alcotest.test_case "batch size grows with biods" `Quick test_batching_grows_with_biods;
    Alcotest.test_case "random access gathers too" `Quick test_random_offsets_still_gather;
    Alcotest.test_case "mbuf hunter under Presto" `Quick test_mbuf_hunter_fires_under_presto;
    Alcotest.test_case "one nfsd suffices" `Quick test_single_nfsd_can_still_gather;
    Alcotest.test_case "truncated WRITE in the socket buffer" `Quick
      test_truncated_write_in_socket_buffer;
    Alcotest.test_case "two files gather independently" `Quick test_two_files_gather_independently;
    Alcotest.test_case "acknowledged writes survive crash" `Quick test_gathered_stability_crash;
    Alcotest.test_case "LIFO ablation correct" `Quick test_lifo_ablation_runs;
    Alcotest.test_case "SIVA93 variant correct" `Quick test_siva_variant_runs;
    Alcotest.test_case "learned clients lift the PC penalty" `Quick test_learned_clients_lift_pc_penalty;
    Alcotest.test_case "learned clients keep gathering" `Quick test_learned_clients_keep_gathering_for_biods;
    QCheck_alcotest.to_alcotest prop_random_traffic;
    Alcotest.test_case "recorder keeps the gathered batch" `Quick test_recorder_keeps_gathered_batch;
    Alcotest.test_case "recorder keeps standard triplets" `Quick test_recorder_keeps_standard_triplets;
    Alcotest.test_case "describe labels every event" `Quick test_describe_labels_every_event;
  ]
