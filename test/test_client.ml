(* Client-model behaviour: biod hand-off, blocking flow control,
   sync-on-close, block coalescing. *)

open Testbed
module Server = Nfsg_core.Server
module Time = Nfsg_sim.Time
module Engine = Nfsg_sim.Engine

let cfg = Server.default_config

let test_full_blocks_go_to_wire () =
  let rig = make ~config:cfg ~biods:4 () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "w" in
      let f = Client.open_file rig.client fh in
      (* 4 app writes of 2K fill one 8K block: exactly one wire write. *)
      for i = 0 to 3 do
        Client.write f ~off:(i * 2048) (Bytes.make 2048 'x')
      done;
      Client.close f;
      (* Four 2K writes fill exactly one 8K cache block. *)
      Alcotest.(check int) "one wire write" 1 (Client.wire_writes rig.client))

let test_partial_tail_flushed_on_close () =
  let rig = make ~config:cfg ~biods:4 () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "tail" in
      let f = Client.open_file rig.client fh in
      Client.write f ~off:0 (Bytes.make 3000 't');
      Alcotest.(check int) "partial stays cached" 0 (Client.wire_writes rig.client);
      Client.close f;
      Alcotest.(check int) "flushed at close" 1 (Client.wire_writes rig.client);
      let a = Client.getattr rig.client fh in
      Alcotest.(check int) "server saw all bytes" 3000 a.Proto.size)

let test_biods_overlap_wire_time () =
  (* With biods, the application finishes writing (not counting close)
     far sooner than the wire completes; with 0 biods every write
     blocks. Compare the time to generate N blocks. *)
  let gen_time biods =
    let rig = make ~config:cfg ~biods () in
    run rig (fun () ->
        let fh, _ = Client.create_file rig.client (root rig) "b" in
        let f = Client.open_file rig.client fh in
        let t0 = Engine.now rig.eng in
        for i = 0 to 3 do
          Client.write f ~off:(i * 8192) (Bytes.make 8192 'x')
        done;
        let gen = Engine.now rig.eng - t0 in
        Client.close f;
        gen)
  in
  let with_biods = gen_time 8 and without = gen_time 0 in
  if with_biods * 5 > without then
    Alcotest.failf "biods do not overlap: with=%dns without=%dns" with_biods without

let test_non_sequential_flushes () =
  let rig = make ~config:cfg ~biods:4 () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "seek" in
      let f = Client.open_file rig.client fh in
      Client.write f ~off:0 (Bytes.make 1000 'a');
      (* Jump: previous partial block must be pushed out. *)
      Client.write f ~off:100_000 (Bytes.make 1000 'b');
      Client.close f;
      Alcotest.(check int) "two wire writes" 2 (Client.wire_writes rig.client);
      let back = Client.read rig.client fh ~off:100_000 ~len:1000 in
      Alcotest.(check bytes) "second chunk" (Bytes.make 1000 'b') back)

let test_nospc_surfaces_at_close () =
  (* Tiny filesystem: asynchronous biod writes hit NFSERR_NOSPC; the
     error must surface at close() (the paper's sync-on-close
     rationale). *)
  let eng = Engine.create () in
  let segment = Segment.create eng Segment.fddi in
  let small_geom = { (Disk.rz26 ~capacity:(2 * 1024 * 1024) ()) with Disk.track_bytes = 256 * 1024 } in
  let device = Disk.create eng small_geom in
  let server = Server.make eng ~segment ~addr:"server" ~device cfg in
  let csock = Socket.create segment ~addr:"client" () in
  let rpc = Rpc_client.create eng ~sock:csock ~server:"server" () in
  let client = Client.create eng ~rpc ~biods:4 () in
  let got_nospc = ref false in
  Engine.spawn eng ~name:"driver" (fun () ->
      let fh, _ = Client.create_file client (Server.root_fh server) "huge" in
      let f = Client.open_file client fh in
      (try
         for i = 0 to 511 do
           Client.write f ~off:(i * 8192) (Bytes.make 8192 'z')
         done;
         Client.close f
       with Client.Error Proto.NFSERR_NOSPC -> got_nospc := true);
      ());
  Engine.run eng;
  Alcotest.(check bool) "ENOSPC surfaced" true !got_nospc

let test_app_chunks_smaller_than_block () =
  let rig = make ~config:cfg ~biods:4 () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "chunks" in
      let total = 100_000 in
      let _ = write_file rig fh ~total ~app_chunk:1000 () in
      let back = Client.read rig.client fh ~off:0 ~len:total in
      Alcotest.(check bytes) "1000-byte app writes intact" (expect_pattern ~total ~seed:7) back;
      (* 100_000 bytes = 12 full blocks + tail: 13 wire writes. *)
      Alcotest.(check int) "coalesced into 13 wire writes" 13 (Client.wire_writes rig.client))

let test_read_spans_blocks () =
  let rig = make ~config:cfg ~biods:4 () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "read" in
      let total = 3 * 8192 in
      let _ = write_file rig fh ~total () in
      let back = Client.read rig.client fh ~off:5000 ~len:10_000 in
      let expect = Bytes.sub (expect_pattern ~total ~seed:7) 5000 10_000 in
      Alcotest.(check bytes) "mid-file span" expect back)

(* [last_write_mtimes] covers only the most recent close: writing four
   blocks and closing, then two and closing, reports two mtimes. *)
let test_last_write_mtimes_per_close () =
  let rig = make ~config:cfg ~biods:4 () in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "mtimes" in
      let write_and_close ~first n =
        let f = Client.open_file rig.client fh in
        for i = first to first + n - 1 do
          Client.write f ~off:(i * 8192) (Bytes.make 8192 'm')
        done;
        Client.close f;
        Client.last_write_mtimes rig.client
      in
      Alcotest.(check int) "first close: 4 replies" 4 (List.length (write_and_close ~first:0 4));
      Alcotest.(check int) "second close: 2 replies" 2 (List.length (write_and_close ~first:4 2)))

(* Steady state, a whole-block write and close allocates no block-sized
   buffer: the call is encoded from the staged block itself, which the
   file reuses once the call returns, into the datagram an earlier call
   answered on its first transmission gave back. A stand-in server
   answers every call with an OK attribute reply, so what is allocated
   is the client's work, the wire's and a small reply. The least of
   three measured batches is taken (see [Testbed.allocated]). *)
let test_write_reuses_its_datagram () =
  let eng = Engine.create () in
  let segment = Segment.create eng Segment.fddi in
  let server = Socket.create segment ~addr:"server" () in
  let attr =
    let tv = { Proto.sec = 0; usec = 0 } in
    { Proto.ftype = Proto.NFREG; mode = 0o644; nlink = 1; uid = 0; gid = 0; size = 0;
      blocksize = 8192; rdev = 0; blocks = 0; fsid = 1; fileid = 2; atime = tv; mtime = tv;
      ctime = tv }
  in
  Engine.spawn eng ~name:"stand-in" (fun () ->
      while true do
        let src, dgram = Socket.recv server in
        let xid = (Nfsg_rpc.Rpc.decode_call dgram).Nfsg_rpc.Rpc.xid in
        Socket.send server ~dst:src
          (Nfsg_rpc.Rpc.encode_reply_with ~xid ~stat:Nfsg_rpc.Rpc.Success (fun enc ->
               Proto.put_res enc (Proto.RAttr (Ok attr))))
      done);
  let rpc = Rpc_client.create eng ~sock:(Socket.create segment ~addr:"client" ()) ~server:"server" () in
  let client = Client.create eng ~rpc ~biods:4 () in
  let block = Bytes.make 8192 'w' and rounds = 8 in
  let per_round = ref nan in
  Engine.spawn eng ~name:"writer" (fun () ->
      let f = Client.open_file client { Proto.fsid = 1; vgen = 1; inum = 2; gen = 1 } in
      let round i =
        Client.write f ~off:(i * 8192) block;
        Client.close f
      in
      (* Warm-up: the file's spare block, the RPC tables. *)
      for i = 0 to 3 do
        round i
      done;
      let batch k =
        let (), words =
          allocated (fun () ->
              for i = 4 + (k * rounds) to 3 + ((k + 1) * rounds) do
                round i
              done)
        in
        words /. float_of_int rounds
      in
      per_round := List.fold_left Float.min infinity (List.init 3 batch));
  Engine.run eng;
  Alcotest.(check int) "every round went to the wire" (4 + (3 * rounds)) (Client.wire_writes client);
  if !per_round >= float_of_int (block_words / 2) then
    Alcotest.failf "%.0f words per 8 KB write and close; half a block is %d" !per_round
      (block_words / 2)

(* Steady state, an 8 KB READ of a cached block allocates one block,
   client and server together: the result the client copies the data
   into. The server encodes its reply into a datagram a client gave
   back, which the duplicate cache, full, let go with the entry it
   evicted for this READ. The gate counts what an 8 KB READ allocates
   beyond a 1-byte READ of the same block, which takes the same path
   and allocates the same small records, so that it counts block-sized
   buffers. The least of three measured batches is taken (see
   [Testbed.allocated]). *)
let test_read_reuses_its_reply () =
  let rig = make ~config:cfg () in
  let reads = 64 in
  let block_read = ref nan and byte_read = ref nan in
  run rig (fun () ->
      let fh, _ = Client.create_file rig.client (root rig) "cached" in
      let _ = write_file rig fh ~total:8192 () in
      let read len = ignore (Client.read rig.client fh ~off:0 ~len : Bytes.t) in
      (* Warm-up: past the cache's 512 entries, so that every READ
         evicts one. *)
      for _ = 1 to 520 do
        read 8192
      done;
      let words_per_read len =
        let batch _ =
          let (), words =
            allocated (fun () ->
                for _ = 1 to reads do
                  read len
                done)
          in
          words /. float_of_int reads
        in
        List.fold_left Float.min infinity (List.init 3 batch)
      in
      block_read := words_per_read 8192;
      byte_read := words_per_read 1);
  let blocks = (!block_read -. !byte_read) /. float_of_int block_words in
  if blocks >= 1.5 then
    Alcotest.failf "an 8 KB READ allocates %.2f blocks more than a 1-byte one (%.0f and %.0f words)"
      blocks !block_read !byte_read

let suite =
  [
    Alcotest.test_case "full blocks go to the wire" `Quick test_full_blocks_go_to_wire;
    Alcotest.test_case "partial tail flushed on close" `Quick test_partial_tail_flushed_on_close;
    Alcotest.test_case "biods overlap wire time" `Quick test_biods_overlap_wire_time;
    Alcotest.test_case "non-sequential write flushes" `Quick test_non_sequential_flushes;
    Alcotest.test_case "ENOSPC surfaces at close" `Quick test_nospc_surfaces_at_close;
    Alcotest.test_case "small app writes coalesce" `Quick test_app_chunks_smaller_than_block;
    Alcotest.test_case "read spans blocks" `Quick test_read_spans_blocks;
    Alcotest.test_case "last_write_mtimes covers the last close" `Quick test_last_write_mtimes_per_close;
    Alcotest.test_case "a block write reuses its datagram" `Quick test_write_reuses_its_datagram;
    Alcotest.test_case "a block read reuses its reply" `Quick test_read_reuses_its_reply;
  ]
