open Nfsg_sim
open Nfsg_net

let run_sim body =
  let eng = Engine.create () in
  let r = body eng in
  Engine.run eng;
  r

let test_delivery () =
  let got = ref None in
  ignore
    (run_sim (fun eng ->
         let seg = Segment.create eng Segment.ethernet in
         let a = Socket.create seg ~addr:"client" () in
         let b = Socket.create seg ~addr:"server" () in
         Engine.spawn eng (fun () -> got := Some (Socket.recv b));
         Engine.spawn eng (fun () -> Socket.send a ~dst:"server" (Bytes.of_string "ping"))));
  match !got with
  | Some ("client", payload) -> Alcotest.(check string) "payload" "ping" (Bytes.to_string payload)
  | _ -> Alcotest.fail "not delivered"

let test_fragment_count () =
  Alcotest.(check int) "8K over ethernet" 6 (Segment.fragments_of Segment.ethernet 8300);
  Alcotest.(check int) "8K over fddi" 2 (Segment.fragments_of Segment.fddi 8300);
  Alcotest.(check int) "tiny" 1 (Segment.fragments_of Segment.ethernet 100)

let test_wire_time_scales () =
  let small = Segment.wire_time Segment.ethernet 1000 in
  let big = Segment.wire_time Segment.ethernet 8000 in
  if big <= small then Alcotest.fail "wire time not increasing";
  (* 8000 bytes at 10 Mb/s is 6.4ms of payload alone. *)
  if big < Time.of_ms_f 6.4 then Alcotest.failf "too fast: %dns" big;
  let fddi = Segment.wire_time Segment.fddi 8000 in
  if fddi * 5 > big then Alcotest.fail "FDDI not ~10x faster"

let test_latency_applied () =
  let t = ref 0 in
  ignore
    (run_sim (fun eng ->
         let seg = Segment.create eng Segment.ethernet in
         let a = Socket.create seg ~addr:"a" () in
         let b = Socket.create seg ~addr:"b" () in
         Engine.spawn eng (fun () ->
             ignore (Socket.recv b);
             t := Engine.now eng);
         Engine.spawn eng (fun () -> Socket.send a ~dst:"b" (Bytes.make 1000 'x'))));
  let expect = Segment.wire_time Segment.ethernet 1000 + Segment.ethernet.Segment.latency in
  Alcotest.(check int) "wire + latency" expect !t

let test_shared_medium_serialises () =
  (* Two senders to two receivers: second datagram arrives one
     occupancy later — the medium is shared. *)
  let times = ref [] in
  ignore
    (run_sim (fun eng ->
         let seg = Segment.create eng Segment.ethernet in
         let s1 = Socket.create seg ~addr:"s1" () in
         let s2 = Socket.create seg ~addr:"s2" () in
         let r1 = Socket.create seg ~addr:"r1" () in
         let r2 = Socket.create seg ~addr:"r2" () in
         Engine.spawn eng (fun () ->
             ignore (Socket.recv r1);
             times := ("r1", Engine.now eng) :: !times);
         Engine.spawn eng (fun () ->
             ignore (Socket.recv r2);
             times := ("r2", Engine.now eng) :: !times);
         Engine.spawn eng (fun () -> Socket.send s1 ~dst:"r1" (Bytes.make 4000 'a'));
         Engine.spawn eng (fun () -> Socket.send s2 ~dst:"r2" (Bytes.make 4000 'b'))));
  let t1 = List.assoc "r1" !times and t2 = List.assoc "r2" !times in
  let occupancy = Segment.wire_time Segment.ethernet 4000 in
  Alcotest.(check int) "second delayed by one occupancy" occupancy (t2 - t1)

let test_buffer_overflow_drops () =
  let received = ref 0 in
  ignore
    (run_sim (fun eng ->
         let seg = Segment.create eng Segment.ethernet in
         let a = Socket.create seg ~addr:"a" () in
         (* Room for only two 1000-byte datagrams; nobody recv()s. *)
         let b = Socket.create seg ~addr:"b" ~rcvbuf:2048 () in
         for _ = 1 to 5 do
           Socket.send a ~dst:"b" (Bytes.make 1000 'x')
         done;
         Engine.schedule eng ~after:(Time.sec 1) (fun () ->
             received := Socket.pending b;
             Alcotest.(check int) "3 dropped" 3 (Socket.dropped b))));
  Alcotest.(check int) "2 queued" 2 !received

let test_scan_does_not_consume () =
  ignore
    (run_sim (fun eng ->
         let seg = Segment.create eng Segment.fddi in
         let a = Socket.create seg ~addr:"a" () in
         let b = Socket.create seg ~addr:"b" () in
         Socket.send a ~dst:"b" (Bytes.of_string "WRITE file7");
         Engine.schedule eng ~after:(Time.sec 1) (fun () ->
             let hit =
               Socket.scan b (fun ~src:_ payload ->
                   Bytes.length payload > 5 && Bytes.sub_string payload 0 5 = "WRITE")
             in
             Alcotest.(check bool) "found" true hit;
             let miss = Socket.scan b (fun ~src:_ _ -> false) in
             Alcotest.(check bool) "predicate honoured" false miss;
             Alcotest.(check int) "still queued" 1 (Socket.pending b))))

let test_loss_injection () =
  let received = ref 0 in
  ignore
    (run_sim (fun eng ->
         let seg = Segment.create eng { Segment.fddi with Segment.loss_prob = 0.5 } in
         let a = Socket.create seg ~addr:"a" () in
         let b = Socket.create seg ~addr:"b" () in
         for _ = 1 to 200 do
           Socket.send a ~dst:"b" (Bytes.make 100 'x')
         done;
         Engine.schedule eng ~after:(Time.sec 5) (fun () ->
             received := Socket.pending b;
             if Segment.datagrams_lost seg = 0 then Alcotest.fail "no loss injected")));
  if !received < 60 || !received > 140 then Alcotest.failf "%d of 200 at p=0.5?" !received

let test_rx_fragment_hook () =
  let frags = ref 0 in
  ignore
    (run_sim (fun eng ->
         let seg = Segment.create eng Segment.ethernet in
         let a = Socket.create seg ~addr:"a" () in
         let _b =
           Socket.create seg ~addr:"b" ~on_rx_fragment:(fun ~bytes:_ -> incr frags) ()
         in
         Socket.send a ~dst:"b" (Bytes.make 8300 'x')));
  Alcotest.(check int) "6 fragments charged" 6 !frags

let test_unknown_destination_vanishes () =
  ignore
    (run_sim (fun eng ->
         let seg = Segment.create eng Segment.ethernet in
         let a = Socket.create seg ~addr:"a" () in
         Socket.send a ~dst:"ghost" (Bytes.of_string "hello")));
  (* Nothing to assert beyond "no crash". *)
  ()

(* A duplicating segment delivers the duplicate as a buffer of its own,
   so the sender may reuse the original once its call is answered. *)
let test_duplicate_is_its_own_copy () =
  let sent = Bytes.of_string "one call" in
  let got = ref [] in
  let dups =
    run_sim (fun eng ->
        let seg = Segment.create eng Segment.fddi in
        Segment.set_dup_prob seg 0.999;
        let a = Socket.create seg ~addr:"a" () in
        let b = Socket.create seg ~addr:"b" () in
        Engine.spawn eng (fun () ->
            for _ = 1 to 2 do
              got := snd (Socket.recv b) :: !got
            done);
        Socket.send a ~dst:"b" sent;
        seg)
  in
  Alcotest.(check int) "duplicated once" 1 (Segment.datagrams_duplicated dups);
  match !got with
  | [ dup; original ] ->
      Alcotest.(check bool) "the original is the buffer sent" true (original == sent);
      Alcotest.(check bool) "the duplicate is another buffer" true (dup != sent);
      Alcotest.(check string) "with the same bytes" (Bytes.to_string sent) (Bytes.to_string dup)
  | l -> Alcotest.failf "%d deliveries" (List.length l)

let suite =
  [
    Alcotest.test_case "datagram delivery" `Quick test_delivery;
    Alcotest.test_case "fragmentation counts" `Quick test_fragment_count;
    Alcotest.test_case "wire time scales with size" `Quick test_wire_time_scales;
    Alcotest.test_case "latency applied after wire time" `Quick test_latency_applied;
    Alcotest.test_case "shared medium serialises senders" `Quick test_shared_medium_serialises;
    Alcotest.test_case "full socket buffer drops" `Quick test_buffer_overflow_drops;
    Alcotest.test_case "scan sees without consuming" `Quick test_scan_does_not_consume;
    Alcotest.test_case "random loss injection" `Quick test_loss_injection;
    Alcotest.test_case "per-fragment receive hook" `Quick test_rx_fragment_hook;
    Alcotest.test_case "unknown destination dropped" `Quick test_unknown_destination_vanishes;
    Alcotest.test_case "a duplicate is its own copy" `Quick test_duplicate_is_its_own_copy;
  ]
