(* The live operability plane: journey phase accounting, long-op
   threshold triggering, per-station attribution across restart, and
   byte-determinism of the nfsmon transcript (interval reports plus
   long-op records) across two runs in one process. *)

open Nfsg_sim
module Journey = Nfsg_stats.Journey
module Metrics = Nfsg_stats.Metrics
module Names = Nfsg_stats.Names
module Demo = Nfsg_experiments.Monitor_demo

let ms = Time.of_ms_f

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Drive one journey through every stamp with a known dwell in each
   phase; the phases must read back exactly and partition the total. *)
let test_phases_partition () =
  let eng = Engine.create () in
  let metrics = Metrics.create () in
  let plane = Journey.create eng ~metrics () in
  let result = ref None in
  Engine.spawn eng ~name:"op" (fun () ->
      let j = Journey.start plane ~client:"alice" ~xid:7 ~arrival:(Engine.now eng) in
      Journey.set_op j ~proc:"WRITE" ~bytes:8192;
      Engine.delay (ms 1.0);
      Journey.stamp_pickup j ~now:(Engine.now eng);
      Engine.delay (ms 2.0);
      Journey.stamp_admitted j ~now:(Engine.now eng);
      Engine.delay (ms 3.0);
      Journey.stamp_queued j ~now:(Engine.now eng);
      Engine.delay (ms 4.0);
      Journey.stamp_disk_submit j ~now:(Engine.now eng);
      Engine.delay (ms 5.0);
      Journey.stamp_disk_complete j ~now:(Engine.now eng);
      Engine.delay (ms 6.0);
      Journey.finish plane j;
      result := Some (Journey.phases j));
  Engine.run eng;
  match !result with
  | None -> Alcotest.fail "journey never finished"
  | Some ph ->
      let check name expect actual =
        Alcotest.(check int) name expect actual
      in
      check "sock_wait" (ms 1.0) ph.Journey.sock_wait;
      check "dupcache" (ms 2.0) ph.Journey.dupcache;
      check "prep" (ms 3.0) ph.Journey.prep;
      check "gather_wait" (ms 4.0) ph.Journey.gather_wait;
      check "disk" (ms 5.0) ph.Journey.disk;
      check "reply_path" (ms 6.0) ph.Journey.reply_path;
      check "total" (ms 21.0) ph.Journey.total;
      let sum =
        ph.Journey.sock_wait + ph.Journey.dupcache + ph.Journey.prep + ph.Journey.gather_wait
        + ph.Journey.disk + ph.Journey.reply_path
      in
      check "phases sum to total" ph.Journey.total sum

(* Stamps a fast op never reaches (no disk flush for a GETATTR-shaped
   journey) collapse onto their predecessor: every phase non-negative,
   the partition still exact. *)
let test_unset_stamps_collapse () =
  let eng = Engine.create () in
  let metrics = Metrics.create () in
  let plane = Journey.create eng ~metrics () in
  let result = ref None in
  Engine.spawn eng ~name:"op" (fun () ->
      let j = Journey.start plane ~client:"bob" ~xid:9 ~arrival:(Engine.now eng) in
      Journey.set_op j ~proc:"GETATTR" ~bytes:0;
      Engine.delay (ms 1.5);
      Journey.stamp_pickup j ~now:(Engine.now eng);
      (* No admitted/queued/disk stamps at all. *)
      Engine.delay (ms 2.5);
      Journey.finish plane j;
      result := Some (Journey.phases j));
  Engine.run eng;
  match !result with
  | None -> Alcotest.fail "journey never finished"
  | Some ph ->
      let nonneg name v = Alcotest.(check bool) (name ^ " >= 0") true (v >= 0) in
      nonneg "sock_wait" ph.Journey.sock_wait;
      nonneg "dupcache" ph.Journey.dupcache;
      nonneg "prep" ph.Journey.prep;
      nonneg "gather_wait" ph.Journey.gather_wait;
      nonneg "disk" ph.Journey.disk;
      nonneg "reply_path" ph.Journey.reply_path;
      let sum =
        ph.Journey.sock_wait + ph.Journey.dupcache + ph.Journey.prep + ph.Journey.gather_wait
        + ph.Journey.disk + ph.Journey.reply_path
      in
      Alcotest.(check int) "phases sum to total" ph.Journey.total sum;
      Alcotest.(check int) "total is arrival->reply" (ms 4.0) ph.Journey.total

(* The threshold gate: an op under the threshold leaves no record, one
   over it leaves exactly one rendered record in the ring. *)
let test_long_op_threshold () =
  let eng = Engine.create () in
  let metrics = Metrics.create () in
  let plane = Journey.create eng ~metrics ~threshold:(ms 10.0) () in
  Engine.spawn eng ~name:"ops" (fun () ->
      let fast = Journey.start plane ~client:"alice" ~xid:1 ~arrival:(Engine.now eng) in
      Journey.set_op fast ~proc:"WRITE" ~bytes:8192;
      Engine.delay (ms 5.0);
      Journey.finish plane fast;
      let slow = Journey.start plane ~client:"alice" ~xid:2 ~arrival:(Engine.now eng) in
      Journey.set_op slow ~proc:"WRITE" ~bytes:8192;
      Engine.delay (ms 25.0);
      Journey.finish plane slow);
  Engine.run eng;
  Alcotest.(check int) "one long op" 1 (Journey.long_op_count plane);
  let rendered = Journey.render_long_ops plane in
  Alcotest.(check bool) "record names the op" true
    (contains rendered "long-op WRITE client=alice xid=2");
  Alcotest.(check bool) "record carries the total" true
    (contains rendered "total=25000us")

(* A real injected slowdown: the monitor demo wraps its spindle in a
   Fault_disk window, and the ops caught inside it must cross the
   threshold and leave records with a dominant disk phase. *)
let test_slowdown_triggers_long_ops () =
  let out = Demo.run () in
  Alcotest.(check bool) "interval reports present" true
    (contains out "nfsmon t=");
  Alcotest.(check bool) "long-op records present" true
    (contains out "long-op records:");
  Alcotest.(check bool) "a WRITE crossed the threshold" true
    (contains out "long-op WRITE")

(* Station attribution is find-or-create in the shared registry, so a
   crash/restart (a fresh plane over the same registry, exactly what
   Server.restart builds) accumulates instead of resetting. *)
let test_station_survives_restart () =
  let eng = Engine.create () in
  let metrics = Metrics.create () in
  let op plane xid =
    let j = Journey.start plane ~client:"alice" ~xid ~arrival:(Engine.now eng) in
    Journey.set_op j ~proc:"WRITE" ~bytes:8192;
    Journey.finish plane j
  in
  Engine.spawn eng ~name:"ops" (fun () ->
      let before = Journey.create eng ~metrics () in
      op before 1;
      op before 2;
      (* The crash: the old plane is dropped with the server, the
         restarted server registers a fresh one against the same
         registry. *)
      let after = Journey.create eng ~metrics () in
      op after 3);
  Engine.run eng;
  let ns = Names.Ns.station "alice" in
  let ops = Option.value ~default:0 (Metrics.find_counter metrics ~ns Names.station_ops) in
  Alcotest.(check int) "station ops accumulate across restart" 3 ops

(* Long-op losses across a restart: two planes on one registry, as
   Server.restart builds them, each overflow the 512-record ring by 88.
   The shared counter must hold both incarnations' losses, and each
   plane's dump must report its own. *)
let test_long_op_losses_add_across_restart () =
  let eng = Engine.create () in
  let metrics = Metrics.create () in
  let overflow plane =
    for xid = 1 to 512 + 88 do
      let j = Journey.start plane ~client:"alice" ~xid ~arrival:(Engine.now eng) in
      Journey.set_op j ~proc:"WRITE" ~bytes:8192;
      Engine.delay (ms 2.0);
      Journey.finish plane j
    done
  in
  let planes = ref [] in
  Engine.spawn eng ~name:"ops" (fun () ->
      let before = Journey.create eng ~metrics ~threshold:(ms 1.0) () in
      overflow before;
      let after = Journey.create eng ~metrics ~threshold:(ms 1.0) () in
      overflow after;
      planes := [ before; after ]);
  Engine.run eng;
  match !planes with
  | [ before; after ] ->
      Alcotest.(check int) "both incarnations' losses" 176 (Journey.dropped after);
      Alcotest.(check int) "one counter for both planes" 176 (Journey.dropped before);
      Alcotest.(check bool) "the dump reports its own ring's losses" true
        (contains (Journey.render_long_ops after) "(88 older long-op records dropped by the ring)")
  | _ -> Alcotest.fail "ops process did not finish"

(* The transcript — interval tables, journey summary, long-op records —
   byte for byte across two runs with nothing in between. *)
let test_demo_double_run () =
  let first = Demo.run () and second = Demo.run () in
  Alcotest.(check string) "nfsmon transcript identical" first second

let suite =
  [
    Alcotest.test_case "phases partition the total" `Quick test_phases_partition;
    Alcotest.test_case "unset stamps collapse" `Quick test_unset_stamps_collapse;
    Alcotest.test_case "long-op threshold gate" `Quick test_long_op_threshold;
    Alcotest.test_case "slowdown window triggers long-ops" `Quick test_slowdown_triggers_long_ops;
    Alcotest.test_case "station counters survive restart" `Quick test_station_survives_restart;
    Alcotest.test_case "nfsmon transcript double-run bytes" `Quick test_demo_double_run;
    Alcotest.test_case "long-op losses add across restart" `Quick
      test_long_op_losses_add_across_restart;
  ]
