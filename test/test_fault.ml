(* Fault injection: disk errors, network faults, crash/restart cycles,
   and the chaos rig's three invariants (no acked write lost, no
   non-idempotent re-execution, bit-for-bit reproducibility). *)

open Testbed
module Engine = Nfsg_sim.Engine
module Time = Nfsg_sim.Time
module Fault_disk = Nfsg_fault.Fault_disk
module Fs = Nfsg_ufs.Fs
module Rpc = Nfsg_rpc.Rpc
module Chaos = Nfsg_experiments.Chaos

let ms = Time.of_ms_f

(* {1 Device-level faults} *)

let test_fault_disk_unit () =
  let eng = Engine.create () in
  let disk = Disk.create eng disk_geometry in
  let inj, dev = Fault_disk.wrap eng disk in
  let data = Bytes.make 8192 'x' in
  Engine.spawn eng ~name:"driver" (fun () ->
      (* Transparent until armed. *)
      dev.Device.write ~off:0 data;
      Alcotest.(check bytes) "reads back" data (dev.Device.read ~off:0 ~len:8192);
      (* fail_next: exactly the next n transactions fail, then clear. *)
      Fault_disk.fail_next ~n:2 inj;
      (try
         dev.Device.write ~off:8192 data;
         Alcotest.fail "armed write must raise"
       with Device.Io_error _ -> ());
      (try
         ignore (dev.Device.read ~off:0 ~len:512);
         Alcotest.fail "armed read must raise"
       with Device.Io_error _ -> ());
      dev.Device.write ~off:8192 data;
      Alcotest.(check int) "two injected errors" 2 (Fault_disk.errors_injected inj);
      (* error_window: certain failure inside, clean outside. *)
      let now = Engine.now eng in
      Fault_disk.error_window inj ~from_:now ~until:(now + ms 10.0) ~prob:1.0;
      (try
         dev.Device.write ~off:0 data;
         Alcotest.fail "window write must raise"
       with Device.Io_error _ -> ());
      Engine.delay (ms 20.0);
      dev.Device.write ~off:0 data;
      (* slowdown_window stretches service time by the factor. *)
      let t0 = Engine.now eng in
      dev.Device.write ~off:16384 data;
      let base = Engine.now eng - t0 in
      let now = Engine.now eng in
      Fault_disk.slowdown_window inj ~from_:now ~until:(now + Time.of_sec_f 5.0) ~factor:3.0;
      let t0 = Engine.now eng in
      dev.Device.write ~off:16384 data;
      let slow = Engine.now eng - t0 in
      if slow < 2 * base then
        Alcotest.failf "slowdown factor 3 took %dns vs base %dns" slow base;
      Alcotest.(check int) "slowdown counted" 1 (Fault_disk.slowdowns inj);
      Fault_disk.clear inj;
      (* hang_window: the transaction is held until the window closes. *)
      let now = Engine.now eng in
      Fault_disk.hang_window inj ~from_:now ~until:(now + ms 50.0);
      let t0 = Engine.now eng in
      dev.Device.write ~off:0 data;
      if Engine.now eng - t0 < ms 50.0 then Alcotest.fail "hang did not hold the request";
      Alcotest.(check int) "hang counted" 1 (Fault_disk.hangs inj);
      (* stable paths are never guarded. *)
      Fault_disk.fail_next ~n:5 inj;
      ignore (dev.Device.stable_read ~off:0 ~len:512);
      dev.Device.stable_write ~off:0 (Bytes.make 512 'y');
      Fault_disk.clear inj);
  Engine.run eng

(* fail_stop/revive: whole-spindle loss, distinct from the transient
   arms — every request errors and even stable ops raise, until the
   replacement is plugged in. *)
let test_fail_stop_revive () =
  let eng = Engine.create () in
  let disk = Disk.create eng disk_geometry in
  let inj, dev = Fault_disk.wrap eng disk in
  let data = Bytes.make 8192 'z' in
  Engine.spawn eng ~name:"driver" (fun () ->
      dev.Device.write ~off:0 data;
      Fault_disk.fail_stop inj;
      Alcotest.(check bool) "reports failed" true (Fault_disk.is_failed inj);
      (try
         dev.Device.write ~off:8192 data;
         Alcotest.fail "fail-stopped write must raise"
       with Device.Io_error _ -> ());
      (try
         ignore (dev.Device.read ~off:0 ~len:512);
         Alcotest.fail "fail-stopped read must raise"
       with Device.Io_error _ -> ());
      (* unlike the transient arms, fail-stop guards the stable paths *)
      (try
         ignore (dev.Device.stable_read ~off:0 ~len:512);
         Alcotest.fail "fail-stopped stable read must raise"
       with Device.Io_error _ -> ());
      (try
         dev.Device.stable_write ~off:0 (Bytes.make 512 'q');
         Alcotest.fail "fail-stopped stable write must raise"
       with Device.Io_error _ -> ());
      (* re-stopping while stopped is not a second transition *)
      Fault_disk.fail_stop inj;
      Alcotest.(check int) "one transition" 1 (Fault_disk.fail_stops inj);
      Fault_disk.revive inj;
      Alcotest.(check bool) "revived" false (Fault_disk.is_failed inj);
      (* the platter kept its pre-failure contents *)
      Alcotest.(check bytes) "contents survive" data (dev.Device.read ~off:0 ~len:8192));
  Engine.run eng

let test_nvram_battery () =
  let eng = Engine.create () in
  let disk = Disk.create eng disk_geometry in
  let board, dev = Nvram.create eng disk in
  let data = Bytes.make 8192 'p' in
  Engine.spawn eng ~name:"driver" (fun () ->
      Alcotest.(check bool) "starts accelerated" true (dev.Device.accelerated ());
      dev.Device.write ~off:0 data;
      (* Battery fault: orderly degrade — accelerated flips off, dirty
         contents drain, new writes pass through synchronously. *)
      Nvram.fail_battery board;
      Alcotest.(check bool) "degraded" false (dev.Device.accelerated ());
      let rec wait_drain () =
        if Nvram.dirty_bytes board > 0 then begin
          Engine.delay (ms 20.0);
          wait_drain ()
        end
      in
      wait_drain ();
      dev.Device.write ~off:8192 data;
      Alcotest.(check int) "pass-through leaves nothing dirty" 0 (Nvram.dirty_bytes board);
      (* Crash with a dead battery: drained + pass-through data is on
         the platter, so everything survives without a replay. *)
      dev.Device.crash ();
      dev.Device.recover ();
      Alcotest.(check bytes) "block 0 survived" data (dev.Device.stable_read ~off:0 ~len:8192);
      Alcotest.(check bytes) "block 1 survived" data (dev.Device.stable_read ~off:8192 ~len:8192);
      Nvram.repair_battery board;
      Alcotest.(check bool) "repaired" true (dev.Device.accelerated ());
      dev.Device.write ~off:16384 data;
      Alcotest.(check bool) "accepting dirty data again" true (Nvram.dirty_bytes board > 0));
  Engine.run eng

let test_nvram_flusher_rides_through () =
  let eng = Engine.create () in
  let disk = Disk.create eng disk_geometry in
  let inj, faulty = Fault_disk.wrap eng disk in
  let board, dev = Nvram.create eng faulty in
  Engine.spawn eng ~name:"driver" (fun () ->
      (* Make the backing store fail for a while, then stuff the NVRAM:
         the background flusher must absorb the errors, retry, and
         eventually drain — never abort the simulation or lose data. *)
      let now = Engine.now eng in
      Fault_disk.error_window inj ~from_:now ~until:(now + Time.of_sec_f 1.0) ~prob:1.0;
      let blocks = 8 in
      for i = 0 to blocks - 1 do
        dev.Device.write ~off:(i * 8192) (Bytes.make 8192 (Char.chr (Char.code 'a' + i)))
      done;
      let rec wait_drain () =
        if Nvram.dirty_bytes board > 0 then begin
          Engine.delay (ms 50.0);
          wait_drain ()
        end
      in
      wait_drain ();
      Alcotest.(check bool) "flusher retried through errors" true (Nvram.flush_retries board > 0);
      for i = 0 to blocks - 1 do
        let expect = Bytes.make 8192 (Char.chr (Char.code 'a' + i)) in
        Alcotest.(check bytes)
          (Printf.sprintf "block %d drained intact" i)
          expect
          (disk.Device.stable_read ~off:(i * 8192) ~len:8192)
      done);
  Engine.run eng

(* {1 End-to-end error propagation} *)

(* A rig whose disk sits behind a fault injector. *)
let make_fault_rig ?(config = Server.default_config) () =
  let eng = Engine.create () in
  let segment = Segment.create eng Segment.fddi in
  let disk = Disk.create eng disk_geometry in
  let inj, faulty = Fault_disk.wrap eng disk in
  let server = Server.make eng ~segment ~addr:"server" ~device:faulty config in
  (eng, segment, inj, server)

let raw_rpc eng segment addr =
  let sock = Socket.create segment ~addr () in
  Rpc_client.create eng ~sock ~server:"server" ()

let call_res rpc ~proc args =
  match Rpc_client.call rpc ~proc (Proto.encode_args args) with
  | Rpc.Success, body -> Proto.decode_res ~proc body
  | _, _ -> Alcotest.failf "rpc accept_stat not success for proc %d" proc

let create_file rpc root name =
  match call_res rpc ~proc:Proto.proc_create (Proto.Create { dir = root; name; sattr = Proto.sattr_none }) with
  | Proto.RDirop (Ok (fh, _)) -> fh
  | _ -> Alcotest.failf "create %s failed" name

let test_write_io_error_propagates () =
  (* Standard mode: VOP_WRITE(IO_SYNC) hits the disk synchronously, so
     an injected error must surface as NFSERR_IO on this one reply —
     and the server must keep serving afterwards. *)
  let config =
    { Server.default_config with Server.write_layer = Write_layer.standard; nfsds = 2 }
  in
  let eng, segment, inj, server = make_fault_rig ~config () in
  Engine.spawn eng ~name:"driver" (fun () ->
      let rpc = raw_rpc eng segment "client" in
      let fh = create_file rpc (Server.root_fh server) "f" in
      let data = Bytes.make 8192 'd' in
      Fault_disk.fail_next inj;
      (match call_res rpc ~proc:Proto.proc_write (Proto.Write { fh; offset = 0; data = Nfsg_rpc.Xdr.view_of_bytes data }) with
      | Proto.RAttr (Error Proto.NFSERR_IO) -> ()
      | _ -> Alcotest.fail "expected NFSERR_IO on the faulted write");
      (* Same write retried: succeeds, data durable. *)
      (match call_res rpc ~proc:Proto.proc_write (Proto.Write { fh; offset = 0; data = Nfsg_rpc.Xdr.view_of_bytes data }) with
      | Proto.RAttr (Ok _) -> ()
      | _ -> Alcotest.fail "retry after transient error must succeed");
      match call_res rpc ~proc:Proto.proc_read (Proto.Read { fh; offset = 0; count = 8192 }) with
      | Proto.RRead (Ok (_, back)) -> Alcotest.(check bytes) "data readable" data back
      | _ -> Alcotest.fail "read after retry failed");
  Engine.run eng;
  Alcotest.(check int) "one error injected" 1 (Fault_disk.errors_injected inj)

let test_gathered_batch_fails_together () =
  (* Two clients' writes gather into one batch; the batch's metadata
     flush hits a disk error; BOTH deferred replies must come back
     NFSERR_IO, the nfsds must survive, and the retries must land. *)
  let eng, segment, inj, server = make_fault_rig () in
  let got = Array.make 2 `None in
  let acked = Array.make 2 false in
  Engine.spawn eng ~name:"driver" (fun () ->
      let rpc0 = raw_rpc eng segment "c0" in
      let rpc1 = raw_rpc eng segment "c1" in
      let fh = create_file rpc0 (Server.root_fh server) "f" in
      Engine.delay (ms 50.0);
      Fault_disk.fail_next inj;
      let writer i rpc () =
        let data = Bytes.make 8192 (Char.chr (Char.code 'A' + i)) in
        (match call_res rpc ~proc:Proto.proc_write (Proto.Write { fh; offset = i * 8192; data = Nfsg_rpc.Xdr.view_of_bytes data }) with
        | Proto.RAttr (Error Proto.NFSERR_IO) -> got.(i) <- `Io_error
        | Proto.RAttr (Ok _) -> got.(i) <- `Ok
        | _ -> got.(i) <- `Other);
        (* Retry until it sticks — the fault was transient. *)
        match call_res rpc ~proc:Proto.proc_write (Proto.Write { fh; offset = i * 8192; data = Nfsg_rpc.Xdr.view_of_bytes data }) with
        | Proto.RAttr (Ok _) -> acked.(i) <- true
        | _ -> ()
      in
      Engine.spawn eng ~name:"w0" (writer 0 rpc0);
      Engine.spawn eng ~name:"w1" (writer 1 rpc1));
  Engine.run eng;
  Alcotest.(check int) "one failed flush" 1 (Write_layer.flush_failures (Server.write_layer server));
  Array.iteri
    (fun i g ->
      if g <> `Io_error then Alcotest.failf "client %d: expected NFSERR_IO for the whole batch" i)
    got;
  Array.iteri (fun i a -> if not a then Alcotest.failf "client %d: retry not acked" i) acked;
  Alcotest.(check int) "exactly one injected error" 1 (Fault_disk.errors_injected inj)

(* {1 Network faults} *)

let test_dupcache_replay_under_loss () =
  (* Satellite: heavy loss + duplication over non-idempotent traffic.
     With the duplicate cache, every client-visible outcome is clean;
     the control run without it shows re-execution — the failure the
     cache exists to prevent. *)
  let run ~dupcache =
    let config = { Server.default_config with Server.dupcache } in
    let eng = Engine.create () in
    let segment = Segment.create eng ~seed:0xbad Segment.fddi in
    let disk = Disk.create eng disk_geometry in
    let server = Server.make eng ~segment ~addr:"server" ~device:disk config in
    let spurious = ref 0 and completed = ref 0 in
    let issued = 30 in
    let retrans = ref 0 in
    Engine.spawn eng ~name:"driver" (fun () ->
        let rpc = raw_rpc eng segment "client" in
        let root = Server.root_fh server in
        (* Loss is kept moderate on purpose: a retransmission chain
           that outlives the duplicate cache's 6 s retention would
           legitimately re-execute (finite retention is part of the
           design); what this test pins down is replay within it. *)
        Segment.set_loss_prob segment 0.12;
        Segment.set_dup_prob segment 0.15;
        for i = 1 to issued do
          let name = Printf.sprintf "n-%d" i in
          (match
             call_res rpc ~proc:Proto.proc_create
               (Proto.Create { dir = root; name; sattr = Proto.sattr_none })
           with
          | Proto.RDirop (Ok _) -> (
              incr completed;
              match call_res rpc ~proc:Proto.proc_remove (Proto.Remove { dir = root; name }) with
              | Proto.RStatus Proto.NFS_OK -> ()
              | Proto.RStatus Proto.NFSERR_NOENT -> incr spurious
              | _ -> ())
          | Proto.RDirop (Error Proto.NFSERR_EXIST) -> incr spurious
          | _ -> ())
        done;
        retrans := Rpc_client.retransmissions rpc);
    Engine.run eng;
    (!spurious, !completed, Server.op_count server Proto.proc_create, !retrans)
  in
  let spurious, completed, executed, retrans = run ~dupcache:true in
  Alcotest.(check bool) "retransmissions happened" true (retrans > 0);
  Alcotest.(check int) "all creates completed" 30 completed;
  Alcotest.(check int) "dupcache: zero spurious outcomes" 0 spurious;
  Alcotest.(check int) "dupcache: each create executed once" 30 executed;
  let spurious', _, executed', _ = run ~dupcache:false in
  Alcotest.(check bool) "control: duplicate executions on the server" true (executed' > 30);
  Alcotest.(check bool) "control: client-visible re-execution" true (spurious' > 0)

let test_partition_ride_through () =
  let rig = Testbed.make () in
  Testbed.run rig (fun () ->
      let root = Testbed.root rig in
      let fh, _ = Client.create_file rig.client root "f" in
      (* Open a 1-second partition, then immediately write through it:
         the RPC layer retransmits until the window lifts. *)
      let until = Engine.now rig.eng + Time.of_sec_f 1.0 in
      Segment.partition rig.segment ~a:"server" ~b:"client" ~until;
      Alcotest.(check bool) "partitioned" true
        (Segment.partitioned rig.segment ~a:"client" ~b:"server");
      let t0 = Engine.now rig.eng in
      ignore (Testbed.write_file rig fh ~total:(4 * 8192) ());
      let elapsed = Engine.now rig.eng - t0 in
      Alcotest.(check bool) "write stalled across the partition" true (elapsed >= ms 500.0);
      Alcotest.(check bool) "datagrams blackholed" true
        (Segment.datagrams_blackholed rig.segment > 0);
      Alcotest.(check bool) "partition expired" false
        (Segment.partitioned rig.segment ~a:"server" ~b:"client");
      (* Per-station rcvbuf-drop counters are part of segment stats. *)
      Alcotest.(check (list string)) "stations reported" [ "client"; "server" ]
        (List.map fst (Segment.station_drops rig.segment));
      let back = Client.read rig.client fh ~off:0 ~len:(4 * 8192) in
      Alcotest.(check bytes) "data intact after ride-through"
        (Testbed.expect_pattern ~total:(4 * 8192) ~seed:7) back)

(* {1 Chaos acceptance} *)

let check_clean label (r : Chaos.result) =
  if r.Chaos.lost <> [] then
    Alcotest.failf "%s: %d acked write(s) lost: %s" label (List.length r.Chaos.lost)
      (String.concat "," (List.map string_of_int r.Chaos.lost));
  Alcotest.(check int) (label ^ ": no spurious non-idempotent outcome") 0 r.Chaos.spurious_nonidem;
  if r.Chaos.fsck_errors <> [] then
    Alcotest.failf "%s: fsck: %s" label (String.concat "; " r.Chaos.fsck_errors);
  (* +1: the bootstrap create of the ledger file. *)
  Alcotest.(check int)
    (label ^ ": every create executed exactly once")
    (r.Chaos.issued_creates + 1) r.Chaos.executed_creates;
  Alcotest.(check int)
    (label ^ ": every remove executed exactly once")
    r.Chaos.issued_removes r.Chaos.executed_removes

let test_crash_restart_ride_through () =
  (* One cycle, one writer: the minimal in-run crash/restart. *)
  let cfg =
    { Chaos.default with Chaos.cycles = 1; writers = 1; blocks_per_writer = 60; burst_ops = 4 }
  in
  let r = Chaos.run cfg in
  check_clean "1-cycle" r;
  Alcotest.(check int) "one crash" 1 r.Chaos.crashes;
  Alcotest.(check int) "one restart" 1 r.Chaos.restarts;
  Alcotest.(check bool) "writes acked across the outage" true (r.Chaos.acked > 5)

let test_chaos_acceptance () =
  let r = Chaos.run Chaos.default in
  check_clean "chaos" r;
  Alcotest.(check int) "five crashes" 5 r.Chaos.crashes;
  Alcotest.(check int) "five restarts" 5 r.Chaos.restarts;
  Alcotest.(check bool) "substantial ledger" true (r.Chaos.acked > 100);
  Alcotest.(check bool) "disk errors actually injected" true (r.Chaos.errors_injected > 0);
  Alcotest.(check bool) "some gathered flush failed" true (r.Chaos.flush_failures > 0);
  Alcotest.(check bool) "clients retried through NFSERR_IO" true (r.Chaos.io_error_replies > 0);
  (* Bit-for-bit reproducibility: same seed, same everything. *)
  let r2 = Chaos.run Chaos.default in
  Alcotest.(check (list string)) "same fault timeline" r.Chaos.timeline r2.Chaos.timeline;
  Alcotest.(check string) "same digest" r.Chaos.digest r2.Chaos.digest;
  (* A different seed must give a different schedule. *)
  let r3 = Chaos.run { Chaos.default with Chaos.seed = 43 } in
  Alcotest.(check bool) "different seed diverges" true (r3.Chaos.digest <> r.Chaos.digest)

(* The crash promises are scheduler-independent: however the spindle
   reorders its queue, no acked write may be lost and no non-idempotent
   op re-executed. Run the quick chaos scenario under all three. *)
let test_chaos_all_schedulers () =
  List.iter
    (fun (name, scheduler) ->
      let cfg =
        {
          Chaos.default with
          Chaos.cycles = 1;
          writers = 1;
          blocks_per_writer = 60;
          burst_ops = 4;
          scheduler;
        }
      in
      let r = Chaos.run cfg in
      check_clean name r;
      Alcotest.(check int) (name ^ ": one crash") 1 r.Chaos.crashes;
      Alcotest.(check int) (name ^ ": one restart") 1 r.Chaos.restarts)
    [
      ("fifo", Nfsg_disk.Disk.Fifo);
      ("elevator", Nfsg_disk.Disk.Elevator);
      ("deadline", Nfsg_disk.Disk.Deadline);
    ]

let test_chaos_accelerated () =
  let r = Chaos.run { Chaos.default with Chaos.accel = true } in
  check_clean "chaos+presto" r;
  Alcotest.(check int) "five crashes" 5 r.Chaos.crashes;
  let contains line sub =
    let n = String.length sub and m = String.length line in
    let rec go i = i + n <= m && (String.sub line i n = sub || go (i + 1)) in
    go 0
  in
  let mentions sub = List.exists (fun l -> contains l sub) r.Chaos.timeline in
  Alcotest.(check bool) "battery failure in timeline" true (mentions "battery failure");
  Alcotest.(check bool) "battery repair in timeline" true (mentions "battery replaced")

let suite =
  [
    Alcotest.test_case "fault-disk primitives." `Quick test_fault_disk_unit;
    Alcotest.test_case "fail-stop and revive." `Quick test_fail_stop_revive;
    Alcotest.test_case "nvram battery failure." `Quick test_nvram_battery;
    Alcotest.test_case "nvram flusher rides through disk errors." `Quick
      test_nvram_flusher_rides_through;
    Alcotest.test_case "write error reaches the client." `Quick test_write_io_error_propagates;
    Alcotest.test_case "gathered batch fails together." `Quick test_gathered_batch_fails_together;
    Alcotest.test_case "dupcache replay under loss." `Quick test_dupcache_replay_under_loss;
    Alcotest.test_case "partition ride-through." `Quick test_partition_ride_through;
    Alcotest.test_case "crash/restart ride-through." `Quick test_crash_restart_ride_through;
    Alcotest.test_case "chaos acceptance." `Quick test_chaos_acceptance;
    Alcotest.test_case "chaos under all three schedulers." `Quick test_chaos_all_schedulers;
    Alcotest.test_case "chaos with Presto + battery failure." `Quick test_chaos_accelerated;
  ]
