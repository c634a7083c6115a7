open Nfsg_sim
module Segment = Nfsg_net.Segment
module Socket = Nfsg_net.Socket
module Disk = Nfsg_disk.Disk
module Nvram = Nfsg_disk.Nvram
module Device = Nfsg_disk.Device
module Stripe = Nfsg_disk.Stripe
module Fault_disk = Nfsg_fault.Fault_disk
module Metrics = Nfsg_stats.Metrics
module Names = Nfsg_stats.Names
module Server = Nfsg_core.Server
module Write_layer = Nfsg_core.Write_layer
module Fs = Nfsg_ufs.Fs
module Proto = Nfsg_nfs.Proto
module Rpc = Nfsg_rpc.Rpc
module Rpc_client = Nfsg_rpc.Rpc_client

type config = {
  seed : int;
  cycles : int;
  accel : bool;
  dupcache : bool;
  writers : int;
  blocks_per_writer : int;
  burst_ops : int;
  loss_prob : float;
  storm_loss_prob : float;
  dup_prob : float;
  nfsds : int;
  scheduler : Disk.scheduler;  (** spindle I/O scheduling policy *)
  array_level : Stripe.level option;
      (** serve from a redundant array instead of one spindle, adding
          whole-member fail-stop, degraded service and online rebuild
          to every fault cycle *)
}

let default =
  {
    seed = 42;
    cycles = 5;
    accel = false;
    dupcache = true;
    writers = 3;
    blocks_per_writer = 200;
    burst_ops = 8;
    loss_prob = 0.01;
    storm_loss_prob = 0.08;
    dup_prob = 0.02;
    nfsds = 8;
    scheduler = Disk.Fifo;
    array_level = None;
  }

type result = {
  acked : int;
  lost : int list;
  issued_creates : int;
  completed_creates : int;
  executed_creates : int;
  issued_removes : int;
  completed_removes : int;
  executed_removes : int;
  spurious_nonidem : int;
  crashes : int;
  restarts : int;
  flush_failures : int;
  errors_injected : int;
  io_error_replies : int;
  member_failures : int;  (** array members fail-stopped (0 without an array) *)
  rebuilds_completed : int;
  degraded_reads : int;
  degraded_writes : int;
  trace_dropped : int;
      (** journey/trace ring records overwritten before anyone read
          them — the drop-safety audit: losing observability must be
          visible, not silent *)
  fsck_errors : string list;
  timeline : string list;
  digest : string;
}

let bs = 8192
let block_fill blk = (blk * 131) + 7
let block_data blk = Bytes.init bs (fun j -> Char.chr ((j + block_fill blk) mod 251))

(* The whole scenario is a function of [cfg] alone: the engine, every
   RNG (segment, injector, fault plan, writer think times) and every
   fault instant derive from [cfg.seed], so two runs with equal configs
   produce identical timelines, identical final statistics and equal
   digests — the reproducibility invariant the test suite asserts. *)
let run ?metrics cfg =
  let metrics =
    match metrics with Some m -> m | None -> Nfsg_stats.Metrics.create ()
  in
  let eng = Engine.create () in
  let segment = Segment.create eng ~seed:(cfg.seed lxor 0x5e11) ~metrics Segment.fddi in
  Segment.set_loss_prob segment cfg.loss_prob;
  Segment.set_dup_prob segment cfg.dup_prob;
  (* The device stack under test. [array_level = None] keeps the
     classic single-spindle rig, byte-identical to earlier revisions;
     a level builds a redundant array whose members each carry their
     own injector (whole-spindle fail-stop), with the classic
     top-level injector wrapping the array itself. *)
  let base, member_injectors, array =
    match cfg.array_level with
    | None ->
        let disk =
          Disk.create eng ~name:"rz26" ~metrics ~scheduler:cfg.scheduler Calib.disk_geometry
        in
        (disk, [||], None)
    | Some level ->
        let n = match level with Stripe.Raid1 -> 2 | _ -> 3 in
        let wrapped =
          Array.init n (fun i ->
              let m =
                Disk.create eng
                  ~name:(Printf.sprintf "rz26-m%d" i)
                  ~metrics ~scheduler:cfg.scheduler
                  (Disk.rz26 ~capacity:(16 * 1024 * 1024) ())
              in
              Fault_disk.wrap eng ~seed:(cfg.seed lxor (0xfa10 + i)) m)
        in
        let arr =
          Stripe.create_array eng ~name:"array" ~metrics ~level ~chunk:32768
            (Array.map snd wrapped)
        in
        (Stripe.device arr, Array.map fst wrapped, Some arr)
  in
  let injector, faulty = Fault_disk.wrap eng ~seed:(cfg.seed lxor 0xfa01) base in
  let board, device =
    if cfg.accel then
      let board, device = Nvram.create eng ~params:Calib.nvram_params ~metrics faulty in
      (Some board, device)
    else (None, faulty)
  in
  let sconfig = { Server.default_config with Server.nfsds = cfg.nfsds; dupcache = cfg.dupcache } in
  let server = ref (Server.make eng ~segment ~addr:"server" ~device ~metrics sconfig) in

  (* Observations (all plain counters: no wall clock, no global RNG). *)
  let timeline = ref [] in
  let note fmt =
    Printf.ksprintf
      (fun s ->
        timeline := Printf.sprintf "%8.1fms %s" (Time.to_sec_f (Engine.now eng) *. 1e3) s :: !timeline)
      fmt
  in
  let acked : (int, unit) Hashtbl.t = Hashtbl.create 512 in
  let verified : (int, unit) Hashtbl.t = Hashtbl.create 512 in
  let lost = ref [] in
  let io_error_replies = ref 0 in
  let issued_creates = ref 0
  and completed_creates = ref 0
  and issued_removes = ref 0
  and completed_removes = ref 0
  and spurious = ref 0 in
  let executed_creates = ref 0 and executed_removes = ref 0 in
  let flush_failures = ref 0 in
  let crashes = ref 0 and restarts = ref 0 in
  let fsck_errors = ref [] in
  let stop = ref false in
  let writers_done = ref 0 in
  let burst_req = ref 0 and bursts_done = ref 0 in
  let mutator_gone = ref false in
  let result = ref None in

  let root_fh = ref { Proto.fsid = 0; vgen = 0; inum = 0; gen = 0 } in
  let victim_fh = ref { Proto.fsid = 0; vgen = 0; inum = 0; gen = 0 } in

  let tick = Time.of_ms_f 20.0 in
  let rec wait_for pred = if not (pred ()) then begin Engine.delay tick; wait_for pred end in
  let rebuild_pace = Time.of_us_f 500.0 in

  (* Every per-incarnation statistic must be read before the
     incarnation is crashed away. *)
  let harvest () =
    let srv = !server in
    executed_creates := !executed_creates + Server.op_count srv Proto.proc_create;
    executed_removes := !executed_removes + Server.op_count srv Proto.proc_remove;
    flush_failures := !flush_failures + Write_layer.flush_failures (Server.write_layer srv)
  in

  (* {2 The write ledger}

     Each writer owns a disjoint range of 8 KB blocks of one shared
     file and writes each block exactly once, retrying through
     NFSERR_IO replies and RPC timeouts. A block enters the ledger
     only when a success reply is {e seen by the client} — from that
     instant the block must survive every later crash. *)
  let writer w rpc () =
    let rng = Rng.create (cfg.seed + (7919 * (w + 1))) in
    let i = ref 0 in
    while (not !stop) && !i < cfg.blocks_per_writer do
      let blk = (w * cfg.blocks_per_writer) + !i in
      let data = block_data blk in
      let rec attempt tries timeouts =
        if tries < 8 then
          match
            Rpc_client.call rpc ~klass:Rpc_client.Heavy ~proc:Proto.proc_write
              (Proto.encode_args (Proto.Write { fh = !victim_fh; offset = blk * bs; data = Nfsg_rpc.Xdr.view_of_bytes data }))
          with
          | Rpc.Success, body -> (
              match Proto.decode_res ~proc:Proto.proc_write body with
              | Proto.RAttr (Ok _) -> Hashtbl.replace acked blk ()
              | Proto.RAttr (Error Proto.NFSERR_IO) ->
                  incr io_error_replies;
                  Engine.delay (Time.of_ms_f 60.0);
                  attempt (tries + 1) timeouts
              | _ -> ())
          | _ -> ()
          | exception Rpc_client.Timeout _ ->
              if timeouts < 2 then begin
                Engine.delay (Time.of_ms_f 150.0);
                attempt (tries + 1) (timeouts + 1)
              end
      in
      attempt 0 0;
      incr i;
      Engine.delay (Time.of_ms_f (25.0 +. (Rng.float rng *. 25.0)))
    done;
    incr writers_done
  in

  (* {2 Non-idempotent bursts}

     CREATE/REMOVE pairs with run-unique names, issued only in the
     quiet phase of each cycle (a duplicate cache is volatile, so NFS
     itself cannot protect non-idempotent requests {e across} a
     reboot — the rig tests what the protocol promises, not more).
     Within a burst, injected datagram duplication and reply loss force
     retransmissions; with the duplicate cache on, every retry must be
     answered by replay. A re-execution is visible as NFSERR_EXIST on
     a fresh CREATE or NFSERR_NOENT on a once-removed name. *)
  let mutator rpc () =
    while not !stop do
      if !bursts_done < !burst_req then begin
        let k = !bursts_done in
        for j = 1 to cfg.burst_ops do
          let name = Printf.sprintf "m-%d-%d" k j in
          incr issued_creates;
          (match
             Rpc_client.call rpc ~klass:Rpc_client.Middle ~proc:Proto.proc_create
               (Proto.encode_args
                  (Proto.Create { dir = !root_fh; name; sattr = Proto.sattr_none }))
           with
          | Rpc.Success, body -> (
              match Proto.decode_res ~proc:Proto.proc_create body with
              | Proto.RDirop (Ok _) -> (
                  incr completed_creates;
                  incr issued_removes;
                  match
                    Rpc_client.call rpc ~klass:Rpc_client.Middle ~proc:Proto.proc_remove
                      (Proto.encode_args (Proto.Remove { dir = !root_fh; name }))
                  with
                  | Rpc.Success, body -> (
                      match Proto.decode_res ~proc:Proto.proc_remove body with
                      | Proto.RStatus Proto.NFS_OK -> incr completed_removes
                      | Proto.RStatus Proto.NFSERR_NOENT -> incr spurious
                      | _ -> ())
                  | _ -> ()
                  | exception Rpc_client.Timeout _ -> ())
              | Proto.RDirop (Error Proto.NFSERR_EXIST) -> incr spurious
              | _ -> ())
          | _ -> ()
          | exception Rpc_client.Timeout _ -> ())
        done;
        incr bursts_done
      end
      else Engine.delay tick
    done;
    mutator_gone := true
  in

  (* Read back every not-yet-verified ledger block through the live
     filesystem of the current incarnation. Runs right after each
     restart, so each block is checked against at least one crash that
     happened after its acknowledgement; the final sweep re-checks the
     whole ledger. *)
  let verify label ~all =
    if all then Hashtbl.reset verified;
    let fs = Server.fs !server in
    let inode = Fs.lookup fs (Fs.root fs) "victim" in
    let pending =
      Hashtbl.fold (fun blk () l -> if Hashtbl.mem verified blk then l else blk :: l) acked []
      |> List.sort compare
    in
    let bad = ref 0 in
    List.iter
      (fun blk ->
        let back = Fs.read fs inode ~off:(blk * bs) ~len:bs in
        if Bytes.equal back (block_data blk) then Hashtbl.replace verified blk ()
        else begin
          incr bad;
          lost := blk :: !lost
        end)
      pending;
    note "verify(%s): %d block(s) checked, %d lost, ledger=%d" label (List.length pending) !bad
      (Hashtbl.length acked)
  in

  (* {2 The fault plan} *)
  let driver () =
    let plan = Rng.create (cfg.seed lxor 0x9a7) in
    (* Bootstrap: create the shared ledger file, then unleash load. *)
    let boot_sock = Socket.create segment ~addr:"mut" () in
    let boot_rpc = Rpc_client.create eng ~sock:boot_sock ~server:"server" ~metrics () in
    root_fh := Server.root_fh !server;
    (match
       Rpc_client.call boot_rpc ~klass:Rpc_client.Middle ~proc:Proto.proc_create
         (Proto.encode_args
            (Proto.Create { dir = !root_fh; name = "victim"; sattr = Proto.sattr_none }))
     with
    | Rpc.Success, body -> (
        match Proto.decode_res ~proc:Proto.proc_create body with
        | Proto.RDirop (Ok (fh, _)) -> victim_fh := fh
        | _ -> failwith "chaos: victim create failed")
    | _ -> failwith "chaos: victim create failed");
    for w = 0 to cfg.writers - 1 do
      let sock = Socket.create segment ~addr:(Printf.sprintf "w%d" w) () in
      let rpc = Rpc_client.create eng ~sock ~server:"server" ~metrics () in
      Engine.spawn eng ~name:(Printf.sprintf "writer%d" w) (writer w rpc)
    done;
    Engine.spawn eng ~name:"mutator" (mutator boot_rpc);
    note "chaos begins: seed=%d cycles=%d accel=%b dupcache=%b" cfg.seed cfg.cycles cfg.accel
      cfg.dupcache;
    Engine.delay (Time.of_ms_f 400.0);

    let span = Time.of_ms_f 2600.0 in
    for k = 0 to cfg.cycles - 1 do
      let cycle_start = Engine.now eng in
      (* Quiet phase: battery episode, then one non-idempotent burst,
         completed before any crash is armed. *)
      (match board with
      | Some board when k = 2 ->
          note "nvram battery failure (orderly drain begins)";
          Nvram.fail_battery board;
          wait_for (fun () -> Nvram.dirty_bytes board = 0);
          note "nvram drained, accelerated=%b" (device.Device.accelerated ())
      | Some board when k = 3 ->
          Nvram.repair_battery board;
          note "nvram battery replaced, accelerated=%b" (device.Device.accelerated ())
      | _ -> ());
      incr burst_req;
      wait_for (fun () -> !bursts_done >= !burst_req);
      (* Fault windows: disk errors always; degraded spindle and hung
         controller on alternate cycles; one writer partitioned away. *)
      let now = Engine.now eng in
      let prob = Rng.uniform plan 0.3 0.6 in
      Fault_disk.error_window injector ~from_:(now + Time.of_ms_f 100.0)
        ~until:(now + Time.of_ms_f 600.0) ~prob;
      note "disk error window +100..+600ms prob=%.2f" prob;
      if k mod 2 = 0 then begin
        let factor = Rng.uniform plan 2.0 4.0 in
        Fault_disk.slowdown_window injector ~from_:now ~until:(now + Time.of_ms_f 800.0) ~factor;
        note "disk slowdown window +0..+800ms factor=%.1f" factor
      end
      else begin
        Fault_disk.hang_window injector ~from_:(now + Time.of_ms_f 620.0)
          ~until:(now + Time.of_ms_f 780.0);
        note "disk hang window +620..+780ms"
      end;
      (* Whole-spindle loss: fail-stop one array member for the rest of
         the storm and the crash that follows — service must continue
         degraded, and the journal replay on recovery must cope with
         the hole. *)
      let victim_member = ref (-1) in
      (match array with
      | Some arr when Stripe.level arr <> Stripe.Raid0 ->
          let v = k mod Array.length member_injectors in
          victim_member := v;
          Fault_disk.fail_stop member_injectors.(v);
          Stripe.fail_member arr v;
          note "array member %d fail-stopped" v
      | _ -> ());
      let victim_writer = Printf.sprintf "w%d" (k mod cfg.writers) in
      Segment.partition segment ~a:"server" ~b:victim_writer ~until:(now + Time.of_ms_f 900.0);
      note "partition server<->%s for 900ms" victim_writer;
      Segment.set_loss_prob segment cfg.storm_loss_prob;
      note "loss storm p=%.2f" cfg.storm_loss_prob;
      Engine.delay (Time.of_ms_f 900.0);
      (* Crash. Fault windows have expired: the outage is the fault. *)
      harvest ();
      incr crashes;
      note "server crash #%d" !crashes;
      Server.crash !server;
      let outage = Time.of_ms_f (Rng.uniform plan 250.0 550.0) in
      Engine.delay outage;
      server := Server.restart !server;
      incr restarts;
      note "server restart #%d after %.0fms outage" !restarts (Time.to_sec_f outage *. 1e3);
      Segment.set_loss_prob segment cfg.loss_prob;
      verify (Printf.sprintf "cycle %d" (k + 1)) ~all:false;
      (* Replace the dead spindle and resilver it online, under
         whatever load is still running. Odd cycles crash the server
         mid-rebuild: the resilver must abort cleanly and restart from
         scratch without inventing data. Waiting for completion before
         the next cycle keeps the array single-failure at all times. *)
      (match array with
      | Some arr when !victim_member >= 0 ->
          let v = !victim_member in
          Fault_disk.revive member_injectors.(v);
          if Stripe.member_state arr v = Stripe.Failed then begin
            Stripe.rebuild ~pace:rebuild_pace arr ~member:v;
            note "member %d replaced, rebuild started" v;
            if k mod 2 = 1 then begin
              Engine.delay (Time.of_ms_f 120.0);
              if Stripe.rebuild_active arr then begin
                harvest ();
                incr crashes;
                note "server crash #%d (mid-rebuild)" !crashes;
                Server.crash !server;
                Engine.delay (Time.of_ms_f 300.0);
                server := Server.restart !server;
                incr restarts;
                note "server restart #%d (mid-rebuild)" !restarts;
                verify (Printf.sprintf "cycle %d mid-rebuild" (k + 1)) ~all:false;
                if Stripe.member_state arr v = Stripe.Failed then begin
                  Stripe.rebuild ~pace:rebuild_pace arr ~member:v;
                  note "rebuild restarted after crash"
                end
              end
            end;
            wait_for (fun () -> not (Stripe.rebuild_active arr));
            note "member %d rebuild %s" v
              (match Stripe.member_state arr v with
              | Stripe.Active -> "complete"
              | _ -> "aborted")
          end
      | _ -> ());
      let elapsed = Engine.now eng - cycle_start in
      if elapsed < span then Engine.delay (span - elapsed)
    done;

    (* Wind down: stop load, let in-flight requests settle, then sweep
       the whole ledger and fsck the final incarnation. *)
    stop := true;
    wait_for (fun () -> !writers_done = cfg.writers && !mutator_gone);
    Engine.delay (Time.of_ms_f 500.0);
    harvest ();
    verify "final" ~all:true;
    (match Fs.check (Server.fs !server) with
    | Ok () -> note "fsck clean"
    | Error es ->
        fsck_errors := es;
        note "fsck: %d error(s)" (List.length es));
    let timeline = List.rev !timeline in
    let sorted_acked = Hashtbl.fold (fun b () l -> b :: l) acked [] |> List.sort compare in
    let buf = Buffer.create 1024 in
    List.iter
      (fun l ->
        Buffer.add_string buf l;
        Buffer.add_char buf '\n')
      timeline;
    List.iter (fun b -> Buffer.add_string buf (string_of_int b)) sorted_acked;
    Buffer.add_string buf
      (Printf.sprintf "c=%d/%d/%d r=%d/%d/%d sp=%d ff=%d ei=%d io=%d seg=%d/%d/%d/%d" !issued_creates
         !completed_creates !executed_creates !issued_removes !completed_removes !executed_removes
         !spurious !flush_failures
         (Fault_disk.errors_injected injector)
         !io_error_replies (Segment.datagrams_sent segment) (Segment.datagrams_lost segment)
         (Segment.datagrams_duplicated segment)
         (Segment.datagrams_blackholed segment));
    (* Drop-safety audit: observability loss is part of the run's
       identity. The counter is monotone across the crash/restart
       cycles above (a restarted server's fresh rings never rewind
       it), so two equal-config runs must agree on it exactly. *)
    let trace_dropped = Nfsg_stats.Journey.dropped (Server.journeys !server) in
    Buffer.add_string buf (Printf.sprintf " td=%d" trace_dropped);
    let raid_counter name =
      if Option.is_some array then
        Option.value ~default:0 (Metrics.find_counter metrics ~ns:(Names.Ns.raid "array") name)
      else 0
    in
    (* Only array runs carry the raid line, so classic digests are
       byte-identical to earlier revisions. *)
    if Option.is_some array then
      Buffer.add_string buf
        (Printf.sprintf " raid=%d/%d/%d/%d"
           (raid_counter Names.member_failures)
           (raid_counter Names.rebuilds_completed)
           (raid_counter Names.degraded_reads)
           (raid_counter Names.degraded_writes));
    result :=
      Some
        {
          acked = Hashtbl.length acked;
          lost = List.sort compare !lost;
          issued_creates = !issued_creates;
          completed_creates = !completed_creates;
          executed_creates = !executed_creates;
          issued_removes = !issued_removes;
          completed_removes = !completed_removes;
          executed_removes = !executed_removes;
          spurious_nonidem = !spurious;
          crashes = !crashes;
          restarts = !restarts;
          flush_failures = !flush_failures;
          errors_injected = Fault_disk.errors_injected injector;
          io_error_replies = !io_error_replies;
          member_failures = raid_counter Names.member_failures;
          rebuilds_completed = raid_counter Names.rebuilds_completed;
          degraded_reads = raid_counter Names.degraded_reads;
          degraded_writes = raid_counter Names.degraded_writes;
          trace_dropped;
          fsck_errors = !fsck_errors;
          timeline;
          digest = Digest.to_hex (Digest.string (Buffer.contents buf));
        }
  in
  Engine.spawn eng ~name:"chaos" driver;
  Engine.run eng;
  match !result with
  | Some r -> r
  | None -> failwith "Chaos.run: driver never finished"

let pp_result ppf r =
  Fmt.pf ppf
    "@[<v>chaos: %d acked, %d lost, %d crash/restart cycles@,\
     creates %d issued / %d completed / %d executed; removes %d/%d/%d@,\
     spurious non-idempotent re-executions: %d@,\
     flush failures: %d; disk errors injected: %d; NFSERR_IO write replies: %d@,\
     trace records dropped: %d@,\
     digest %s@]"
    r.acked (List.length r.lost) r.crashes r.issued_creates r.completed_creates r.executed_creates
    r.issued_removes r.completed_removes r.executed_removes r.spurious_nonidem r.flush_failures
    r.errors_injected r.io_error_replies r.trace_dropped r.digest;
  if r.member_failures > 0 then
    Fmt.pf ppf
      "@.array: %d member fail-stop(s), %d rebuild(s) completed, %d degraded reads, %d degraded \
       writes"
      r.member_failures r.rebuilds_completed r.degraded_reads r.degraded_writes
