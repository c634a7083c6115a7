(* I/O scheduler properties: barrier ordering under crash, and the
   Deadline scheduler's starvation bound. *)

open Nfsg_sim
open Nfsg_disk
open Nfsg_ufs
module Metrics = Nfsg_stats.Metrics
module Names = Nfsg_stats.Names

let pattern n seed = Bytes.init n (fun i -> Char.chr ((i + (seed * 7)) mod 251))

(* {1 Barrier ordering across a crash}

   A gathered flush (Fs.commit_range_begin) submits data clusters, a barrier,
   indirect blocks, a barrier, the inode — all in one batch. Whatever
   the scheduler does inside the window, a crash at ANY instant must
   leave the platter in one of two states: old inode (the commit never
   happened, data blocks unreachable, fsck reclaims them) or new inode
   with every data block it points to intact. New metadata over missing
   data is the corruption the barriers exist to prevent.

   The sweep runs over one spindle under Elevator and under Deadline,
   and over 3-member RAID-0, RAID-1 and RAID-5 arrays of Elevator
   spindles, where what holds a barrier is the array's epoch gate
   across members. The array points are 12 ms apart instead of 8 ms:
   a RAID-5 commit reads before it writes and lands at about 190 ms,
   so the wider span puts several points past it. *)

let bsize = 8192
let nblocks = 24

let geometry = { (Disk.rz26 ~capacity:(32 * 1024 * 1024) ()) with Disk.track_bytes = 256 * 1024 }

let spindle scheduler eng = Disk.create eng ~scheduler geometry

let array level eng =
  let members =
    Array.init 3 (fun i ->
        Disk.create eng ~name:(Printf.sprintf "m%d" i) ~scheduler:Disk.Elevator geometry)
  in
  Stripe.device (Stripe.create eng ~level ~chunk:32768 members)

(* Run one crash experiment; returns [true] if the new inode reached
   the platter (and then its data was verified complete). *)
let crash_case make_dev crash_at =
  let eng = Engine.create () in
  let dev = make_dev eng in
  Fs.mkfs dev ~bsize ~ninodes:128 ();
  let fs = Fs.mount eng dev in
  Engine.spawn eng ~name:"writer" (fun () ->
      let f = Fs.create fs (Fs.root fs) "victim" Layout.Regular in
      for i = 0 to nblocks - 1 do
        Fs.write fs f ~off:(i * bsize) (pattern bsize i) ~mode:Fs.Delay_data
      done;
      (* Arm the crash relative to the start of the gathered flush, so
         the sweep samples every phase of the submission. *)
      Engine.spawn eng ~name:"power-cut" (fun () ->
          Engine.delay crash_at;
          dev.Device.crash ());
      (* Parks forever if the crash lands mid-flush: completions from a
         powered-off drive never come. *)
      Fs.commit_range_begin fs f ~off:0 ~len:(nblocks * bsize) ());
  Engine.run eng;
  dev.Device.recover ();
  let committed = ref false in
  let r = ref None in
  Engine.spawn eng ~name:"fsck" (fun () ->
      let fs2 = Fs.mount eng dev in
      (match Fs.check fs2 with
      | Ok () -> ()
      | Error errs ->
          Alcotest.failf "fsck after crash at %.1fms: %s" (Time.to_ms_f crash_at)
            (String.concat "; " errs));
      let f = Fs.lookup fs2 (Fs.root fs2) "victim" in
      let size = (Fs.getattr f).Fs.size in
      if size = nblocks * bsize then begin
        committed := true;
        for i = 0 to nblocks - 1 do
          let got = Fs.read fs2 f ~off:(i * bsize) ~len:bsize in
          if not (Bytes.equal got (pattern bsize i)) then
            Alcotest.failf
              "crash at %.1fms: inode is stable but block %d of its data is not — metadata \
               overtook data through the barrier"
              (Time.to_ms_f crash_at) i
        done
      end
      else if size <> 0 then
        Alcotest.failf "crash at %.1fms: impossible half-committed size %d" (Time.to_ms_f crash_at)
          size;
      r := Some ());
  Engine.run eng;
  if !r = None then Alcotest.fail "fsck driver blocked";
  !committed

let test_barrier_ordering_under_crash () =
  List.iter
    (fun (name, make_dev, step_ms) ->
      let outcomes =
        List.init 25 (fun k -> crash_case make_dev (Time.of_ms_f (float_of_int k *. step_ms)))
      in
      (* The sweep must actually straddle the commit point: early cuts
         leave the old inode, late cuts land after the barrier. *)
      Alcotest.(check bool)
        (name ^ ": some crash precedes the commit")
        true
        (List.exists not outcomes);
      Alcotest.(check bool) (name ^ ": some crash follows the commit") true (List.exists Fun.id outcomes))
    [
      ("elevator", spindle Disk.Elevator, 8.0);
      ("deadline", spindle Disk.Deadline, 8.0);
      ("raid0", array Stripe.Raid0, 12.0);
      ("raid1", array Stripe.Raid1, 12.0);
      ("raid5", array Stripe.Raid5, 12.0);
    ]

(* {1 Deadline bounds queue wait}

   A stream of near-cylinder arrivals keeps an Elevator head pinned to
   the hot band, so one far-cylinder read waits for the whole stream.
   Deadline promotes the starved head of the queue instead; its
   queue-wait histogram must stay bounded and the promotion counter
   must show it happened. *)

let hist_max_us h =
  List.fold_left (fun acc (_, hi, n) -> if n > 0 then Stdlib.max acc hi else acc) 0.0
    (Nfsg_stats.Histogram.buckets h)

let run_starvation scheduler =
  let eng = Engine.create () in
  let metrics = Metrics.create () in
  let dev =
    Disk.create eng ~name:"starve" ~metrics ~scheduler ~deadline:(Time.of_ms_f 30.0) ~merge:false
      (Disk.rz26 ())
  in
  let far_wait = ref Time.zero in
  Engine.spawn eng ~name:"far" (fun () ->
      Engine.delay (Time.ms 5);
      let t0 = Engine.now eng in
      let r = Io.read_req ~off:(64 * 1024 * 1024) (Bytes.create bsize) in
      dev.Device.submit [ Io.Req r ];
      Io.await r;
      far_wait := Engine.now eng - t0);
  Engine.spawn eng ~name:"band" (fun () ->
      for i = 0 to 199 do
        let r = Io.read_req ~off:(i mod 16 * bsize) (Bytes.create bsize) in
        dev.Device.submit [ Io.Req r ];
        Io.await r
      done);
  (* A second band source keeps the queue non-empty while the first
     one's request is in service, so the elevator never goes idle. *)
  Engine.spawn eng ~name:"band2" (fun () ->
      for i = 0 to 199 do
        let r = Io.read_req ~off:(((i mod 16) + 16) * bsize) (Bytes.create bsize) in
        dev.Device.submit [ Io.Req r ];
        Io.await r
      done);
  Engine.run eng;
  let h =
    match Metrics.find_histogram metrics ~ns:(Names.Ns.disk "starve") Names.queue_wait_us with
    | Some h -> h
    | None -> Alcotest.fail "queue_wait_us histogram not registered"
  in
  let promotions =
    Option.value ~default:0
      (Metrics.find_counter metrics ~ns:(Names.Ns.disk "starve") Names.deadline_promotions)
  in
  (!far_wait, hist_max_us h, promotions)

let test_deadline_bounds_starvation () =
  let far_elev, max_elev, promo_elev = run_starvation Disk.Elevator in
  let far_dead, max_dead, promo_dead = run_starvation Disk.Deadline in
  Alcotest.(check int) "elevator never promotes" 0 promo_elev;
  Alcotest.(check bool) "deadline promotes starved requests" true (promo_dead > 0);
  Alcotest.(check bool)
    (Printf.sprintf "elevator starves the far read (%.0fms)" (Time.to_ms_f far_elev))
    true
    (far_elev > Time.ms 400);
  Alcotest.(check bool)
    (Printf.sprintf "deadline bounds the far read (%.0fms)" (Time.to_ms_f far_dead))
    true
    (far_dead < Time.ms 150);
  (* The histogram is the observable contract: max wait under Deadline
     must sit near the deadline, far below the Elevator's worst case. *)
  Alcotest.(check bool)
    (Printf.sprintf "deadline max queue wait %.0fus < elevator %.0fus" max_dead max_elev)
    true
    (max_dead < max_elev /. 2.0);
  Alcotest.(check bool)
    (Printf.sprintf "deadline max queue wait %.0fus bounded" max_dead)
    true
    (max_dead < 200_000.0)

let suite =
  [
    Alcotest.test_case "barrier ordering survives crashes" `Quick test_barrier_ordering_under_crash;
    Alcotest.test_case "deadline bounds queue wait" `Quick test_deadline_bounds_starvation;
  ]
