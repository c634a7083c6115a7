open Nfsg_sim
open Nfsg_disk

let small_geometry =
  { (Disk.rz26 ~capacity:(16 * 1024 * 1024) ()) with Disk.track_bytes = 256 * 1024 }

let with_disk f =
  let eng = Engine.create () in
  let dev = Disk.create eng small_geometry in
  let result = ref None in
  Engine.spawn eng ~name:"test-driver" (fun () -> result := Some (f eng dev));
  Engine.run eng;
  match !result with Some r -> r | None -> Alcotest.fail "test process did not finish"

let test_write_read_roundtrip () =
  with_disk (fun _eng dev ->
      let data = Bytes.init 8192 (fun i -> Char.chr (i mod 256)) in
      dev.Device.write ~off:32768 data;
      let back = dev.Device.read ~off:32768 ~len:8192 in
      Alcotest.(check bytes) "roundtrip" data back)

let test_write_takes_time () =
  with_disk (fun eng dev ->
      let t0 = Engine.now eng in
      dev.Device.write ~off:0 (Bytes.make 8192 'x');
      let elapsed = Engine.now eng - t0 in
      if elapsed <= 0 then Alcotest.fail "write took no time";
      (* 8K at 2.6MB/s is ~3.1ms of transfer alone; with overhead and
         rotation it must be within one rotation + full seek. *)
      if elapsed < Time.of_ms_f 3.0 then Alcotest.failf "implausibly fast: %dns" elapsed;
      if elapsed > Time.of_ms_f 40.0 then Alcotest.failf "implausibly slow: %dns" elapsed)

let test_larger_writes_amortise () =
  (* One 64K transaction must beat eight 8K transactions. *)
  let time_of n size =
    with_disk (fun eng dev ->
        let t0 = Engine.now eng in
        for i = 0 to n - 1 do
          dev.Device.write ~off:(i * size) (Bytes.make size 'x')
        done;
        Engine.now eng - t0)
  in
  let eight_small = time_of 8 8192 in
  let one_big = time_of 1 65536 in
  if one_big * 2 > eight_small then
    Alcotest.failf "clustering not worth it: 64K=%dns vs 8x8K=%dns" one_big eight_small

let test_sequential_beats_random () =
  let sequential =
    with_disk (fun eng dev ->
        let t0 = Engine.now eng in
        for i = 0 to 19 do
          dev.Device.write ~off:(i * 8192) (Bytes.make 8192 'x')
        done;
        Engine.now eng - t0)
  in
  let random =
    with_disk (fun eng dev ->
        let rng = Rng.create 99 in
        let t0 = Engine.now eng in
        for _ = 0 to 19 do
          let blk = Rng.int rng 2000 in
          dev.Device.write ~off:(blk * 8192) (Bytes.make 8192 'x')
        done;
        Engine.now eng - t0)
  in
  if sequential >= random then
    Alcotest.failf "seeks are free? seq=%dns rand=%dns" sequential random

let test_stats_accounting () =
  with_disk (fun _eng dev ->
      dev.Device.write ~off:0 (Bytes.make 8192 'a');
      dev.Device.write ~off:8192 (Bytes.make 8192 'b');
      let _ = dev.Device.read ~off:0 ~len:8192 in
      let s = dev.Device.spindle_stats () in
      Alcotest.(check int) "3 transactions" 3 s.Device.transactions;
      Alcotest.(check int) "bytes" (3 * 8192) s.Device.bytes_moved;
      if s.Device.busy_time <= 0 then Alcotest.fail "no busy time recorded")

let test_fifo_queueing () =
  (* Two writes issued together complete in issue order, and the
     second finishes after the first. *)
  let eng = Engine.create () in
  let dev = Disk.create eng small_geometry in
  let order = ref [] in
  Engine.spawn eng (fun () ->
      dev.Device.write ~off:0 (Bytes.make 8192 'a');
      order := ("a", Engine.now eng) :: !order);
  Engine.spawn eng (fun () ->
      dev.Device.write ~off:1_000_000 (Bytes.make 8192 'b');
      order := ("b", Engine.now eng) :: !order);
  Engine.run eng;
  match List.rev !order with
  | [ ("a", ta); ("b", tb) ] -> if tb <= ta then Alcotest.fail "b finished before a"
  | _ -> Alcotest.fail "unexpected completion order"

let test_crash_drops_inflight () =
  let eng = Engine.create () in
  let dev = Disk.create eng small_geometry in
  let completed = ref false in
  Engine.spawn eng (fun () ->
      dev.Device.write ~off:0 (Bytes.make 8192 'x');
      completed := true);
  (* Crash long before any plausible service time has elapsed. *)
  Engine.schedule eng ~after:(Time.us 100) (fun () -> dev.Device.crash ());
  Engine.run eng;
  Alcotest.(check bool) "write never completed" false !completed;
  let stable = dev.Device.stable_read ~off:0 ~len:8192 in
  Alcotest.(check bytes) "platter untouched" (Bytes.make 8192 '\000') stable

let test_stable_write_instant () =
  let eng = Engine.create () in
  let dev = Disk.create eng small_geometry in
  dev.Device.stable_write ~off:4096 (Bytes.of_string "seed");
  Alcotest.(check bytes) "visible" (Bytes.of_string "seed") (dev.Device.stable_read ~off:4096 ~len:4);
  Alcotest.(check int) "no simulated time" 0 (Engine.now eng);
  Alcotest.(check int) "no transactions" 0 (dev.Device.spindle_stats ()).Device.transactions

let test_out_of_range_rejected () =
  with_disk (fun _eng dev ->
      match dev.Device.write ~off:(dev.Device.capacity - 100) (Bytes.make 8192 'x') with
      | () -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())

let test_elevator_beats_fifo_on_random_load () =
  let total_time scheduler =
    let eng = Engine.create () in
    let dev = Disk.create eng ~scheduler small_geometry in
    let rng = Rng.create 2024 in
    let offs = List.init 40 (fun _ -> Rng.int rng 1800 * 8192) in
    let done_count = ref 0 in
    (* Issue everything at t=0 so the queue is deep enough to sort. *)
    List.iter
      (fun off ->
        Engine.spawn eng (fun () ->
            dev.Device.write ~off (Bytes.make 8192 'e');
            incr done_count))
      offs;
    Engine.run eng;
    Alcotest.(check int) "all served" 40 !done_count;
    Engine.now eng
  in
  let fifo = total_time Disk.Fifo and elev = total_time Disk.Elevator in
  if elev >= fifo then Alcotest.failf "elevator no better: fifo=%dns elevator=%dns" fifo elev

let test_elevator_preserves_data () =
  let eng = Engine.create () in
  let dev = Disk.create eng ~scheduler:Disk.Elevator small_geometry in
  let rng = Rng.create 7 in
  let blocks = List.init 30 (fun i -> (Rng.int rng 1000, i)) in
  let remaining = ref (List.length blocks) in
  List.iter
    (fun (blk, i) ->
      Engine.spawn eng (fun () ->
          dev.Device.write ~off:(blk * 8192) (Bytes.make 8192 (Char.chr (65 + (i mod 26))));
          decr remaining))
    blocks;
  Engine.run eng;
  Alcotest.(check int) "all writes served" 0 !remaining;
  (* Reordering must never invent or lose bytes: every written block
     holds exactly one writer's fill byte. *)
  List.iter
    (fun (blk, _) ->
      let b = dev.Device.stable_read ~off:(blk * 8192) ~len:8192 in
      let c = Bytes.get b 0 in
      if c < 'A' || c > 'Z' then Alcotest.failf "block %d has garbage %C" blk c;
      if b <> Bytes.make 8192 c then Alcotest.failf "block %d mixed contents" blk)
    blocks

let test_seek_time_monotone () =
  let g = small_geometry in
  let t1 = Disk.seek_time g ~cylinders:100 ~distance:1 in
  let t50 = Disk.seek_time g ~cylinders:100 ~distance:50 in
  let t99 = Disk.seek_time g ~cylinders:100 ~distance:99 in
  Alcotest.(check int) "zero distance is free" 0 (Disk.seek_time g ~cylinders:100 ~distance:0);
  if not (t1 < t50 && t50 < t99) then Alcotest.fail "seek time not monotone";
  if t1 < g.Disk.seek_single then Alcotest.fail "short seek below track-to-track time"

(* A batch is checked whole before any of it is queued: a valid write
   riding with an out-of-range one must not sit in the queue, to reach
   the platter when some unrelated write next wakes the daemon. *)
let test_rejected_batch_queues_nothing () =
  with_disk (fun _eng dev ->
      let good = Io.write_req ~class_:`Sync_write ~off:0 (Bytes.make 8192 'v') in
      let bad = Io.write_req ~class_:`Sync_write ~off:(dev.Device.capacity - 100) (Bytes.make 8192 'x') in
      (match dev.Device.submit [ Io.Req good; Io.Req bad ] with
      | () -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ());
      Engine.delay (Time.ms 100);
      dev.Device.write ~off:1_000_000 (Bytes.make 8192 'w');
      Alcotest.(check bool) "rejected write never completed" false (Ivar.is_filled good.Io.done_);
      Alcotest.(check bytes) "platter untouched" (Bytes.make 8192 '\000')
        (dev.Device.stable_read ~off:0 ~len:8192))

(* Creating a disk costs memory for its bookkeeping, not its capacity. *)
let test_platter_is_sparse () =
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  let eng = Engine.create () in
  let dev = Disk.create eng (Disk.rz26 ()) in
  Gc.full_major ();
  let grown = ((Gc.stat ()).Gc.live_words - before) * (Sys.word_size / 8) in
  ignore (Sys.opaque_identity (eng, dev));
  if grown >= 1024 * 1024 then
    Alcotest.failf "a %d-byte disk grew the live heap by %d bytes" dev.Device.capacity grown

(* {1 The sparse platter against a flat model} *)

type platter_op =
  | Stable_write of int * int * char
  | Stable_read of int * int
  | Write of int * int * char
  | Read of int * int
  | Crash_mid_write of int * int * char

(* Three whole chunks and a partial fourth. *)
let sparse_capacity = (3 * Disk.chunk_bytes) + 12345

let show_platter_op = function
  | Stable_write (off, len, c) -> Printf.sprintf "stable_write %d+%d %C" off len c
  | Stable_read (off, len) -> Printf.sprintf "stable_read %d+%d" off len
  | Write (off, len, c) -> Printf.sprintf "write %d+%d %C" off len c
  | Read (off, len) -> Printf.sprintf "read %d+%d" off len
  | Crash_mid_write (off, len, c) -> Printf.sprintf "crash mid-write %d+%d %C" off len c

let prop_sparse_platter_matches_flat =
  let range =
    QCheck.Gen.(
      let* off =
        oneof
          [
            (* Near a chunk boundary, the capacity included. *)
            map2
              (fun k d -> Stdlib.max 0 (Stdlib.min sparse_capacity ((k * Disk.chunk_bytes) + d)))
              (int_bound 4) (int_range (-300) 300);
            int_bound sparse_capacity;
          ]
      in
      let+ len = int_bound (Stdlib.min ((2 * Disk.chunk_bytes) + 100) (sparse_capacity - off)) in
      (off, len))
  in
  let fill = QCheck.Gen.map Char.chr (QCheck.Gen.int_range 97 122) in
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun (o, l) c -> Stable_write (o, l, c)) range fill);
          (3, map (fun (o, l) -> Stable_read (o, l)) range);
          (3, map2 (fun (o, l) c -> Write (o, l, c)) range fill);
          (3, map (fun (o, l) -> Read (o, l)) range);
          (1, map2 (fun (o, l) c -> Crash_mid_write (o, l, c)) range fill);
        ])
  in
  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map show_platter_op ops))
      QCheck.Gen.(list_size (1 -- 30) op)
  in
  QCheck.Test.make ~name:"sparse platter matches a flat one" ~count:200 arb (fun ops ->
      let eng = Engine.create () in
      let dev = Disk.create eng { small_geometry with Disk.capacity = sparse_capacity } in
      let model = Bytes.make sparse_capacity '\000' in
      let mismatch = ref None in
      let check step what got ~off ~len =
        if !mismatch = None && not (Bytes.equal got (Bytes.sub model off len)) then
          mismatch := Some (Printf.sprintf "step %d (%s): bytes differ from the model" step what)
      in
      Engine.spawn eng (fun () ->
          List.iteri
            (fun step op ->
              let what = show_platter_op op in
              match op with
              | Stable_write (off, len, c) ->
                  dev.Device.stable_write ~off (Bytes.make len c);
                  Bytes.fill model off len c
              | Stable_read (off, len) -> check step what (dev.Device.stable_read ~off ~len) ~off ~len
              | Write (off, len, c) ->
                  let r = Io.write_req ~class_:`Sync_write ~off (Bytes.make len c) in
                  dev.Device.submit [ Io.Req r ];
                  Io.await r;
                  Bytes.fill model off len c
              | Read (off, len) ->
                  let r = Io.read_req ~off ~len () in
                  dev.Device.submit [ Io.Req r ];
                  Io.await r;
                  check step what r.Io.buf ~off ~len
              | Crash_mid_write (off, len, c) ->
                  (* Power fails inside the transfer and stays off past
                     its end: nothing of it may land. *)
                  dev.Device.submit [ Io.Req (Io.write_req ~class_:`Sync_write ~off (Bytes.make len c)) ];
                  Engine.delay (Time.us 100);
                  dev.Device.crash ();
                  Engine.delay (Time.ms 200);
                  dev.Device.recover ();
                  check step what (dev.Device.stable_read ~off ~len) ~off ~len)
            ops;
          check (List.length ops) "whole platter" (dev.Device.stable_read ~off:0 ~len:sparse_capacity)
            ~off:0 ~len:sparse_capacity);
      Engine.run eng;
      match !mismatch with None -> true | Some why -> QCheck.Test.fail_report why)

(* {1 The request queue against its reference model} *)

type qitem = Q_read of int * int | Q_write of int * int | Q_barrier

(* One step: wait [gap] µs, then submit a batch (or, rarely, crash the
   disk and recover it 50 ms later). *)
type qstep = Submit of int * qitem list | Power_cycle of int

let queue_block = 4096

(* 128 blocks over 16 cylinders, with a partial last chunk. *)
let queue_geometry =
  { small_geometry with Disk.capacity = (128 * queue_block) + 1000; track_bytes = 8 * queue_block }

let show_qstep = function
  | Submit (gap, items) ->
      Printf.sprintf "+%dus [%s]" gap
        (String.concat ", "
           (List.map
              (function
                | Q_read (b, n) -> Printf.sprintf "R%d+%d" b n
                | Q_write (b, n) -> Printf.sprintf "W%d+%d" b n
                | Q_barrier -> "|")
              items))
  | Power_cycle gap -> Printf.sprintf "+%dus crash" gap

let scheduler_name = function Disk.Fifo -> "fifo" | Disk.Elevator -> "elevator" | Disk.Deadline -> "deadline"

(* Run a schedule on the disk or its reference model; return the
   completions — the item's number in the schedule, instant and, for
   reads, the bytes — the platter and the metrics JSON. *)
let run_queue ~reference (scheduler, merge, merge_limit, deadline_ms, steps) =
  let eng = Engine.create () in
  let metrics = Nfsg_stats.Metrics.create () in
  let create = if reference then Disk_ref.create else Disk.create in
  let dev =
    create eng ~metrics ~scheduler ~deadline:(Time.ms deadline_ms) ~merge ~merge_limit queue_geometry
  in
  let log = ref [] in
  let tag = ref 0 in
  let note t extra = log := Printf.sprintf "%d@%d%s" t (Engine.now eng) extra :: !log in
  Engine.spawn eng (fun () ->
      List.iter
        (function
          | Power_cycle gap ->
              Engine.delay (Time.us gap);
              dev.Device.crash ();
              Engine.delay (Time.ms 50);
              dev.Device.recover ()
          | Submit (gap, items) ->
              Engine.delay (Time.us gap);
              let item q =
                incr tag;
                let tag = !tag in
                match q with
                | Q_barrier ->
                    let b = Io.barrier () in
                    Ivar.upon (Io.item_done b) (fun () -> note tag " barrier");
                    b
                | Q_write (blk, n) ->
                    let data = Bytes.make (n * queue_block) (Char.chr (33 + (tag mod 90))) in
                    let r = Io.write_req ~class_:`Gather_flush ~off:(blk * queue_block) data in
                    Ivar.upon r.Io.done_ (fun () -> note tag "");
                    Io.Req r
                | Q_read (blk, n) ->
                    let r = Io.read_req ~off:(blk * queue_block) ~len:(n * queue_block) () in
                    Ivar.upon r.Io.done_ (fun () -> note tag (" " ^ Digest.to_hex (Digest.bytes r.Io.buf)));
                    Io.Req r
              in
              dev.Device.submit (List.map item items))
        steps);
  Engine.run eng;
  ( List.rev !log,
    Digest.to_hex (Digest.bytes (dev.Device.stable_read ~off:0 ~len:dev.Device.capacity)),
    Nfsg_stats.Metrics.to_string metrics )

let prop_queue_matches_reference =
  let qitem =
    QCheck.Gen.(
      (* Blocks cluster in a 48-block band so that neighbours merge. *)
      let range = pair (int_bound 47) (int_range 1 3) in
      frequency
        [
          (4, map (fun (b, n) -> Q_write (b, n)) range);
          (3, map (fun (b, n) -> Q_read (b, n)) range);
          (2, map (fun (b, n) -> Q_write (b + 72, n)) range);
          (2, return Q_barrier);
        ])
  in
  let gap = QCheck.Gen.(frequency [ (3, return 0); (2, int_bound 2000); (1, int_bound 40_000) ]) in
  let step =
    QCheck.Gen.(
      frequency
        [
          (20, map2 (fun g items -> Submit (g, items)) gap (list_size (1 -- 6) qitem));
          (1, map (fun g -> Power_cycle g) (int_bound 20_000));
        ])
  in
  let arb =
    QCheck.make
      ~print:(fun (scheduler, merge, merge_limit, deadline_ms, steps) ->
        Printf.sprintf "%s merge=%b limit=%d deadline=%dms: %s" (scheduler_name scheduler) merge merge_limit
          deadline_ms
          (String.concat "; " (List.map show_qstep steps)))
      QCheck.Gen.(
        let* scheduler = oneofl [ Disk.Fifo; Disk.Elevator; Disk.Deadline ] in
        let* merge = bool in
        let* merge_limit = oneofl [ 2 * queue_block; 5 * queue_block; 128 * 1024 ] in
        let* deadline_ms = int_range 2 40 in
        let+ steps = list_size (1 -- 40) step in
        (scheduler, merge, merge_limit, deadline_ms, steps))
  in
  QCheck.Test.make ~name:"request queue matches its reference model" ~count:300 arb (fun case ->
      let log, platter, metrics = run_queue ~reference:false case in
      let log_ref, platter_ref, metrics_ref = run_queue ~reference:true case in
      let rec first_diff i = function
        | x :: xs, y :: ys -> if x = y then first_diff (i + 1) (xs, ys) else Some (i, x, y)
        | x :: _, [] -> Some (i, x, "(none)")
        | [], y :: _ -> Some (i, "(none)", y)
        | [], [] -> None
      in
      match first_diff 0 (log, log_ref) with
      | Some (i, got, want) -> QCheck.Test.fail_reportf "completion %d: %s, reference %s" i got want
      | None ->
          if platter <> platter_ref then QCheck.Test.fail_report "platters differ"
          else if metrics <> metrics_ref then
            QCheck.Test.fail_reportf "metrics differ:\n%s\nreference:\n%s" metrics metrics_ref
          else true)

let suite =
  [
    Alcotest.test_case "write/read roundtrip" `Quick test_write_read_roundtrip;
    Alcotest.test_case "writes take plausible time" `Quick test_write_takes_time;
    Alcotest.test_case "large transfers amortise overhead" `Quick test_larger_writes_amortise;
    Alcotest.test_case "sequential beats random" `Quick test_sequential_beats_random;
    Alcotest.test_case "spindle stats account transactions" `Quick test_stats_accounting;
    Alcotest.test_case "FIFO service order" `Quick test_fifo_queueing;
    Alcotest.test_case "crash drops in-flight write" `Quick test_crash_drops_inflight;
    Alcotest.test_case "stable_write is instantaneous" `Quick test_stable_write_instant;
    Alcotest.test_case "bounds checked" `Quick test_out_of_range_rejected;
    Alcotest.test_case "seek time monotone in distance" `Quick test_seek_time_monotone;
    Alcotest.test_case "elevator beats FIFO on random load" `Quick test_elevator_beats_fifo_on_random_load;
    Alcotest.test_case "elevator preserves data" `Quick test_elevator_preserves_data;
    Alcotest.test_case "rejected batch queues nothing" `Quick test_rejected_batch_queues_nothing;
    Alcotest.test_case "platter costs no memory until written" `Quick test_platter_is_sparse;
    QCheck_alcotest.to_alcotest prop_sparse_platter_matches_flat;
    QCheck_alcotest.to_alcotest prop_queue_matches_reference;
  ]
