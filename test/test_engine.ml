open Nfsg_sim

let test_clock_starts_at_zero () =
  let eng = Engine.create () in
  Alcotest.(check int) "t=0" 0 (Engine.now eng)

let test_delay_advances_clock () =
  let eng = Engine.create () in
  let finished = ref (-1) in
  Engine.spawn eng (fun () ->
      Engine.delay (Time.ms 5);
      finished := Engine.now eng);
  Engine.run eng;
  Alcotest.(check int) "5ms" (Time.ms 5) !finished

let test_sequential_delays () =
  let eng = Engine.create () in
  let times = ref [] in
  Engine.spawn eng (fun () ->
      Engine.delay (Time.us 10);
      times := Engine.now eng :: !times;
      Engine.delay (Time.us 20);
      times := Engine.now eng :: !times);
  Engine.run eng;
  Alcotest.(check (list int)) "10us then 30us" [ Time.us 30; Time.us 10 ] !times

let test_same_instant_fifo () =
  let eng = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    Engine.spawn eng (fun () -> order := i :: !order)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "spawn order" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_interleaving_deterministic () =
  let run () =
    let eng = Engine.create () in
    let log = Buffer.create 64 in
    Engine.spawn eng (fun () ->
        for _ = 1 to 3 do
          Engine.delay (Time.us 2);
          Buffer.add_char log 'a'
        done);
    Engine.spawn eng (fun () ->
        for _ = 1 to 3 do
          Engine.delay (Time.us 3);
          Buffer.add_char log 'b'
        done);
    Engine.run eng;
    Buffer.contents log
  in
  Alcotest.(check string) "reproducible" (run ()) (run ());
  (* a fires at 2,4,6us; b at 3,6,9us; at t=6 b's event was scheduled
     first (at t=3) so it runs first. *)
  Alcotest.(check string) "expected interleave" "ababab" (run ())

let test_run_until () =
  let eng = Engine.create () in
  let hits = ref 0 in
  Engine.spawn eng (fun () ->
      for _ = 1 to 10 do
        Engine.delay (Time.ms 1);
        incr hits
      done);
  Engine.run ~until:(Time.of_ms_f 3.5) eng;
  Alcotest.(check int) "3 events by 3.5ms" 3 !hits;
  Alcotest.(check int) "clock parked at until" (Time.of_ms_f 3.5) (Engine.now eng);
  Engine.run eng;
  Alcotest.(check int) "rest completes on resume" 10 !hits

let test_schedule_callback () =
  let eng = Engine.create () in
  let fired = ref (-1) in
  Engine.schedule eng ~after:(Time.ms 7) (fun () -> fired := Engine.now eng);
  Engine.run eng;
  Alcotest.(check int) "at 7ms" (Time.ms 7) !fired

(* Cancelling takes the timer out of the queue: it is not an event, so
   it is not counted, and the run ends at the last event it did run
   rather than at the cancelled timer's instant. *)
let test_timer_cancel () =
  let eng = Engine.create () in
  let fired = ref false in
  let tm = Engine.timer eng ~after:(Time.ms 5) (fun () -> fired := true) in
  Engine.schedule eng ~after:(Time.ms 1) (fun () ->
      Alcotest.(check bool) "cancel succeeds" true (Engine.cancel tm));
  Engine.run eng;
  Alcotest.(check bool) "never fired" false !fired;
  Alcotest.(check int) "only the canceller counted" 1 (Engine.events_processed eng);
  Alcotest.(check int) "clock at the last live event" (Time.ms 1) (Engine.now eng);
  Alcotest.(check bool) "second cancel fails" false (Engine.cancel tm)

let test_timer_fires_then_cancel_fails () =
  let eng = Engine.create () in
  let fired = ref false in
  let tm = Engine.timer eng ~after:(Time.ms 1) (fun () -> fired := true) in
  Engine.run eng;
  Alcotest.(check bool) "fired" true !fired;
  Alcotest.(check bool) "cancel after fire" false (Engine.cancel tm)

let test_suspend_wake () =
  let eng = Engine.create () in
  let wake_ref = ref None in
  let got = ref 0 in
  Engine.spawn eng (fun () ->
      let v = Engine.suspend (fun wake -> wake_ref := Some wake) in
      got := v);
  Engine.spawn eng (fun () ->
      Engine.delay (Time.ms 2);
      match !wake_ref with Some wake -> wake 42 | None -> Alcotest.fail "no waker");
  Engine.run eng;
  Alcotest.(check int) "woken with value" 42 !got

let test_double_wake_rejected () =
  let eng = Engine.create () in
  let boom = ref false in
  Engine.spawn eng (fun () ->
      ignore
        (Engine.suspend (fun wake ->
             wake 1;
             try wake 2 with Invalid_argument _ -> boom := true)
          : int));
  Engine.run eng;
  Alcotest.(check bool) "second wake rejected" true !boom

let test_not_in_process () =
  Alcotest.check_raises "delay outside process" Engine.Not_in_process (fun () ->
      Engine.delay (Time.ms 1))

let test_exception_propagates () =
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> failwith "boom");
  Alcotest.check_raises "escapes run" (Failure "boom") (fun () -> Engine.run eng)

(* Once run returns, normally or by a process raising, the caller is
   outside every process again. *)
let test_self_name_after_run () =
  let eng = Engine.create () in
  let inside = ref "" in
  Engine.spawn eng ~name:"p" (fun () -> inside := Engine.self_name ());
  Engine.run eng;
  Alcotest.(check string) "named inside" "p" !inside;
  Alcotest.(check string) "cleared after a drained run" "?" (Engine.self_name ());
  Engine.spawn eng ~name:"q" (fun () -> failwith "boom");
  (try Engine.run eng with Failure _ -> ());
  Alcotest.(check string) "cleared after a raising run" "?" (Engine.self_name ())

let test_suspended_count () =
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> Engine.delay (Time.ms 10));
  Engine.spawn eng (fun () -> ignore (Engine.suspend (fun _ -> ()) : unit));
  Engine.run ~until:(Time.ms 1) eng;
  Alcotest.(check int) "two parked" 2 (Engine.suspended_count eng);
  Engine.run eng;
  Alcotest.(check int) "one stuck forever" 1 (Engine.suspended_count eng)

let test_yield_requeues () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.spawn eng (fun () ->
      log := "a1" :: !log;
      Engine.yield ();
      log := "a2" :: !log);
  Engine.spawn eng (fun () -> log := "b" :: !log);
  Engine.run eng;
  Alcotest.(check (list string)) "b runs between yields" [ "a1"; "b"; "a2" ] (List.rev !log)

let test_nested_spawn () =
  let eng = Engine.create () in
  let depth = ref 0 in
  let rec spawn_chain n =
    if n > 0 then
      Engine.spawn eng (fun () ->
          Engine.delay (Time.us 1);
          incr depth;
          spawn_chain (n - 1))
  in
  spawn_chain 50;
  Engine.run eng;
  Alcotest.(check int) "all 50 ran" 50 !depth

(* A process queues its own record, so a [delay] allocates only the
   continuation the runtime captures: 2 words as measured here, where
   an engine that built a resume record and two closures per switch
   allocated 22. The bound is 8 words per switch. The least of three
   batches is taken (see [Testbed.allocated]). *)
let test_delay_switch_allocation () =
  let eng = Engine.create () in
  let batch = 10_000 in
  let per_switch = ref nan in
  Engine.spawn eng (fun () ->
      Engine.delay (Time.ns 1);
      let words _ =
        let (), w =
          Testbed.allocated (fun () ->
              for _ = 1 to batch do
                Engine.delay (Time.ns 1)
              done)
        in
        w /. float_of_int batch
      in
      per_switch := List.fold_left Float.min infinity (List.init 3 words));
  Engine.run eng;
  if !per_switch > 8.0 then Alcotest.failf "%.1f words per delay" !per_switch

(* One value out and back between two processes through two [Squeue]s:
   each direction queues the getter, hands the value over and captures a
   continuation, 16 words in all as measured here, where wake-up closures
   made it 80. The bound is 20 words per round trip. *)
let test_squeue_round_trip_allocation () =
  let eng = Engine.create () in
  let ping = Squeue.create () and pong = Squeue.create () and batch = 10_000 in
  let per_round = ref nan in
  Engine.spawn eng ~name:"echo" (fun () ->
      while true do
        Squeue.put pong (Squeue.get ping)
      done);
  Engine.spawn eng ~name:"driver" (fun () ->
      let round i =
        Squeue.put ping i;
        ignore (Squeue.get pong : int)
      in
      round 0;
      let words _ =
        let (), w =
          Testbed.allocated (fun () ->
              for i = 1 to batch do
                round i
              done)
        in
        w /. float_of_int batch
      in
      per_round := List.fold_left Float.min infinity (List.init 3 words));
  Engine.run eng;
  if !per_round > 20.0 then Alcotest.failf "%.1f words per round trip" !per_round

let test_unpark_queued_raises () =
  let eng = Engine.create () in
  let sleeper = ref None and raised = ref false in
  Engine.spawn eng ~name:"sleeper" (fun () ->
      sleeper := Some (Engine.self ());
      Engine.park ());
  Engine.schedule eng ~after:(Time.ms 1) (fun () ->
      let p = Option.get !sleeper in
      Engine.unpark p;
      raised := (try Engine.unpark p; false with Invalid_argument _ -> true));
  Engine.run eng;
  Alcotest.(check bool) "second unpark rejected" true !raised;
  Alcotest.(check int) "resumed once" 0 (Engine.suspended_count eng)

let test_parked_counts_as_suspended () =
  let eng = Engine.create () in
  let sleeper = ref None and resumed = ref false in
  Engine.spawn eng (fun () ->
      sleeper := Some (Engine.self ());
      Engine.park ();
      resumed := true);
  Engine.run eng;
  Alcotest.(check int) "parked" 1 (Engine.suspended_count eng);
  Engine.unpark (Option.get !sleeper);
  Alcotest.(check int) "counted until it runs" 1 (Engine.suspended_count eng);
  Engine.run eng;
  Alcotest.(check bool) "resumed" true !resumed;
  Alcotest.(check int) "none parked" 0 (Engine.suspended_count eng)

(* The put hands 1 to the getter that was waiting; a getter that comes
   later in the same instant, before the first one resumes, waits for
   the next value rather than taking it. *)
let test_handoff_not_taken_by_later_get () =
  let eng = Engine.create () in
  let q = Squeue.create () and got = ref [] in
  let take who () =
    let v = Squeue.get q in
    got := (who, v) :: !got
  in
  Engine.spawn eng ~name:"waiting" (take "waiting");
  Engine.spawn eng ~name:"putter" (fun () -> Squeue.put q 1);
  Engine.spawn eng ~name:"late" (fun () ->
      Alcotest.(check int) "nothing left in the queue" 0 (Squeue.length q);
      take "late" ());
  Engine.spawn eng (fun () ->
      Engine.delay (Time.us 1);
      Squeue.put q 2);
  Engine.run eng;
  Alcotest.(check (list (pair string int)))
    "each getter its own value" [ ("waiting", 1); ("late", 2) ] (List.rev !got)

(* [fill] wakes readers and runs callbacks in the order they arrived:
   a callback that schedules a note lands between the two readers'
   resumptions. *)
let test_ivar_waiters_in_arrival_order () =
  let eng = Engine.create () in
  let iv = Ivar.create () and log = ref [] in
  let note s = log := s :: !log in
  Engine.spawn eng (fun () -> note (Printf.sprintf "reader1 %d" (Ivar.read iv)));
  Engine.spawn eng (fun () ->
      Ivar.upon iv (fun v -> Engine.schedule eng ~after:0 (fun () -> note (Printf.sprintf "callback %d" v))));
  Engine.spawn eng (fun () -> note (Printf.sprintf "reader2 %d" (Ivar.read iv)));
  Engine.spawn eng (fun () -> Ivar.fill iv 7);
  Engine.run eng;
  Alcotest.(check (list string))
    "arrival order" [ "reader1 7"; "callback 7"; "reader2 7" ] (List.rev !log)

(* A wake from inside [register] queues the process at once, behind the
   events already queued for this instant. *)
let test_early_wake_queues_behind_peers () =
  let eng = Engine.create () in
  let log = ref [] in
  let note s = log := s :: !log in
  Engine.spawn eng ~name:"early" (fun () ->
      Engine.schedule eng ~after:0 (fun () -> note "callback");
      let v = Engine.suspend (fun wake -> wake 5) in
      note (Printf.sprintf "resumed %d" v));
  Engine.spawn eng ~name:"peer" (fun () -> note "peer");
  Engine.run eng;
  Alcotest.(check (list string)) "queue order" [ "peer"; "callback"; "resumed 5" ] (List.rev !log);
  Alcotest.(check int) "none parked" 0 (Engine.suspended_count eng)

let suite =
  [
    Alcotest.test_case "clock starts at zero" `Quick test_clock_starts_at_zero;
    Alcotest.test_case "delay advances clock" `Quick test_delay_advances_clock;
    Alcotest.test_case "sequential delays accumulate" `Quick test_sequential_delays;
    Alcotest.test_case "same-instant events run FIFO" `Quick test_same_instant_fifo;
    Alcotest.test_case "interleaving is deterministic" `Quick test_interleaving_deterministic;
    Alcotest.test_case "run ~until pauses and resumes" `Quick test_run_until;
    Alcotest.test_case "schedule runs a callback" `Quick test_schedule_callback;
    Alcotest.test_case "timer cancel" `Quick test_timer_cancel;
    Alcotest.test_case "cancel after firing fails" `Quick test_timer_fires_then_cancel_fails;
    Alcotest.test_case "suspend/wake passes a value" `Quick test_suspend_wake;
    Alcotest.test_case "waking twice is rejected" `Quick test_double_wake_rejected;
    Alcotest.test_case "blocking outside a process raises" `Quick test_not_in_process;
    Alcotest.test_case "process exception aborts run" `Quick test_exception_propagates;
    Alcotest.test_case "self_name cleared after run" `Quick test_self_name_after_run;
    Alcotest.test_case "suspended_count tracks parked procs" `Quick test_suspended_count;
    Alcotest.test_case "yield requeues behind peers" `Quick test_yield_requeues;
    Alcotest.test_case "spawn from inside a process" `Quick test_nested_spawn;
    Alcotest.test_case "a delay switch allocates its continuation" `Quick test_delay_switch_allocation;
    Alcotest.test_case "a squeue round trip allocates a constant" `Quick test_squeue_round_trip_allocation;
    Alcotest.test_case "unparking a queued process raises" `Quick test_unpark_queued_raises;
    Alcotest.test_case "a parked process counts as suspended" `Quick test_parked_counts_as_suspended;
    Alcotest.test_case "a handed-off value is not taken by a later get" `Quick
      test_handoff_not_taken_by_later_get;
    Alcotest.test_case "ivar waiters run in arrival order" `Quick test_ivar_waiters_in_arrival_order;
    Alcotest.test_case "an early wake queues behind its peers" `Quick test_early_wake_queues_behind_peers;
  ]
