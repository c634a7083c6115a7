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
  ]
