open Nfsg_sim
module Lc = Nfsg_experiments.Laddis_curve

(* {1 Knee detection and capacity rating on synthetic curves} *)

(* A textbook curve: tracks the offered load, then sags. *)
let synthetic =
  [ (60.0, 59.0); (120.0, 118.0); (180.0, 175.0); (240.0, 190.0); (300.0, 188.0) ]

let test_detect_knee () =
  Alcotest.(check (option int)) "knee at the first sagging rung" (Some 3)
    (Lc.detect_knee ~frac:0.9 synthetic);
  Alcotest.(check (option int)) "stricter frac knees earlier" (Some 2)
    (Lc.detect_knee ~frac:0.98 synthetic);
  Alcotest.(check (option int)) "lax frac never knees" None
    (Lc.detect_knee ~frac:0.6 synthetic);
  Alcotest.(check (option int)) "empty ladder has no knee" None (Lc.detect_knee ~frac:0.9 []);
  Alcotest.(check (option int)) "sagging from rung one" (Some 0)
    (Lc.detect_knee ~frac:0.9 [ (100.0, 50.0) ])

let test_capacity_rating () =
  Alcotest.(check (float 1e-9)) "best sustained rung" 175.0
    (Lc.capacity_rating ~frac:0.9 synthetic);
  (* Every rung sagged: rated at what it actually delivered. *)
  Alcotest.(check (float 1e-9)) "all-sagged fallback" 55.0
    (Lc.capacity_rating ~frac:0.9 [ (100.0, 50.0); (200.0, 55.0) ]);
  Alcotest.(check (float 1e-9)) "empty ladder rates zero" 0.0 (Lc.capacity_rating ~frac:0.9 [])

let test_procs_for () =
  Alcotest.(check int) "floor of four stations" 4 (Lc.procs_for ~procs_max:48 10.0);
  Alcotest.(check int) "one station per ~10 ops/s" 24 (Lc.procs_for ~procs_max:48 240.0);
  Alcotest.(check int) "clamped to the pool ceiling" 48 (Lc.procs_for ~procs_max:48 600.0)

(* {1 The ladder walker on a tiny ladder}

   Three stations against a one-spindle standard server, offered a
   rate they keep up with, then two the server cannot serve. *)

module Laddis = Nfsg_workload.Laddis
module Rig = Nfsg_experiments.Rig

let tiny_load =
  Fun.const
    {
      Laddis.default_config with
      Laddis.procs = 3;
      files_per_proc = 1;
      file_size = 16 * 1024;
      warmup = Time.ms 100;
      measure = Time.ms 300;
    }

let tiny_curve knee_frac =
  Lc.curve ~knee_frac ~label:"tiny"
    { Rig.default_spec with Rig.gathering = false; nfsds = 4 }
    ~load:tiny_load [ 40.0; 4000.0; 8000.0 ]

let achieved c = List.map (fun p -> p.Laddis.achieved) c.Lc.points

let test_curve_walk () =
  let all = tiny_curve 0.0 in
  Alcotest.(check int) "a knee fraction of 0 runs every load" 3 (List.length all.Lc.points);
  Alcotest.(check (option int)) "and finds no knee" None all.Lc.knee;
  Alcotest.(check (float 0.0)) "capacity is the best achieved point"
    (List.fold_left Float.max 0.0 (achieved all))
    all.Lc.capacity;
  let kneed = tiny_curve 0.9 in
  Alcotest.(check (option int)) "the second load sags" (Some 1) kneed.Lc.knee;
  Alcotest.(check (list (float 0.0))) "the walk stops at the sagging rung"
    (List.filteri (fun i _ -> i < 2) (achieved all))
    (achieved kneed);
  Alcotest.(check (float 0.0)) "rated at the rung it kept up with" (List.hd (achieved all))
    kneed.Lc.capacity

(* {1 Double-run determinism}

   The grid's baseline and gather servers on a tiny ladder, twice in
   one process: the same points both times, as the committed artifact
   needs. *)

let test_double_run () =
  let run_once () =
    List.filter_map
      (fun (v : Lc.variant) ->
        if List.mem v.Lc.label [ "baseline"; "gather" ] then
          Some (Lc.curve ~knee_frac:0.9 ~label:v.label v.spec ~load:tiny_load [ 60.0; 120.0 ]).Lc.points
        else None)
      Lc.grid
  in
  let first = run_once () in
  Alcotest.(check int) "two curves" 2 (List.length first);
  Alcotest.(check bool) "the same points across runs" true (first = run_once ())

let suite =
  [
    Alcotest.test_case "knee detection on synthetic curves" `Quick test_detect_knee;
    Alcotest.test_case "capacity rating" `Quick test_capacity_rating;
    Alcotest.test_case "station pool scales with offered load" `Quick test_procs_for;
    Alcotest.test_case "tiny sweep is double-run deterministic" `Quick test_double_run;
    Alcotest.test_case "the walk stops at the knee" `Quick test_curve_walk;
  ]
