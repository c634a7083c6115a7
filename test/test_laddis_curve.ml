open Nfsg_sim
module Lc = Nfsg_experiments.Laddis_curve
module Json = Nfsg_stats.Json

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

(* {1 Double-run byte-determinism}

   The real sweep, shrunk: two configurations, two rungs, short
   windows. Same property as the other committed artifacts — two runs
   inside one process must render byte for byte the same JSON. The
   restrictions travel in the sweep, the way the nfsgather flags pass
   them. *)

let tiny_sweep =
  {
    Lc.default_sweep with
    Lc.max_points = 2;
    procs_max = 8;
    warmup = Time.ms 100;
    measure = Time.ms 400;
    nfsds = 8;
    configs = Some [ "baseline"; "gather" ];
  }

let test_grid_override_validates () =
  Alcotest.check_raises "unknown label rejected"
    (Invalid_argument "Laddis_curve: unknown configuration \"warp9\"") (fun () ->
      ignore (Lc.run ~sweep:{ tiny_sweep with Lc.configs = Some [ "gather"; "warp9" ] } ()))

let test_double_run () =
  let run_once () = Lc.bench_laddis_curve ~sweep:tiny_sweep () in
  let first = run_once () and second = run_once () in
  Alcotest.(check bool) "byte-identical across runs" true
    (String.equal (Json.to_string ~pretty:true first) (Json.to_string ~pretty:true second));
  (* And the sweep really restricted the grid. *)
  let labels =
    match Option.bind (Json.member "configs" first) Json.to_list with
    | Some configs -> List.filter_map (fun c -> Option.bind (Json.member "config" c) Json.to_str) configs
    | None -> []
  in
  Alcotest.(check (list string)) "grid restricted" [ "baseline"; "gather" ] labels

let suite =
  [
    Alcotest.test_case "knee detection on synthetic curves" `Quick test_detect_knee;
    Alcotest.test_case "capacity rating" `Quick test_capacity_rating;
    Alcotest.test_case "station pool scales with offered load" `Quick test_procs_for;
    Alcotest.test_case "grid override validates labels" `Quick test_grid_override_validates;
    Alcotest.test_case "tiny sweep is double-run deterministic" `Quick test_double_run;
  ]
