(* Experiment harness sanity: tiny runs asserting the paper's headline
   SHAPES, so a regression in any layer that would corrupt the
   reproduction fails fast here. Full-size runs live in bench/. *)

module E = Nfsg_experiments.Experiments
module Filecopy = Nfsg_experiments.Filecopy
module Rig = Nfsg_experiments.Rig
module Calib = Nfsg_experiments.Calib
module Report = Nfsg_stats.Report

let small = 1024 * 1024

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let cell ?(net = Calib.Fddi) ?(accel = false) ?(spindles = 1) ~gathering ~biods () =
  let spec = { Rig.default_spec with Rig.net; accel; spindles; gathering } in
  Filecopy.run_cell ~spec ~biods ~total:small ()

let test_gathering_wins_with_biods () =
  let std = cell ~gathering:false ~biods:7 () in
  let gat = cell ~gathering:true ~biods:7 () in
  Alcotest.(check bool) "client speed up at least 2x" true
    (gat.Filecopy.client_kb_s > 2.0 *. std.Filecopy.client_kb_s);
  Alcotest.(check bool) "disk transactions down" true
    (gat.Filecopy.disk_trans_s < 0.7 *. std.Filecopy.disk_trans_s)

let test_gathering_loses_at_zero_biods () =
  let std = cell ~gathering:false ~biods:0 () in
  let gat = cell ~gathering:true ~biods:0 () in
  let penalty = (std.Filecopy.client_kb_s -. gat.Filecopy.client_kb_s) /. std.Filecopy.client_kb_s in
  if penalty < 0.02 || penalty > 0.45 then
    Alcotest.failf "0-biod penalty %.1f%% outside the paper's ballpark" (100.0 *. penalty)

let test_presto_inverts_the_tradeoff () =
  (* With NVRAM (Table 2/4 shape): gathering costs some client speed
     but saves CPU. *)
  let std = cell ~accel:true ~gathering:false ~biods:7 () in
  let gat = cell ~accel:true ~gathering:true ~biods:7 () in
  Alcotest.(check bool) "client speed not higher" true
    (gat.Filecopy.client_kb_s <= std.Filecopy.client_kb_s *. 1.02);
  Alcotest.(check bool) "cpu lower" true (gat.Filecopy.cpu_pct < std.Filecopy.cpu_pct)

let test_stripe_scales_gathering () =
  let one = cell ~gathering:true ~biods:15 () in
  let three = cell ~gathering:true ~spindles:3 ~biods:15 () in
  Alcotest.(check bool) "3 spindles beat 1" true
    (three.Filecopy.client_kb_s > 1.3 *. one.Filecopy.client_kb_s)

let test_ethernet_slower_than_fddi () =
  let eth = cell ~net:Calib.Ethernet ~gathering:true ~biods:15 () in
  let fddi = cell ~net:Calib.Fddi ~gathering:true ~biods:15 () in
  Alcotest.(check bool) "network matters" true
    (fddi.Filecopy.client_kb_s > eth.Filecopy.client_kb_s)

let test_figure1_has_the_story () =
  let fig = E.figure1 () in
  Alcotest.(check bool) "standard section" true (contains fig "Standard server");
  Alcotest.(check bool) "gathering section" true (contains fig "Gathering server");
  Alcotest.(check bool) "per-write metadata in standard" true (contains fig "Metadata to disk");
  Alcotest.(check bool) "clustered data write" true (contains fig "data to disk (clustered)");
  Alcotest.(check bool) "batched replies" true (contains fig "5 Write Replies")

let test_table_report_shape () =
  let report =
    Filecopy.table ~title:"t" ~net:Calib.Fddi ~accel:false ~spindles:1 ~biods:[ 0; 3 ]
      ~total:small ()
  in
  let s = Report.to_string report in
  List.iter
    (fun row -> Alcotest.(check bool) row true (contains s row))
    [
      "Without Write Gathering";
      "With Write Gathering";
      "client write speed (KB/sec)";
      "server cpu util. (%)";
      "server disk (KB/sec)";
      "server disk (trans/sec)";
    ]

let test_procrastination_ablation_zero_interval () =
  (* With a zero procrastination interval and biods, gathering still
     happens via handoff/mbuf-hunting but less of it. *)
  let with_interval =
    Nfsg_experiments.Experiments.ablation_procrastination ~quick:true ()
  in
  ignore with_interval (* rendering checked above; here: it completes *)

(* {1 The machine-readable writegather bench} *)

module Json = Nfsg_stats.Json

let jfield name = function
  | Json.Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> Alcotest.failf "missing JSON field %S" name)
  | _ -> Alcotest.failf "expected object around %S" name

let jint = function Json.Int i -> i | _ -> Alcotest.fail "expected int"
let jstring = function Json.String s -> s | _ -> Alcotest.fail "expected string"
let jlist = function Json.List l -> l | _ -> Alcotest.fail "expected list"

let bench_total = 256 * 1024

let test_bench_writegather_shape () =
  let j = E.bench_writegather ~total:bench_total () in
  Alcotest.(check string) "schema" "nfsgather-bench/1" (jstring (jfield "schema" j));
  Alcotest.(check int) "workload size" bench_total (jint (jfield "total_bytes" (jfield "workload" j)));
  let rows = jlist (jfield "rows" j) in
  Alcotest.(check (list string)) "three modes in order" [ "standard"; "gathering"; "nvram" ]
    (List.map (fun r -> jstring (jfield "mode" r)) rows);
  let disk_trans r = jint (jfield "transactions" (jfield "disk" r)) in
  let saved r = jint (jfield "metadata_flushes_saved" r) in
  let std = List.nth rows 0 and gat = List.nth rows 1 in
  (* The paper's core claim, machine-checked: gathering collapses the
     per-write metadata writes, so the same workload costs fewer disk
     transactions and a positive number of saved metadata flushes. *)
  Alcotest.(check bool) "gathering does fewer disk transactions" true
    (disk_trans gat < disk_trans std);
  Alcotest.(check bool) "gathering saves metadata flushes" true (saved gat > 0);
  Alcotest.(check int) "standard saves none" 0 (saved std);
  List.iter
    (fun r ->
      (match jfield "latency" r with
      | Json.Obj _ -> ()
      | _ -> Alcotest.fail "latency block missing");
      match jfield "mean" (jfield "batch_size" r) with
      | Json.Float mean -> Alcotest.(check bool) "mean batch >= 1" true (mean >= 1.0)
      | _ -> Alcotest.fail "batch_size.mean missing")
    rows

let test_bench_writegather_deterministic () =
  let s1 = Json.to_string ~pretty:true (E.bench_writegather ~total:bench_total ()) in
  let s2 = Json.to_string ~pretty:true (E.bench_writegather ~total:bench_total ()) in
  Alcotest.(check string) "byte-identical across runs" s1 s2;
  (* A shared --metrics-json sink must not leak into the rows. *)
  let env = { Rig.default_env with Rig.metrics = Some (Nfsg_stats.Metrics.create ()) } in
  let s3 = Json.to_string ~pretty:true (E.bench_writegather ~env ~total:bench_total ()) in
  Alcotest.(check string) "sink does not perturb the bench" s1 s3

(* {1 Rig.env: every field reaches the world}

   One small world per row: a short LADDIS mix from eight stations
   against a standard server over three spindles, whose cache is small
   enough that reads miss and meet the writes in the disk queues. Each
   row sets one env field and checks the world shows it — a field the
   rig ignored would fail its row. *)

let env_world env =
  let module Laddis = Nfsg_workload.Laddis in
  let spec =
    { Rig.default_spec with Rig.spindles = 3; gathering = false; cache_blocks = Some 64 }
  in
  let rig = Rig.make ~env spec in
  let cfg =
    {
      Laddis.default_config with
      Laddis.procs = 8;
      warmup = Nfsg_sim.Time.ms 100;
      measure = Nfsg_sim.Time.ms 400;
    }
  in
  Rig.run rig (fun () ->
      ignore
        (Laddis.run rig.Rig.eng
           ~make_client:(fun i -> Rig.new_client rig (Printf.sprintf "client%d" i))
           ~root:(Rig.root rig) ~offered:200.0 cfg));
  rig

let registry rig = Nfsg_stats.Metrics.to_string (Rig.metrics rig)
let baseline = lazy (registry (env_world Rig.default_env))
let changes_registry env () = registry (env_world env) <> Lazy.force baseline

let emits env ~expect () =
  let out = Buffer.create 1024 in
  ignore (env_world { env with Rig.emit = Some (Buffer.add_string out) });
  contains (Buffer.contents out) expect

let env_rows =
  let d = Rig.default_env in
  [
    ( "metrics",
      fun () ->
        let sink = Nfsg_stats.Metrics.create () in
        let rig = env_world { d with Rig.metrics = Some sink } in
        Rig.metrics rig == sink && Nfsg_stats.Metrics.to_string sink = Lazy.force baseline );
    ("scheduler", changes_registry { d with Rig.scheduler = Some Nfsg_disk.Disk.Deadline });
    ("raid_level", changes_registry { d with Rig.raid_level = Some Nfsg_disk.Stripe.Raid5 });
    ( "monitor_interval",
      emits { d with Rig.monitor_interval = Some (Nfsg_sim.Time.ms 100) } ~expect:"nfsmon t=" );
    ( "emit",
      emits { d with Rig.long_op_threshold = Some (Nfsg_sim.Time.us 1) } ~expect:"long-op records:"
    );
    ( "long_op_threshold",
      fun () ->
        let rig = env_world { d with Rig.long_op_threshold = Some (Nfsg_sim.Time.us 1) } in
        Nfsg_stats.Journey.long_op_count (Nfsg_core.Server.journeys rig.Rig.server) > 0 );
  ]

let test_env_fields_honoured () =
  List.iter (fun (field, honoured) -> Alcotest.(check bool) field true (honoured ())) env_rows

let suite =
  [
    Alcotest.test_case "gathering wins with biods" `Quick test_gathering_wins_with_biods;
    Alcotest.test_case "gathering loses at 0 biods" `Quick test_gathering_loses_at_zero_biods;
    Alcotest.test_case "Presto inverts the trade-off" `Quick test_presto_inverts_the_tradeoff;
    Alcotest.test_case "striping scales gathering" `Quick test_stripe_scales_gathering;
    Alcotest.test_case "Ethernet slower than FDDI" `Quick test_ethernet_slower_than_fddi;
    Alcotest.test_case "figure 1 tells the story" `Quick test_figure1_has_the_story;
    Alcotest.test_case "table report has paper rows" `Quick test_table_report_shape;
    Alcotest.test_case "procrastination ablation runs" `Slow test_procrastination_ablation_zero_interval;
    Alcotest.test_case "writegather bench JSON shape" `Quick test_bench_writegather_shape;
    Alcotest.test_case "writegather bench JSON determinism" `Quick test_bench_writegather_deterministic;
    Alcotest.test_case "rig env fields reach the world" `Quick test_env_fields_honoured;
  ]
