open Testbed
module FW = Nfsg_workload.File_writer
module Laddis = Nfsg_workload.Laddis
module Server = Nfsg_core.Server
module Time = Nfsg_sim.Time
module Engine = Nfsg_sim.Engine

let test_file_writer_result () =
  let rig = make ~biods:4 () in
  let r =
    run rig (fun () ->
        let client = rig.client in
        FW.run rig.eng client ~dir:(root rig) ~name:"fw" ~total:(100 * 1024) ())
  in
  Alcotest.(check int) "bytes" (100 * 1024) r.FW.bytes;
  Alcotest.(check bool) "positive elapsed" true (r.FW.elapsed > 0);
  Alcotest.(check int) "wire writes" 13 r.FW.wire_writes;
  let expected = 100.0 /. Time.to_sec_f r.FW.elapsed in
  Alcotest.(check (float 0.5)) "kb/s consistent" expected r.FW.kb_per_sec

let test_file_writer_verify () =
  let rig = make ~biods:4 () in
  run rig (fun () ->
      let r = FW.run rig.eng rig.client ~dir:(root rig) ~name:"v" ~total:50_000 ~seed:3 () in
      ignore r;
      let fh, _ = Client.lookup rig.client (root rig) "v" in
      Alcotest.(check bool) "verifies against pattern" true
        (FW.verify rig.client ~fh ~total:50_000 ~seed:3);
      Alcotest.(check bool) "wrong seed fails" false (FW.verify rig.client ~fh ~total:50_000 ~seed:4))

let test_random_writer () =
  let rig = make ~biods:8 () in
  let r =
    run rig (fun () ->
        FW.run_random rig.eng rig.client ~dir:(root rig) ~name:"r" ~writes:32 ~file_blocks:16 ())
  in
  Alcotest.(check int) "bytes counted" (32 * 8192) r.FW.bytes;
  (* Random offsets within 16 blocks: the file can't exceed 128K. *)
  run rig (fun () ->
      let fh, _ = Client.lookup rig.client (root rig) "r" in
      let a = Client.getattr rig.client fh in
      Alcotest.(check bool) "bounded size" true (a.Proto.size <= 16 * 8192))

let laddis_cfg =
  {
    Laddis.default_config with
    Laddis.procs = 3;
    files_per_proc = 3;
    file_size = 32 * 1024;
    warmup = Time.of_ms_f 500.0;
    measure = Time.sec 3;
  }

let run_laddis rig ~offered cfg =
  run rig (fun () ->
      let make_client i =
        let sock = Socket.create rig.segment ~addr:(Printf.sprintf "lc%d" i) () in
        let rpc = Rpc_client.create rig.eng ~sock ~server:"server" () in
        Client.create rig.eng ~rpc ~biods:cfg.Laddis.biods_per_proc ()
      in
      Laddis.run rig.eng ~make_client ~root:(root rig) ~offered cfg)

let test_laddis_tracks_offered_load () =
  let rig = make ~biods:4 () in
  let p = run_laddis rig ~offered:50.0 laddis_cfg in
  (* Far below saturation: achieved within 25% of offered. *)
  if Float.abs (p.Laddis.achieved -. 50.0) > 12.5 then
    Alcotest.failf "achieved %.1f too far from offered 50" p.Laddis.achieved;
  Alcotest.(check bool) "latency positive" true (p.Laddis.avg_latency_ms > 0.0);
  Alcotest.(check bool) "ops counted" true (p.Laddis.ops_completed > 50)

let test_laddis_saturates () =
  let rig = make ~biods:4 () in
  let p = run_laddis rig ~offered:5000.0 laddis_cfg in
  (* A single-spindle server cannot do 5000 SFS-mix ops/s. *)
  Alcotest.(check bool) "saturated below offered" true (p.Laddis.achieved < 2500.0);
  Alcotest.(check bool) "did real work" true (p.Laddis.achieved > 50.0)

let test_laddis_deterministic () =
  let once () =
    let rig = make ~biods:4 () in
    let p = run_laddis rig ~offered:80.0 laddis_cfg in
    (p.Laddis.ops_completed, p.Laddis.avg_latency_ms)
  in
  let a = once () and b = once () in
  Alcotest.(check bool) "identical runs" true (a = b)

let test_laddis_server_saw_the_mix () =
  let rig = make ~biods:4 () in
  ignore (run_laddis rig ~offered:100.0 laddis_cfg);
  let count p = op_count rig.server p in
  (* Write RPC counts are inflated by bursts (avg 4 per op drawn), so
     compare lookups against a genuinely rare op instead. *)
  Alcotest.(check bool) "lookups dominate readdirs" true
    (count Proto.proc_lookup > count Proto.proc_readdir);
  Alcotest.(check bool) "writes present" true (count Proto.proc_write > 0);
  Alcotest.(check bool) "reads present" true (count Proto.proc_read > 0);
  Alcotest.(check bool) "getattrs present" true (count Proto.proc_getattr > 0)

let suite =
  [
    Alcotest.test_case "file writer accounting" `Quick test_file_writer_result;
    Alcotest.test_case "file writer verification" `Quick test_file_writer_verify;
    Alcotest.test_case "random writer bounded" `Quick test_random_writer;
    Alcotest.test_case "laddis tracks offered load" `Quick test_laddis_tracks_offered_load;
    Alcotest.test_case "laddis saturates honestly" `Quick test_laddis_saturates;
    Alcotest.test_case "laddis runs are deterministic" `Quick test_laddis_deterministic;
    Alcotest.test_case "laddis exercises the op mix" `Quick test_laddis_server_saw_the_mix;
  ]
