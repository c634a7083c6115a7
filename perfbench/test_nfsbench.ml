(* The benchmark's own checks, on test-sized runs: every workload runs
   clean and prints every declared metric, one seed gives one outcome,
   tracing does not change it, and the benchmark's biods behave exactly
   like Client's. *)

open Nfsg_sim
module W = Nfsbench.Workloads
module R = Nfsbench.Report
module World = Nfsbench.World
module Client = Nfsg_nfs.Client
module File_writer = Nfsg_workload.File_writer

let tiny = { W.worlds = 1; units = 1; setups = 1; small = true }
let workloads = List.map fst W.all

let run name = W.run name tiny ~seed:42

let test_runs_clean name () =
  let o = run name in
  Alcotest.(check (list string)) "no failed check" [] o.W.problems;
  Alcotest.(check int) "no failed op" 0 o.W.failed;
  Alcotest.(check bool) "ops attempted" true (o.W.attempted > 0);
  List.iter
    (fun (m : R.metric) ->
      if not (Float.is_finite m.R.value && m.R.value > 0.0) then
        Alcotest.failf "%s: end-to-end metric %s is %g" name m.R.name m.R.value)
    (R.end_to_end o ~peak_heap_mb:(R.peak_heap_mb ()))

let test_same_seed name () =
  let a = run name and b = run name in
  Alcotest.(check string) "digest" (W.digest a) (W.digest b);
  Alcotest.(check (list (pair string (float 0.0))))
    "simulated metrics"
    (R.sim_values (R.end_to_end a ~peak_heap_mb:0.0))
    (R.sim_values (R.end_to_end b ~peak_heap_mb:0.0))

let test_trace_neutral name () =
  let u, t = W.run_traced name { tiny with W.worlds = 2 } ~seed:42 (Nfsbench.Probe.create ()) in
  Alcotest.(check string) "digest" (W.digest u) (W.digest t);
  Alcotest.(check (list (pair string (float 0.0))))
    "simulated metrics"
    (R.sim_values (R.end_to_end u ~peak_heap_mb:0.0))
    (R.sim_values (R.end_to_end t ~peak_heap_mb:0.0))

(* Four stations copying at once through Client's own biods, and again
   through the benchmark's pool: same simulated finish, same spindle
   transactions. *)
let test_pool_matches_client () =
  let total = 512 * 1024 in
  let copy ~native =
    let w = World.make W.write_copy_world in
    World.run w (fun () ->
        let stations =
          List.init 4 (fun i ->
              let addr = Printf.sprintf "ws%d" i in
              let c =
                if native then begin
                  let sock = Nfsg_net.Socket.create w.World.segment ~addr () in
                  let rpc = Nfsg_rpc.Rpc_client.create w.World.eng ~sock ~server:World.server_addr () in
                  Client.create w.World.eng ~rpc ~biods:W.biods ()
                end
                else snd (World.client w addr)
              in
              (c, fst (Client.mkdir c (Client.mount c World.export) addr)))
        in
        let o = W.outcome () in
        W.join w
          (List.map
             (fun (c, dir) () ->
               if native then ignore (File_writer.run w.World.eng c ~dir ~name:"f" ~total ~seed:7 ())
               else ignore (W.copy_file o w c dir ~name:"f" ~total ~seed:7))
             stations);
        (Engine.now w.World.eng, (w.World.spindle.Nfsg_disk.Device.spindle_stats ()).Nfsg_disk.Device.transactions))
  in
  Alcotest.(check (pair int int)) "finish instant, transactions" (copy ~native:true) (copy ~native:false)

(* BENCHMARK.json declares each printed metric, by name and unit, on
   a line of its own, and declares nothing else besides the workloads. *)
let test_declared () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let occurrences needle =
    let n = String.length needle in
    let rec scan i acc =
      if i + n > String.length text then acc else scan (i + 1) (if String.sub text i n = needle then acc + 1 else acc)
    in
    scan 0 0
  in
  let declared (m : R.metric) =
    if occurrences (Printf.sprintf "{\"name\": \"%s\", \"unit\": \"%s\"," m.R.name m.R.unit_) <> 1 then
      Alcotest.failf "%s (%s) is not declared once in BENCHMARK.json" m.R.name m.R.unit_
  in
  let p = Nfsbench.Probe.create () in
  let u, t = W.run_traced "sfs_mix" tiny ~seed:42 p in
  let printed = R.end_to_end u ~peak_heap_mb:1.0 @ R.per_layer ~u ~t p in
  List.iter declared printed;
  Alcotest.(check int) "declared names" (List.length W.all + List.length printed) (occurrences "{\"name\": ")

let () =
  Alcotest.run "nfsbench"
    [
      ("nfsbench runs", List.map (fun n -> Alcotest.test_case (n ^ " runs clean") `Quick (test_runs_clean n)) workloads);
      ("nfsbench seeds", List.map (fun n -> Alcotest.test_case (n ^ " same seed") `Quick (test_same_seed n)) workloads);
      ("nfsbench trace", List.map (fun n -> Alcotest.test_case (n ^ " traced") `Quick (test_trace_neutral n)) workloads);
      ( "nfsbench pieces",
        [
          Alcotest.test_case "pool matches Client biods" `Quick test_pool_matches_client;
          Alcotest.test_case "metrics declared" `Quick test_declared;
        ] );
    ]
