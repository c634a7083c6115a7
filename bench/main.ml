(* The benchmark harness: regenerates every table and figure of the
   paper (sections printed in paper order), runs the ablation benches
   DESIGN.md calls out, and finishes with Bechamel microbenchmarks of
   the substrate primitives the simulation's wall-clock speed rests on.

     dune exec bench/main.exe              full reproduction (minutes)
     dune exec bench/main.exe -- quick     small-file smoke run
     dune exec bench/main.exe -- micro     only the Bechamel microbenches
     dune exec bench/main.exe -- raid iosched  only the named BENCH_*.json
                                               artifacts (see [artifacts])
     dune exec bench/main.exe -- simspeed      wall-clock events/sec of one world
     dune build @bench-check                   regenerate every committed
                                               artifact and diff it

   Any other argument is a usage error. A single table or figure is an
   nfsgather target: `dune exec nfsgather -- table1`.

   The full run also writes all six BENCH_*.json artifacts to the
   current directory.

   Paper-vs-measured commentary lives in EXPERIMENTS.md. *)

module E = Nfsg_experiments.Experiments
module X = Nfsg_experiments
module Report = Nfsg_stats.Report

let progress fmt = Printf.eprintf (fmt ^^ "\n%!")

let banner title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* {1 Paper tables and figures} *)

let run_tables quick =
  let tables =
    [
      ("Table 1 (Ethernet)", fun () -> E.table1 ~quick ());
      ("Table 2 (Ethernet, Presto)", fun () -> E.table2 ~quick ());
      ("Table 3 (FDDI)", fun () -> E.table3 ~quick ());
      ("Table 4 (FDDI, Presto)", fun () -> E.table4 ~quick ());
      ("Table 5 (FDDI, 3 striped drives)", fun () -> E.table5 ~quick ());
      ("Table 6 (FDDI, Presto, 3 striped drives)", fun () -> E.table6 ~quick ());
    ]
  in
  List.iter
    (fun (name, f) ->
      progress "bench: running %s ..." name;
      let t0 = Unix.gettimeofday () in
      let report = f () in
      progress "bench: %s done in %.1fs wall" name (Unix.gettimeofday () -. t0);
      print_newline ();
      print_string (Report.to_string report))
    tables

let run_figures quick =
  progress "bench: running Figure 1 (timelines) ...";
  banner "Figure 1";
  print_string (E.figure1 ());
  progress "bench: running Figure 2 (LADDIS sweep) ...";
  banner "Figure 2";
  print_string
    (E.render_laddis ~title:"SPEC SFS 1.0-style baseline (FDDI)" (E.figure2 ~quick ()));
  progress "bench: running Figure 3 (LADDIS sweep, Presto) ...";
  banner "Figure 3";
  print_string
    (E.render_laddis ~title:"SPEC SFS 1.0-style baseline (FDDI, Prestoserve)"
       (E.figure3 ~quick ()))

let run_ablations quick =
  banner "Ablations";
  let each (name, f) =
    progress "bench: ablation %s ..." name;
    print_newline ();
    print_string (Report.to_string (f ()))
  in
  List.iter each
    [
      ("procrastination interval", fun () -> E.ablation_procrastination ~quick ());
      ("reply order", fun () -> E.ablation_reply_order ~quick ());
      ("latency device (SIVA93)", fun () -> E.ablation_latency_device ~quick ());
      ("mbuf hunter", fun () -> E.ablation_mbuf_hunter ~quick ());
      ("dumb PC penalty", fun () -> E.ablation_dumb_pc ~quick ());
      ("disk scheduler", fun () -> E.ablation_disk_scheduler ~quick ());
      ("io scheduler + merge + deadline", fun () -> Nfsg_experiments.Iosched.report ());
    ]

let run_extensions quick =
  banner "Extensions (the paper's Future Work, built out)";
  let each (name, f) =
    progress "bench: extension %s ..." name;
    print_newline ();
    print_string (Report.to_string (f ()))
  in
  List.iter each
    [
      ("learned clients (Mogul)", fun () -> E.extension_learned_clients ~quick ());
      ("NFSv3 async writes + COMMIT", fun () -> E.extension_v3 ~quick ());
      ("write-layer modes incl. dangerous", fun () -> E.extension_write_modes ~quick ());
    ]

(* {1 The committed artifacts}

   Each is a fixed workload (only writegather reads [quick]; the
   committed copy is its quick run), committed at the repo root and
   diffed byte for byte against a fresh run by [dune build @bench-check]. *)

let artifacts quick =
  [
    ("writegather", "BENCH_writegather.json", fun () -> E.bench_writegather ~quick ());
    ("multivolume", "BENCH_multivolume.json", fun () -> X.Multivolume.bench_multivolume ());
    ("iosched", "BENCH_iosched.json", fun () -> X.Iosched.bench_iosched ());
    ("raid", "BENCH_raid.json", fun () -> X.Raid.bench_raid ());
    ("laddis-curve", "BENCH_laddis_curve.json", fun () -> X.Laddis_curve.bench_laddis_curve ());
    ("bootstorm", "BENCH_bootstorm.json", fun () -> X.Bootstorm.bench_bootstorm ());
  ]

let write_artifact (name, file, bench) =
  progress "bench: running %s JSON bench ..." name;
  let t0 = Unix.gettimeofday () in
  let json = bench () in
  let oc = open_out file in
  output_string oc (Nfsg_stats.Json.to_string ~pretty:true json);
  close_out oc;
  progress "bench: wrote %s in %.1fs wall" file (Unix.gettimeofday () -. t0)

(* {1 Simulator speed}

   Wall-clock events/second over one fixed saturating LADDIS-style
   world — the macro number the engine/heap/XDR fast-path work moves,
   where the microbenches below isolate the primitives — and the words
   it allocates per event. Events/s varies from run to run; words per
   event repeat exactly on one compiler, so CI gates on both with the
   values recorded in bench/SIMSPEED_FLOOR: events/s may fall to half
   its floor, words/event may rise 25% over its recorded value. *)

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let run_simspeed () =
  let module Rig = Nfsg_experiments.Rig in
  let module Laddis = Nfsg_workload.Laddis in
  let open Nfsg_sim in
  progress "bench: running simspeed ...";
  let rig = Rig.make { Rig.default_spec with Rig.nfsds = 12 } in
  let lcfg =
    {
      Laddis.default_config with
      Laddis.procs = 12;
      files_per_proc = 2;
      file_size = 1024 * 1024;
      warmup = Time.ms 500;
      measure = Time.sec 10;
      seed = 7;
    }
  in
  let w0 = allocated_words () in
  let t0 = Unix.gettimeofday () in
  let point =
    Rig.run rig (fun () ->
        Laddis.run rig.Rig.eng
          ~make_client:(fun i -> Rig.new_client rig (Printf.sprintf "client%d" i))
          ~root:(Rig.root rig) ~offered:170.0 lcfg)
  in
  let wall = Unix.gettimeofday () -. t0 in
  let words = allocated_words () -. w0 in
  let events = Engine.events_processed rig.Rig.eng in
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  Printf.printf
    "simspeed: events=%d wall_s=%.3f events_per_sec=%.0f alloc_words_per_event=%.1f \
     top_heap_mb=%.1f achieved_ops_s=%.1f\n"
    events wall
    (float_of_int events /. wall)
    (words /. float_of_int events)
    top_heap_mb point.Laddis.achieved

(* {1 Bechamel microbenchmarks}

   Wall-clock cost of the hot substrate operations: these bound how
   much simulated traffic a real second of benchmarking buys. *)

let micro_tests () =
  let open Bechamel in
  let open Nfsg_sim in
  let heap_churn =
    Test.make ~name:"heap: 1k add+pop"
      (Staged.stage (fun () ->
           let h = Heap.create ~dummy:0 in
           for i = 0 to 999 do
             ignore (Heap.add h ~key:(i * 37 mod 1000) ~seq:i i : Heap.handle)
           done;
           let rec drain () = match Heap.pop h with Some _ -> drain () | None -> () in
           drain ()))
  in
  let engine_events =
    Test.make ~name:"engine: 1k chained delays"
      (Staged.stage (fun () ->
           let eng = Engine.create () in
           Engine.spawn eng (fun () ->
               for _ = 1 to 1000 do
                 Engine.delay (Time.us 1)
               done);
           Engine.run eng))
  in
  let xdr_write_roundtrip =
    let data = Bytes.make 8192 'x' in
    Test.make ~name:"xdr: encode+decode 8K WRITE"
      (Staged.stage (fun () ->
           let args =
             Nfsg_nfs.Proto.Write
               { fh = { Nfsg_nfs.Proto.fsid = 1; vgen = 1; inum = 3; gen = 1 }; offset = 0;
                 data = Nfsg_rpc.Xdr.view_of_bytes data }
           in
           let body = Nfsg_nfs.Proto.encode_args args in
           let call =
             Nfsg_rpc.Rpc.encode_call
               { Nfsg_rpc.Rpc.xid = 1; prog = Nfsg_rpc.Rpc.nfs_program; vers = 2; proc = 8;
                 body = Nfsg_rpc.Xdr.view_of_bytes body }
           in
           ignore (Nfsg_rpc.Rpc.decode_call call)))
  in
  let extent_map_stream =
    Test.make ~name:"extent map: 64 sequential 8K inserts"
      (Staged.stage (fun () ->
           let m = Nfsg_disk.Extent_map.create () in
           let block = Bytes.make 8192 'e' in
           for i = 0 to 63 do
             Nfsg_disk.Extent_map.insert m ~off:(i * 8192) block
           done))
  in
  let end_to_end =
    Test.make ~name:"end-to-end: 64K NFS file write"
      (Staged.stage (fun () ->
           let eng = Engine.create () in
           let segment = Nfsg_net.Segment.create eng Nfsg_net.Segment.fddi in
           let disk = Nfsg_disk.Disk.create eng (Nfsg_disk.Disk.rz26 ~capacity:(8 * 1024 * 1024) ()) in
           let server =
             Nfsg_core.Server.make eng ~segment ~addr:"server" ~device:disk
               Nfsg_core.Server.default_config
           in
           let sock = Nfsg_net.Socket.create segment ~addr:"client" () in
           let rpc = Nfsg_rpc.Rpc_client.create eng ~sock ~server:"server" () in
           let client = Nfsg_nfs.Client.create eng ~rpc ~biods:4 () in
           Engine.spawn eng (fun () ->
               let root = Nfsg_core.Server.root_fh server in
               let fh, _ = Nfsg_nfs.Client.create_file client root "b" in
               let f = Nfsg_nfs.Client.open_file client fh in
               Nfsg_nfs.Client.write f ~off:0 (Bytes.make 65536 'b');
               Nfsg_nfs.Client.close f);
           Engine.run eng))
  in
  Test.make_grouped ~name:"substrate"
    [ heap_churn; engine_events; xdr_write_roundtrip; extent_map_stream; end_to_end ]

let run_micro () =
  banner "Bechamel microbenchmarks";
  let open Bechamel in
  let instances = Toolkit.Instance.[ monotonic_clock; minor_allocated ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let results =
    List.map (fun instance -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |]) instance raw)
      instances
  in
  List.iter2
    (fun instance tbl ->
      let label = Bechamel.Measure.label instance in
      Printf.printf "\n%s per run:\n" label;
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-38s %12.1f\n" name est
          | _ -> Printf.printf "  %-38s (no estimate)\n" name)
        tbl)
    instances results

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let accepted = "quick" :: "micro" :: "simspeed" :: List.map (fun (name, _, _) -> name) (artifacts false) in
  (match List.filter (fun a -> not (List.mem a accepted)) args with
  | [] -> ()
  | unknown ->
      Printf.eprintf "main.exe: unknown argument %s\nusage: main.exe [%s]...\n"
        (String.concat ", " unknown) (String.concat "|" accepted);
      exit 2);
  let quick = List.mem "quick" args in
  let named = List.filter (fun (name, _, _) -> List.mem name args) (artifacts quick) in
  if List.mem "micro" args then run_micro ()
  else if named <> [] then List.iter write_artifact named
  else if List.mem "simspeed" args then run_simspeed ()
  else begin
    Printf.printf "NFS write gathering: full reproduction run (%s)\n"
      (if quick then "quick mode" else "paper-size workloads");
    run_tables quick;
    run_figures quick;
    run_ablations quick;
    run_extensions quick;
    List.iter write_artifact (artifacts quick);
    run_simspeed ();
    run_micro ()
  end
