open Nfsg_sim
module Report = Nfsg_stats.Report
module Server = Nfsg_core.Server
module Write_layer = Nfsg_core.Write_layer
module File_writer = Nfsg_workload.File_writer
module Laddis = Nfsg_workload.Laddis
module Client = Nfsg_nfs.Client

let size quick = if quick then 2 * 1024 * 1024 + 512 * 1024 else Calib.file_size
let paper_biods = [ 0; 3; 7; 11; 15 ]
let stripe_biods = [ 0; 3; 7; 11; 15; 19; 23 ]

let table1 ?(quick = false) ?env () =
  Filecopy.table ?env ~title:"Table 1. NFS 10MB file copy: Ethernet" ~net:Calib.Ethernet ~accel:false
    ~spindles:1 ~biods:paper_biods ~total:(size quick) ()

let table2 ?(quick = false) ?env () =
  Filecopy.table ?env ~title:"Table 2. NFS 10MB file copy: Ethernet, Presto" ~net:Calib.Ethernet
    ~accel:true ~spindles:1 ~biods:paper_biods ~total:(size quick) ()

let table3 ?(quick = false) ?env () =
  Filecopy.table ?env ~title:"Table 3. NFS 10MB file copy: FDDI" ~net:Calib.Fddi ~accel:false
    ~spindles:1 ~biods:paper_biods ~total:(size quick) ()

let table4 ?(quick = false) ?env () =
  Filecopy.table ?env ~title:"Table 4. NFS 10MB file copy: FDDI, Presto" ~net:Calib.Fddi ~accel:true
    ~spindles:1 ~biods:paper_biods ~total:(size quick) ()

let table5 ?(quick = false) ?env () =
  Filecopy.table ?env ~title:"Table 5. NFS 10MB file copy: FDDI, 3 striped drives" ~net:Calib.Fddi
    ~accel:false ~spindles:3 ~biods:stripe_biods ~total:(size quick) ()

let table6 ?(quick = false) ?env () =
  Filecopy.table ?env ~title:"Table 6. NFS 10MB file copy: FDDI, Presto, 3 striped drives"
    ~net:Calib.Fddi ~accel:true ~spindles:3 ~biods:stripe_biods ~total:(size quick) ()

(* {1 Figure 1: event timelines} *)

let figure1_trace ?env ~gathering () =
  let spec = { Rig.default_spec with Rig.net = Calib.Fddi; gathering } in
  let rig = Rig.make ?env spec in
  Rig.run rig (fun () ->
      let client = Rig.new_client rig ~biods:4 "client" in
      (* Write 200K; the interesting steady-state is >100K into the
         file, as in the paper's caption. *)
      ignore
        (File_writer.run rig.Rig.eng client ~dir:(Rig.root rig) ~name:"f" ~total:(200 * 1024) ()));
  let events = Write_layer.events (Server.write_layer rig.Rig.server) in
  (* Keep a window of events from the middle of the transfer. *)
  let n = List.length events in
  let mid = List.filteri (fun i _ -> i >= n / 2 && i < (n / 2) + 24) events in
  let t0 = match mid with (t, _, _) :: _ -> t | [] -> 0 in
  String.concat ""
    (List.map
       (fun (t, actor, ev) ->
         Printf.sprintf "  t=+%7.3fms  %-8s %s\n" (Time.to_ms_f (t - t0)) actor
           (Write_layer.describe ev))
       mid)

let figure1 ?env () =
  let std = figure1_trace ?env ~gathering:false () in
  let gat = figure1_trace ?env ~gathering:true () in
  "Figure 1. Write Gathering NFS Server Comparison\n"
  ^ "(sequential file writer, 4 biods, FDDI, rz26 disk; window >100K into the file)\n\n"
  ^ "--- Standard server ---\n" ^ std ^ "\n--- Gathering server ---\n" ^ gat

(* {1 Figures 2 and 3: LADDIS curves} *)

(* The paper's Figure 2/3 server: DEC 3800, FDDI, 20 disks on 5 SCSI
   buses, 32 nfsds. *)
let laddis_spec ~accel ~gathering =
  {
    Rig.default_spec with
    Rig.net = Calib.Fddi;
    accel;
    gathering;
    (* Scaled-down analogue of the paper's 20-disk DEC 3800: the disk
       array is the saturating resource, so relieving it with fewer
       write transactions buys capacity. Absolute ops/s are smaller
       than the paper's; the shapes are the point. *)
    spindles = 2;
    nfsds = 32;
    (* Small enough that the LADDIS working set misses: reads then
       contend with write transactions at the spindles, which is the
       queueing the paper's Figure 2 latency curve shows. *)
    cache_blocks = Some 1024;
  }

let laddis_loads quick =
  if quick then [ 100.0; 250.0; 400.0 ]
  else [ 50.0; 100.0; 150.0; 200.0; 250.0; 300.0; 350.0; 400.0; 500.0 ]

let laddis_cfg quick =
  let base =
    {
      Laddis.default_config with
      Laddis.procs = 20;
      files_per_proc = 16;
      file_size = 256 * 1024;
      biods_per_proc = 16;
    }
  in
  if quick then { base with Laddis.warmup = Time.sec 1; measure = Time.sec 4 } else base

(* The figures plot every load (a knee fraction of 0 never stops the
   walk), so each curve's capacity is its best achieved point: the
   peak throughput. *)
let laddis_pair ?env ~accel quick =
  let load = Fun.const (laddis_cfg quick) and loads = laddis_loads quick in
  let curve ~gathering ~label =
    Laddis_curve.curve ?env ~knee_frac:0.0 ~label (laddis_spec ~accel ~gathering) ~load loads
  in
  ( curve ~gathering:false ~label:"WITHOUT WRITE GATHERING",
    curve ~gathering:true ~label:"WITH WRITE GATHERING" )

let figure2 ?(quick = false) ?env () = laddis_pair ?env ~accel:false quick
let figure3 ?(quick = false) ?env () = laddis_pair ?env ~accel:true quick

let render_laddis ~title (without, with_) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (title ^ "\n");
  let render (c : Laddis_curve.curve) =
    Buffer.add_string buf (Printf.sprintf "  %s\n" c.label);
    Buffer.add_string buf "    offered(ops/s)  achieved(ops/s)  avg latency(ms)\n";
    List.iter
      (fun p ->
        Buffer.add_string buf
          (Printf.sprintf "    %14.0f  %15.1f  %15.2f\n" p.Laddis.offered p.Laddis.achieved
             p.Laddis.avg_latency_ms))
      c.points;
    let latency_at_peak =
      match List.find_opt (fun p -> p.Laddis.achieved = c.capacity) c.points with
      | Some p -> p.Laddis.avg_latency_ms
      | None -> 0.0
    in
    Buffer.add_string buf
      (Printf.sprintf "    peak throughput: %.1f ops/s at %.2f ms avg latency\n" c.capacity
         latency_at_peak)
  in
  render without;
  render with_;
  let gain =
    100.0 *. (with_.Laddis_curve.capacity -. without.Laddis_curve.capacity)
    /. without.Laddis_curve.capacity
  in
  Buffer.add_string buf (Printf.sprintf "  capacity change with gathering: %+.1f%%\n" gain);
  Buffer.contents buf

(* {1 Ablations} *)

(* A spec's server overrides that change only the write layer. *)
let write_layer f c = { c with Server.write_layer = f c.Server.write_layer }

let copy_with_config ?env ?(net = Calib.Fddi) ?(accel = false) ~biods ~total overrides =
  let spec =
    { Rig.default_spec with Rig.net; accel; gathering = true; server_overrides = write_layer overrides }
  in
  Filecopy.run_cell ?env ~spec ~biods ~total ()

let ablation_procrastination ?(quick = false) ?env () =
  let total = size quick in
  let intervals_ms = [ 0.0; 1.0; 2.0; 4.0; 5.0; 8.0; 12.0; 16.0 ] in
  let report =
    Report.create ~title:"Ablation: procrastination interval (FDDI, 7 biods)"
      ~columns:(List.map (fun ms -> Printf.sprintf "%.0fms" ms) intervals_ms)
  in
  let cells =
    List.map
      (fun ms ->
        copy_with_config ?env ~biods:7 ~total (fun c ->
            { c with Write_layer.procrastinate = Time.of_ms_f ms }))
      intervals_ms
  in
  Report.add_row report "client write speed (KB/sec)" (List.map (fun c -> c.Filecopy.client_kb_s) cells);
  Report.add_row report "writes per metadata update" (List.map (fun c -> c.Filecopy.mean_batch) cells);
  Report.add_row report "server cpu util. (%)" (List.map (fun c -> c.Filecopy.cpu_pct) cells);
  report

let ablation_reply_order ?(quick = false) ?env () =
  let total = size quick in
  let biods_list = [ 1; 2; 4 ] in
  let report =
    Report.create ~title:"Ablation: reply order, FIFO vs LIFO (FDDI)"
      ~columns:(List.map (fun b -> Printf.sprintf "%d biods" b) biods_list)
  in
  let row order label =
    let cells =
      List.map
        (fun biods ->
          copy_with_config ?env ~biods ~total (fun c -> { c with Write_layer.reply_order = order }))
        biods_list
    in
    Report.add_row report label (List.map (fun c -> c.Filecopy.client_kb_s) cells)
  in
  row `Fifo "FIFO client write speed (KB/sec)";
  row `Lifo "LIFO client write speed (KB/sec)";
  report

let ablation_latency_device ?(quick = false) ?env () =
  let total = size quick in
  let report =
    Report.create ~title:"Ablation: procrastination vs SIVA93 first-write latency device (7 biods)"
      ~columns:[ "disk"; "disk+Presto" ]
  in
  let row device label =
    let cells =
      List.map
        (fun accel ->
          copy_with_config ?env ~accel ~biods:7 ~total (fun c ->
              { c with Write_layer.latency_device = device }))
        [ false; true ]
    in
    Report.add_row report (label ^ " client KB/sec") (List.map (fun c -> c.Filecopy.client_kb_s) cells);
    Report.add_row report (label ^ " disk trans/sec") (List.map (fun c -> c.Filecopy.disk_trans_s) cells)
  in
  row `Procrastinate "procrastinate";
  row `First_write "first-write (SIVA93)";
  report

let ablation_mbuf_hunter ?(quick = false) ?env () =
  let total = size quick in
  let report =
    Report.create ~title:"Ablation: mbuf hunter under Prestoserve (8 biods)"
      ~columns:[ "1 nfsd"; "8 nfsds" ]
  in
  let row hunter label =
    let cells =
      List.map
        (fun nfsds ->
          let spec =
            {
              Rig.default_spec with
              Rig.accel = true;
              nfsds;
              server_overrides =
                write_layer (fun c -> { c with Write_layer.use_mbuf_hunter = hunter });
            }
          in
          Filecopy.run_cell ?env ~spec ~biods:8 ~total ())
        [ 1; 8 ]
    in
    Report.add_row report (label ^ " writes/metadata update")
      (List.map (fun c -> c.Filecopy.mean_batch) cells);
    Report.add_row report (label ^ " client KB/sec") (List.map (fun c -> c.Filecopy.client_kb_s) cells)
  in
  row true "hunter on";
  row false "hunter off";
  report

let ablation_disk_scheduler ?(quick = false) ?env () =
  (* A deep random READ queue is where the elevator earns its keep:
     eight client hosts issue uncached 8K reads concurrently. *)
  let reads_per_client = if quick then 40 else 160 in
  let nclients = 8 in
  let report =
    Report.create
      ~title:"Ablation: disk scheduler, 8 concurrent random readers (uncached)"
      ~columns:[ "FIFO"; "C-LOOK elevator" ]
  in
  let cells =
    List.map
      (fun disk_scheduler ->
        let spec =
          { Rig.default_spec with Rig.gathering = false; disk_scheduler; cache_blocks = Some 64 }
        in
        let rig = Rig.make ?env spec in
        let elapsed =
          Rig.run rig (fun () ->
              (* One client seeds a large file... *)
              let seeder = Rig.new_client rig ~biods:8 "seeder" in
              let fh, _ = Client.create_file seeder (Rig.root rig) "big" in
              let f = Client.open_file seeder fh in
              for i = 0 to 511 do
                Client.write f ~off:(i * 8192) (Bytes.make 8192 'r')
              done;
              Client.close f;
              (* ...then the readers hammer it with random blocks. *)
              let t0 = Engine.now rig.Rig.eng in
              let left = ref nclients in
              let done_cond = Nfsg_sim.Condition.create () in
              for c = 0 to nclients - 1 do
                let client = Rig.new_client rig ~biods:4 (Printf.sprintf "rd%d" c) in
                let rng = Nfsg_sim.Rng.create (101 + c) in
                Engine.spawn rig.Rig.eng ~name:(Printf.sprintf "reader%d" c) (fun () ->
                    for _ = 1 to reads_per_client do
                      let blk = Nfsg_sim.Rng.int rng 512 in
                      ignore (Client.read client fh ~off:(blk * 8192) ~len:8192)
                    done;
                    decr left;
                    if !left = 0 then Nfsg_sim.Condition.broadcast done_cond)
              done;
              while !left > 0 do
                Nfsg_sim.Condition.wait done_cond
              done;
              Engine.now rig.Rig.eng - t0)
        in
        let bytes = nclients * reads_per_client * 8192 in
        float_of_int bytes /. 1024.0 /. Time.to_sec_f elapsed)
      [ Nfsg_disk.Disk.Fifo; Nfsg_disk.Disk.Elevator ]
  in
  Report.add_row report "aggregate read throughput (KB/sec)" cells;
  report

(* {1 Extensions: the paper's Future Work, built out} *)

let copy_elapsed rig ~client ~total =
  Rig.run rig (fun () ->
      File_writer.run rig.Rig.eng client ~dir:(Rig.root rig) ~name:"x.dat" ~total ())

let extension_learned_clients ?(quick = false) ?env () =
  let total = size quick in
  let report =
    Report.create ~title:"Extension: Mogul's learned-client database (Ethernet)"
      ~columns:[ "0 biods"; "7 biods" ]
  in
  let row ~overrides label =
    let cells =
      List.map
        (fun biods ->
          let spec =
            { Rig.default_spec with Rig.net = Calib.Ethernet; server_overrides = write_layer overrides }
          in
          let rig = Rig.make ?env spec in
          let client = Rig.new_client rig ~biods "client" in
          let copy name total = File_writer.run rig.Rig.eng client ~dir:(Rig.root rig) ~name ~total () in
          (* Warm the learned database with a first copy, then measure
             a second one: the dumb PC's writes stop procrastinating. *)
          Rig.run rig (fun () ->
              ignore (copy "x.dat" (total / 4) : File_writer.result);
              (copy "warm.dat" total).File_writer.kb_per_sec))
        [ 0; 7 ]
    in
    Report.add_row report label cells
  in
  let std_cells =
    List.map
      (fun biods ->
        let spec = { Rig.default_spec with Rig.net = Calib.Ethernet; gathering = false } in
        (Filecopy.run_cell ?env ~spec ~biods ~total ()).Filecopy.client_kb_s)
      [ 0; 7 ]
  in
  Report.add_row report "standard server (KB/sec)" std_cells;
  row ~overrides:(fun c -> c) "gathering (KB/sec)";
  row
    ~overrides:(fun c -> { c with Write_layer.learn_clients = true })
    "gathering + learned clients (KB/sec)";
  report

let extension_v3 ?(quick = false) ?env () =
  let total = size quick in
  let report =
    Report.create ~title:"Extension: NFS v2 vs v3 async writes + COMMIT (FDDI, 8 biods)"
      ~columns:[ "standard server"; "gathering server" ]
  in
  let row protocol label =
    let cells =
      List.map
        (fun gathering ->
          let spec = { Rig.default_spec with Rig.gathering } in
          let rig = Rig.make ?env spec in
          let client = Rig.new_client rig ~biods:8 ~protocol "client" in
          let r = copy_elapsed rig ~client ~total in
          let d = Rig.spindle_stats rig in
          ( r.File_writer.kb_per_sec,
            float_of_int d.Nfsg_disk.Device.transactions /. Time.to_sec_f r.File_writer.elapsed ))
        [ false; true ]
    in
    Report.add_row report (label ^ " client KB/sec") (List.map fst cells);
    Report.add_row report (label ^ " disk trans/sec") (List.map snd cells)
  in
  row Client.V2 "v2";
  row Client.V3 "v3 (unstable+COMMIT)";
  report

let extension_write_modes ?(quick = false) ?env () =
  let total = size quick in
  let report =
    Report.create ~title:"Extension: write-layer modes (FDDI, 7 biods)"
      ~columns:[ "standard"; "gathering"; "dangerous (async)" ]
  in
  let cells =
    List.map
      (fun wl ->
        let spec =
          { Rig.default_spec with Rig.gathering = true; server_overrides = write_layer (fun _ -> wl) }
        in
        Filecopy.run_cell ?env ~spec ~biods:7 ~total ())
      [ Write_layer.standard; Write_layer.default_gathering; Write_layer.unsafe_async ]
  in
  Report.add_row report "client write speed (KB/sec)" (List.map (fun c -> c.Filecopy.client_kb_s) cells);
  Report.add_row report "server disk (trans/sec)" (List.map (fun c -> c.Filecopy.disk_trans_s) cells);
  Report.add_text_row report "acknowledged data survives a crash" [ "yes"; "yes"; "NO" ];
  report

let ablation_dumb_pc ?(quick = false) ?env () =
  let total = size quick in
  let report =
    Report.create ~title:"Ablation: single-threaded (0-biod) client penalty"
      ~columns:[ "Ethernet"; "FDDI" ]
  in
  let cells gathering =
    List.map
      (fun net ->
        let spec = { Rig.default_spec with Rig.net; gathering } in
        Filecopy.run_cell ?env ~spec ~biods:0 ~total ())
      [ Calib.Ethernet; Calib.Fddi ]
  in
  let std = cells false and gat = cells true in
  Report.add_row report "standard client KB/sec" (List.map (fun c -> c.Filecopy.client_kb_s) std);
  Report.add_row report "gathering client KB/sec" (List.map (fun c -> c.Filecopy.client_kb_s) gat);
  Report.add_row report "penalty (%)"
    (List.map2
       (fun s g -> 100.0 *. (s.Filecopy.client_kb_s -. g.Filecopy.client_kb_s) /. s.Filecopy.client_kb_s)
       std gat);
  report

(* {1 The paper-table bench: BENCH_writegather.json}

   One machine-readable artifact holding the paper's core comparison —
   Standard vs Gathering vs Gathering+Prestoserve on the same FDDI
   7-biod sequential-write workload — with the latency split and the
   gather batch-size distribution the text tables cannot carry. Every
   number comes from the per-rig metrics registry, so the JSON is a
   pure function of the workload: same seed, same bytes. *)

module Json = Nfsg_stats.Json
module Metrics = Nfsg_stats.Metrics
module Histogram = Nfsg_stats.Histogram
module Names = Nfsg_stats.Names

let bench_biods = 7

let bench_writegather ?(quick = false) ?env ?total () =
  let total = match total with Some t -> t | None -> size quick in
  let writes = (total + 8191) / 8192 in
  let row ~mode ~gathering ~accel =
    let spec = { Rig.default_spec with Rig.net = Calib.Fddi; gathering; accel } in
    let rig = Rig.make ?env spec in
    let m = rig.Rig.metrics in
    Rig.run rig (fun () ->
        let client = Rig.new_client rig ~biods:bench_biods "client" in
        let d0 = Rig.spindle_stats rig in
        let result, window =
          Rig.measure rig (fun () ->
              File_writer.run rig.Rig.eng client ~dir:(Rig.root rig) ~name:"bench.dat" ~total ())
        in
        let d1 = Rig.spindle_stats rig in
        let fh, _ = Nfsg_nfs.Client.lookup client (Rig.root rig) "bench.dat" in
        if not (File_writer.verify client ~fh ~total ~seed:7) then
          failwith "bench_writegather: read-back mismatch";
        let trans = d1.Nfsg_disk.Device.transactions - d0.Nfsg_disk.Device.transactions in
        let lat =
          match Metrics.find_histogram m ~ns:Names.Ns.nfs_client (Names.lat_us "WRITE") with
          | Some h ->
              Json.Obj
                [
                  ("mean_us", Json.Float (Histogram.mean h));
                  ("p50_us", Json.Float (Histogram.median h));
                  ("p99_us", Json.Float (Histogram.p99 h));
                ]
          | None -> Json.Null
        in
        let batch =
          match Metrics.find_histogram m ~ns:Names.Ns.write_layer Names.batch_size with
          | Some h ->
              Json.Obj
                [
                  ( "mean",
                    Json.Float
                      (Write_layer.mean_batch_size (Server.write_layer rig.Rig.server)) );
                  ( "histogram",
                    Json.List
                      (List.map
                         (fun (lo, hi, n) ->
                           Json.List [ Json.Float lo; Json.Float hi; Json.Int n ])
                         (Histogram.buckets h)) );
                ]
          | None -> Json.Null
        in
        let saved = Metrics.count m ~ns:Names.Ns.write_layer Names.metadata_flushes_saved in
        Json.Obj
          [
            ("mode", Json.String mode);
            ("throughput_kb_s", Json.Float result.File_writer.kb_per_sec);
            ("cpu_pct", Json.Float window.Rig.cpu_pct);
            ("latency", lat);
            ( "disk",
              Json.Obj
                [
                  ("transactions", Json.Int trans);
                  ("kb_s", Json.Float window.Rig.disk_kb_s);
                  ( "ops_per_8k_write",
                    Json.Float (float_of_int trans /. float_of_int writes) );
                ] );
            ("metadata_flushes_saved", Json.Int saved);
            ("batch_size", batch);
          ])
  in
  Json.Obj
    [
      ("schema", Json.String "nfsgather-bench/1");
      ("bench", Json.String "writegather");
      ( "workload",
        Json.Obj
          [
            ("net", Json.String "fddi");
            ("biods", Json.Int bench_biods);
            ("total_bytes", Json.Int total);
            ("block_bytes", Json.Int 8192);
            ("writes", Json.Int writes);
          ] );
      ( "rows",
        Json.List
          [
            row ~mode:"standard" ~gathering:false ~accel:false;
            row ~mode:"gathering" ~gathering:true ~accel:false;
            row ~mode:"nvram" ~gathering:true ~accel:true;
          ] );
    ]
