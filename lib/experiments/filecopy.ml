module Report = Nfsg_stats.Report
module Server = Nfsg_core.Server
module Write_layer = Nfsg_core.Write_layer
module File_writer = Nfsg_workload.File_writer

type cell = {
  client_kb_s : float;
  cpu_pct : float;
  disk_kb_s : float;
  disk_trans_s : float;
  mean_batch : float;
}

let run_cell ?env ~spec ~biods ?(total = Calib.file_size) () =
  (* Reclaim the previous cell's simulated world before allocating
     another set of 96 MB platters. *)
  Gc.full_major ();
  let rig = Rig.make ?env spec in
  Rig.run rig (fun () ->
      let client = Rig.new_client rig ~biods "client" in
      let result, window =
        Rig.measure rig (fun () ->
            File_writer.run rig.Rig.eng client ~dir:(Rig.root rig) ~name:"copy.dat" ~total ())
      in
      (* Fidelity check: the simulated stack must be carrying real
         bytes, not just timing. *)
      let fh, _ = Nfsg_nfs.Client.lookup client (Rig.root rig) "copy.dat" in
      if not (File_writer.verify client ~fh ~total ~seed:7) then
        failwith "filecopy: read-back mismatch";
      {
        client_kb_s = result.File_writer.kb_per_sec;
        cpu_pct = window.Rig.cpu_pct;
        disk_kb_s = window.Rig.disk_kb_s;
        disk_trans_s = window.Rig.disk_trans_s;
        mean_batch = Write_layer.mean_batch_size (Server.write_layer rig.Rig.server);
      })

let table ?env ~title ~net ~accel ~spindles ~biods ?total () =
  let columns = List.map string_of_int biods in
  let report = Report.create ~title ~columns in
  let section gathering label =
    Report.add_section report label;
    let cells =
      List.map
        (fun b ->
          let spec = { Rig.default_spec with Rig.net; accel; spindles; gathering } in
          run_cell ?env ~spec ~biods:b ?total ())
        biods
    in
    Report.add_row report "client write speed (KB/sec)" (List.map (fun c -> c.client_kb_s) cells);
    Report.add_row report "server cpu util. (%)" (List.map (fun c -> c.cpu_pct) cells);
    Report.add_row report "server disk (KB/sec)" (List.map (fun c -> c.disk_kb_s) cells);
    Report.add_row report "server disk (trans/sec)" (List.map (fun c -> c.disk_trans_s) cells);
    if gathering then
      Report.add_row report "writes per metadata update" (List.map (fun c -> c.mean_batch) cells)
  in
  section false "Without Write Gathering";
  section true "With Write Gathering";
  report
