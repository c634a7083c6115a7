(* The simulator's own speed: wall-clock events/sec and allocation of
   one fixed world, and Bechamel microbenchmarks of the substrate
   primitives that speed rests on.

     dune exec bench/main.exe              both
     dune exec bench/main.exe -- simspeed  wall-clock events/sec of one world
     dune exec bench/main.exe -- micro     only the Bechamel microbenches

   Any other argument is a usage error. A table, figure or committed
   BENCH_*.json artifact is an nfsgather target: `dune exec nfsgather --
   table1`, `dune exec nfsgather -- raid`. *)

let progress fmt = Printf.eprintf (fmt ^^ "\n%!")

let banner title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* {1 Simulator speed}

   Wall-clock events/second over one fixed saturating LADDIS-style
   world — the macro number the engine/heap/XDR fast-path work moves,
   where the microbenches below isolate the primitives — and the words
   it allocates per event. Events/s varies from run to run; words per
   event repeat exactly on one compiler, so CI gates on both with the
   values recorded in bench/SIMSPEED_FLOOR: events/s may fall to half
   its floor, words/event may rise 25% over its recorded value. *)

(* Every word the program has allocated: all minor-heap words, those
   still in the minor heap included (the minor count of [Gc.counters]
   leaves them out), plus the blocks allocated straight into the major
   heap. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

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
  let accepted = [ "simspeed"; "micro" ] in
  (match List.filter (fun a -> not (List.mem a accepted)) args with
  | [] -> ()
  | unknown ->
      Printf.eprintf "main.exe: unknown argument %s\nusage: main.exe [%s]...\n"
        (String.concat ", " unknown) (String.concat "|" accepted);
      exit 2);
  let wanted name = args = [] || List.mem name args in
  if wanted "simspeed" then run_simspeed ();
  if wanted "micro" then run_micro ()
