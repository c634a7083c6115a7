(* Multi-volume exports, end to end: MOUNT by name, distinct fsids on
   the wire, fsid/vgen-routed dispatch with STALE for dead identities,
   per-volume metrics planes, cross-volume rename, LADDIS spreading,
   and the 3-volume independence/fault-isolation experiment. *)

open Nfsg_sim
module Segment = Nfsg_net.Segment
module Socket = Nfsg_net.Socket
module Disk = Nfsg_disk.Disk
module Device = Nfsg_disk.Device
module Server = Nfsg_core.Server
module Volume = Nfsg_core.Volume
module Client = Nfsg_nfs.Client
module Proto = Nfsg_nfs.Proto
module Rpc_client = Nfsg_rpc.Rpc_client
module Metrics = Nfsg_stats.Metrics
module Names = Nfsg_stats.Names
module Histogram = Nfsg_stats.Histogram
module Laddis = Nfsg_workload.Laddis
module Multivolume = Nfsg_experiments.Multivolume

type world = {
  eng : Engine.t;
  segment : Segment.t;
  devices : Device.t array;
  server : Server.t;
  metrics : Metrics.t;
  client : Client.t;
}

let specs_over devices =
  Array.to_list (Array.mapi (fun v d -> Volume.spec (Printf.sprintf "/export%d" v) d) devices)

let make_world ?(vols = 2) ?(config = Server.default_config) () =
  let eng = Engine.create () in
  let metrics = Metrics.create () in
  let segment = Segment.create eng ~metrics Segment.fddi in
  let devices =
    Array.init vols (fun v ->
        Disk.create eng ~name:(Printf.sprintf "vol%d-rz26" (v + 1)) ~metrics Testbed.disk_geometry)
  in
  let server = Server.make_exports eng ~segment ~addr:"server" ~metrics config (specs_over devices) in
  let sock = Socket.create segment ~addr:"client" () in
  let rpc = Rpc_client.create eng ~sock ~server:"server" () in
  let client = Client.create eng ~rpc ~biods:4 () in
  { eng; segment; devices; server; metrics; client }

let run w f =
  let result = ref None in
  Engine.spawn w.eng ~name:"driver" (fun () -> result := Some (f ()));
  Engine.run w.eng;
  match !result with Some v -> v | None -> Alcotest.fail "driver process blocked forever"

(* 16 sequential 8K blocks through the 4-biod write-behind cache: the
   concurrency that lets the server gather. *)
let write_one w root name =
  let fh, _ = Client.create_file w.client root name in
  let f = Client.open_file w.client fh in
  for b = 0 to 15 do
    Client.write f ~off:(b * 8192) (Bytes.make 8192 'x')
  done;
  Client.close f;
  fh

(* {1 MOUNT + fsids on the wire} *)

let test_mount_and_distinct_fsids () =
  let w = make_world ~vols:2 () in
  run w (fun () ->
      let r0 = Client.mount w.client "/export0" in
      let r1 = Client.mount w.client "/export1" in
      Alcotest.(check (list (pair string int)))
        "mount agrees with the export table"
        (List.map (fun (n, (fh : Proto.fh)) -> (n, fh.Proto.fsid)) (Server.exports w.server))
        [ ("/export0", r0.Proto.fsid); ("/export1", r1.Proto.fsid) ];
      (* Satellite: fattr.fsid must come from the volume, not a
         constant — two exports report distinct fsids over the wire,
         matching the filehandles. *)
      let a0 = Client.getattr w.client r0 and a1 = Client.getattr w.client r1 in
      Alcotest.(check int) "vol1 fattr fsid" r0.Proto.fsid a0.Proto.fsid;
      Alcotest.(check int) "vol2 fattr fsid" r1.Proto.fsid a1.Proto.fsid;
      Alcotest.(check bool) "distinct on the wire" true (a0.Proto.fsid <> a1.Proto.fsid);
      match Client.mount w.client "/nonesuch" with
      | _ -> Alcotest.fail "expected NOENT for unknown export"
      | exception Client.Error Proto.NFSERR_NOENT -> ())

(* {1 STALE routing} *)

let test_unknown_fsid_is_stale () =
  let w = make_world ~vols:2 () in
  run w (fun () ->
      let r0 = Client.mount w.client "/export0" in
      (match Client.getattr w.client { r0 with Proto.fsid = 99 } with
      | _ -> Alcotest.fail "expected STALE for unknown fsid"
      | exception Client.Error Proto.NFSERR_STALE -> ());
      match Client.getattr w.client { r0 with Proto.vgen = r0.Proto.vgen + 1 } with
      | _ -> Alcotest.fail "expected STALE for wrong volume generation"
      | exception Client.Error Proto.NFSERR_STALE -> ())

(* The dispatch contract, procedure by procedure, for both dialects: a
   handle naming no live file (an unknown fsid, or a dead inode on a
   live volume) earns NFSERR_STALE in that procedure's own result shape;
   every call counts once under server/ops_<PROC>; the volume's own
   counter moves only when routing reached a live vnode. NULL carries
   no handle and is served by the first export. *)
let test_every_procedure_routes_alike () =
  let w = make_world ~vols:2 () in
  let sock = Socket.create w.segment ~addr:"prober" () in
  let rpc = Rpc_client.create w.eng ~sock ~server:"server" () in
  let count ns proc =
    Option.value ~default:0 (Metrics.find_counter w.metrics ~ns (Names.ops (Proto.proc_name proc)))
  in
  let data = Nfsg_rpc.Xdr.view_of_bytes (Bytes.make 512 'p') in
  let sattr = Proto.sattr_none in
  let procedures ~dir ~file =
    [
      Proto.Null;
      Proto.Getattr file;
      Proto.Setattr (file, sattr);
      Proto.Lookup (dir, "absent");
      Proto.Readlink file;
      Proto.Read { fh = file; offset = 0; count = 512 };
      Proto.Write { fh = file; offset = 0; data };
      Proto.Create { dir; name = "made"; sattr };
      Proto.Remove { dir; name = "absent" };
      Proto.Rename { from_dir = dir; from_name = "absent"; to_dir = dir; to_name = "moved" };
      Proto.Symlink { dir; name = "link"; target = "made"; sattr };
      Proto.Mkdir { dir; name = "sub"; sattr };
      Proto.Rmdir { dir; name = "absent" };
      Proto.Readdir { fh = dir; cookie = 0; count = 4096 };
      Proto.Statfs dir;
      Proto.Write3 { fh = file; offset = 0; stable = Proto.Unstable; data };
      Proto.Write3 { fh = file; offset = 512; stable = Proto.File_sync; data };
      Proto.Commit { fh = file; offset = 0; count = 0 };
    ]
  in
  run w (fun () ->
      let root = Client.mount w.client "/export1" in
      let file, _ = Client.create_file w.client root "file" in
      let check_call ~routed args =
        let proc = Proto.proc_of_args args in
        let name = Proto.proc_name proc in
        let vol_ns = Names.Ns.server_vol (if proc = Proto.proc_null then 1 else root.Proto.fsid) in
        let ops0 = count Names.Ns.server proc and vol0 = count vol_ns proc in
        let res =
          match Rpc_client.call rpc ~proc (Proto.encode_args args) with
          | Nfsg_rpc.Rpc.Success, body -> Proto.decode_res ~proc body
          | _ -> Alcotest.failf "%s: not an RPC success" name
        in
        let routed = routed || proc = Proto.proc_null in
        if not routed then
          Alcotest.(check bool) (name ^ ": STALE in its own shape") true
            (res = Proto.error_res ~proc Proto.NFSERR_STALE);
        Alcotest.(check int) (name ^ ": counted once") 1 (count Names.Ns.server proc - ops0);
        Alcotest.(check int)
          (name ^ ": volume counts it iff routed")
          (if routed then 1 else 0)
          (count vol_ns proc - vol0)
      in
      List.iter
        (fun dead -> List.iter (check_call ~routed:false) (procedures ~dir:dead ~file:dead))
        [ { root with Proto.fsid = 99 }; { root with Proto.inum = 4000; gen = 77 } ];
      List.iter (check_call ~routed:true) (procedures ~dir:root ~file))

let test_reboot_keeps_handles_reformat_stales_them () =
  let w = make_world ~vols:2 () in
  run w (fun () ->
      let r1 = Client.mount w.client "/export1" in
      let fh = write_one w r1 "precious" in
      (* Power-fail + reboot: volume generations are preserved, so the
         client's handle rides through. *)
      Server.crash w.server;
      let server2 = Server.restart w.server in
      let a = Client.getattr w.client fh in
      Alcotest.(check int) "handle survives reboot" (16 * 8192) a.Proto.size;
      (* Reformat: a fresh export table over the same platters draws
         new volume generations — every pre-format handle is dead. *)
      Server.crash server2;
      let server3 =
        Server.make_exports w.eng ~segment:w.segment ~addr:"server" Server.default_config
          (specs_over w.devices)
      in
      (match Client.getattr w.client fh with
      | _ -> Alcotest.fail "expected STALE after reformat"
      | exception Client.Error Proto.NFSERR_STALE -> ());
      (* ... and the new incarnation hands out live roots. *)
      let r1' = Client.mount w.client "/export1" in
      Alcotest.(check int) "same fsid" fh.Proto.fsid r1'.Proto.fsid;
      Alcotest.(check bool) "new generation" true (r1'.Proto.vgen <> fh.Proto.vgen);
      ignore (Client.getattr w.client r1');
      ignore server3)

(* {1 Cross-volume rename} *)

let test_cross_volume_rename_is_xdev () =
  let w = make_world ~vols:2 () in
  run w (fun () ->
      let r0 = Client.mount w.client "/export0" in
      let r1 = Client.mount w.client "/export1" in
      ignore (Client.create_file w.client r0 "m");
      match
        Client.rename w.client ~from_dir:r0 ~from_name:"m" ~to_dir:r1 ~to_name:"m"
      with
      | _ -> Alcotest.fail "expected XDEV for cross-volume rename"
      | exception Client.Error Proto.NFSERR_XDEV -> ())

(* {1 Per-volume metrics planes} *)

let test_per_volume_metrics_never_mix () =
  let w = make_world ~vols:3 () in
  run w (fun () ->
      let roots = List.map snd (Server.exports w.server) in
      (* Load volumes 1 and 2; volume 3 stays idle. *)
      List.iteri
        (fun i root -> if i < 2 then ignore (write_one w root "f"))
        roots);
  let m = w.metrics in
  let batches k =
    match Metrics.find_histogram m ~ns:(Printf.sprintf "write_layer.vol%d" k) "batch_size" with
    | Some h -> Histogram.count h
    | None -> 0
  in
  let saved k =
    Option.value ~default:0
      (Metrics.find_counter m ~ns:(Printf.sprintf "write_layer.vol%d" k) "metadata_flushes_saved")
  in
  let writes k =
    Option.value ~default:0
      (Metrics.find_counter m ~ns:(Printf.sprintf "server.vol%d" k) "ops_WRITE")
  in
  Alcotest.(check bool) "vol1 gathers" true (batches 1 > 0);
  Alcotest.(check bool) "vol2 gathers" true (batches 2 > 0);
  Alcotest.(check bool) "vol1 saves metadata flushes" true (saved 1 > 0);
  Alcotest.(check bool) "vol2 saves metadata flushes" true (saved 2 > 0);
  Alcotest.(check int) "vol1 counts its WRITEs" 16 (writes 1);
  Alcotest.(check int) "vol2 counts its WRITEs" 16 (writes 2);
  (* The idle volume's plane stays empty: nothing leaked across. *)
  Alcotest.(check int) "idle vol3 has no batches" 0 (batches 3);
  Alcotest.(check int) "idle vol3 saved nothing" 0 (saved 3);
  Alcotest.(check int) "idle vol3 served no WRITEs" 0 (writes 3);
  (* No plain shared namespace on a multi-volume server. *)
  Alcotest.(check bool) "no shared write_layer namespace" true
    (Metrics.find_histogram m ~ns:"write_layer" "batch_size" = None)

let metrics_bytes () =
  let w = make_world ~vols:2 () in
  run w (fun () ->
      List.iteri
        (fun i root -> ignore (write_one w root (Printf.sprintf "f%d" i)))
        (List.map snd (Server.exports w.server)));
  Metrics.to_string ~pretty:true w.metrics

let test_metrics_json_deterministic () =
  (* Volume generations are process-global and differ between the two
     worlds; they must never reach the registry, so the serialized
     documents are byte-identical. *)
  Alcotest.(check string) "metrics JSON byte-identical across worlds" (metrics_bytes ())
    (metrics_bytes ())

(* {1 LADDIS spreading} *)

let test_export_assignment_distribution () =
  Alcotest.(check (list int)) "round-robin order" [ 0; 1; 2; 0; 1; 2; 0 ]
    (Laddis.export_assignment ~procs:7 ~exports:3);
  let counts = Array.make 3 0 in
  List.iter (fun e -> counts.(e) <- counts.(e) + 1) (Laddis.export_assignment ~procs:11 ~exports:3);
  Array.iter
    (fun c -> Alcotest.(check bool) "within one of fair share" true (abs (c - (11 / 3)) <= 1))
    counts;
  Alcotest.(check (list int)) "single export degenerates" [ 0; 0; 0 ]
    (Laddis.export_assignment ~procs:3 ~exports:1);
  (try
     ignore (Laddis.export_assignment ~procs:2 ~exports:0);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  try
    ignore (Laddis.export_assignment ~procs:(-1) ~exports:2);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* {1 The 3-volume experiment: independence and fault isolation} *)

let test_multivolume_experiment () =
  let r = Multivolume.run () in
  (* Independence: every volume's gather plane formed its own batches
     and banked its own metadata-flush savings. *)
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "%s formed gather batches" v.Multivolume.export)
        true (v.Multivolume.batches > 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s saved metadata flushes" v.Multivolume.export)
        true (v.Multivolume.flushes_saved > 0))
    r.Multivolume.clean.Multivolume.vols;
  (* The fault window really fired on volume 1's spindle. *)
  Alcotest.(check bool) "errors were injected" true (r.Multivolume.errors_injected > 0);
  (* Isolation: volumes 2 and 3 reply to WRITEs at their fault-free
     latency while volume 1's disk is failing. *)
  List.iter2
    (fun clean faulted ->
      if clean.Multivolume.fsid > 1 then begin
        let limit = (clean.Multivolume.write_mean_us *. 1.25) +. 2000.0 in
        if faulted.Multivolume.write_mean_us > limit then
          Alcotest.failf "volume %d slowed by volume 1's fault: %.0fus clean, %.0fus faulted"
            clean.Multivolume.fsid clean.Multivolume.write_mean_us
            faulted.Multivolume.write_mean_us
      end)
    r.Multivolume.clean.Multivolume.vols r.Multivolume.faulted.Multivolume.vols

let suite =
  [
    Alcotest.test_case "MOUNT by name; distinct fsids on the wire" `Quick
      test_mount_and_distinct_fsids;
    Alcotest.test_case "unknown fsid or generation earns STALE" `Quick test_unknown_fsid_is_stale;
    Alcotest.test_case "reboot keeps handles; reformat stales them" `Quick
      test_reboot_keeps_handles_reformat_stales_them;
    Alcotest.test_case "cross-volume rename earns XDEV" `Quick test_cross_volume_rename_is_xdev;
    Alcotest.test_case "per-volume metrics planes never mix" `Quick
      test_per_volume_metrics_never_mix;
    Alcotest.test_case "metrics JSON is byte-deterministic" `Quick test_metrics_json_deterministic;
    Alcotest.test_case "LADDIS export assignment is round-robin" `Quick
      test_export_assignment_distribution;
    Alcotest.test_case "3 volumes: independent gathering, isolated faults" `Slow
      test_multivolume_experiment;
    Alcotest.test_case "every procedure routes alike" `Quick test_every_procedure_routes_alike;
  ]
