(* Crash injection: the stable-storage invariant, tested at arbitrary
   moments mid-run.

   The invariant (DESIGN.md #1): any WRITE the client saw acknowledged
   before the crash must be readable after device recovery + remount.
   Unacknowledged writes may or may not survive — both are legal. *)

open Testbed
module Server = Nfsg_core.Server
module Write_layer = Nfsg_core.Write_layer
module Fs = Nfsg_ufs.Fs
module Engine = Nfsg_sim.Engine
module Time = Nfsg_sim.Time

let run_crash_scenario ~crash_ms ~config ~accel =
  let eng = Engine.create () in
  let segment = Segment.create eng Segment.fddi in
  let disk = Disk.create eng disk_geometry in
  let device = if accel then snd (Nvram.create eng disk) else disk in
  let server = Server.make eng ~segment ~addr:"server" ~device config in
  let sock = Socket.create segment ~addr:"client" () in
  let rpc = Rpc_client.create eng ~sock ~server:"server" () in
  let acked : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let crashed = ref false in
  let fh_ref = ref { Nfsg_nfs.Proto.fsid = 0; vgen = 0; inum = 0; gen = 0 } in
  Engine.spawn eng ~name:"setup" (fun () ->
      let client = Client.create eng ~rpc ~biods:0 () in
      let fh, _ = Client.create_file client (Server.root_fh server) "victim" in
      fh_ref := fh;
      for w = 0 to 7 do
        Engine.spawn eng ~name:(Printf.sprintf "writer%d" w) (fun () ->
            let rec go i =
              if (not !crashed) && i < 64 then begin
                let blk = (w * 64) + i in
                let seed = (blk * 131) + 7 in
                let data = Bytes.init 8192 (fun j -> Char.chr ((j + seed) mod 251)) in
                (match
                   Rpc_client.call rpc ~klass:Rpc_client.Heavy ~proc:Nfsg_nfs.Proto.proc_write
                     (Nfsg_nfs.Proto.encode_args
                        (Nfsg_nfs.Proto.Write { fh = !fh_ref; offset = blk * 8192; data = Nfsg_rpc.Xdr.view_of_bytes data }))
                 with
                | Nfsg_rpc.Rpc.Success, body -> (
                    match Nfsg_nfs.Proto.decode_res ~proc:Nfsg_nfs.Proto.proc_write body with
                    | Nfsg_nfs.Proto.RAttr (Ok _) when not !crashed ->
                        Hashtbl.replace acked blk seed
                    | _ -> ())
                | _ -> ()
                | exception _ -> ());
                go (i + 1)
              end
            in
            go 0)
      done);
  Engine.schedule eng ~after:(Time.of_ms_f crash_ms) (fun () ->
      crashed := true;
      Server.crash server);
  (* Writers stuck waiting for replies when the run ends are fine. *)
  Engine.run ~until:(Time.sec 30) eng;
  (* Recover and check every acknowledged block. *)
  device.Device.recover ();
  let fs = Fs.mount eng device in
  let failures = ref [] in
  Engine.spawn eng ~name:"checker" (fun () ->
      (match Fs.check fs with
      | Ok () -> ()
      | Error es ->
          Alcotest.failf "fsck after crash at %.1fms: %s" crash_ms (String.concat "; " es));
      let inode = Fs.lookup fs (Fs.root fs) "victim" in
      Hashtbl.iter
        (fun blk seed ->
          let back = Fs.read fs inode ~off:(blk * 8192) ~len:8192 in
          let expect = Bytes.init 8192 (fun j -> Char.chr ((j + seed) mod 251)) in
          if not (Bytes.equal back expect) then failures := blk :: !failures)
        acked);
  Engine.run ~until:(Time.sec 60) eng;
  (Hashtbl.length acked, !failures)

let check_scenario ?(allow_empty = false) ~crash_ms ~config ~accel name =
  let acked, failures = run_crash_scenario ~crash_ms ~config ~accel in
  if failures <> [] then
    Alcotest.failf "%s: %d of %d acknowledged blocks lost (e.g. block %d)" name
      (List.length failures) acked (List.hd failures);
  (* The named scenarios must have acknowledged something, or they test
     nothing; very early crash instants in the sweep legitimately may
     not (gathering holds the first replies for tens of ms). *)
  if acked = 0 && not allow_empty then
    Alcotest.failf "%s: no writes acknowledged before crash" name

let gathering = Server.default_config

let standard =
  { Server.default_config with Server.write_layer = Write_layer.standard }

let test_gathering_early () = check_scenario ~crash_ms:120.0 ~config:gathering ~accel:false "gathering@120ms"
let test_gathering_mid () = check_scenario ~crash_ms:333.0 ~config:gathering ~accel:false "gathering@333ms"
let test_gathering_late () = check_scenario ~crash_ms:1234.0 ~config:gathering ~accel:false "gathering@1234ms"
let test_standard_mid () = check_scenario ~crash_ms:333.0 ~config:standard ~accel:false "standard@333ms"
let test_presto_gathering () = check_scenario ~crash_ms:200.0 ~config:gathering ~accel:true "presto-gathering@200ms"
let test_presto_standard () = check_scenario ~crash_ms:200.0 ~config:standard ~accel:true "presto-standard@200ms"

(* Sweep many crash instants cheaply: a randomised robustness net. *)
let test_crash_sweep () =
  List.iter
    (fun ms ->
      check_scenario ~allow_empty:true ~crash_ms:ms ~config:gathering ~accel:false
        (Printf.sprintf "sweep@%.0fms" ms))
    [ 47.0; 91.0; 180.0; 277.0; 451.0; 702.0 ]

let suite =
  [
    Alcotest.test_case "gathering, crash early" `Quick test_gathering_early;
    Alcotest.test_case "gathering, crash mid-run" `Quick test_gathering_mid;
    Alcotest.test_case "gathering, crash late" `Quick test_gathering_late;
    Alcotest.test_case "standard, crash mid-run" `Quick test_standard_mid;
    Alcotest.test_case "presto + gathering crash" `Quick test_presto_gathering;
    Alcotest.test_case "presto + standard crash" `Quick test_presto_standard;
    Alcotest.test_case "crash-instant sweep" `Slow test_crash_sweep;
  ]
