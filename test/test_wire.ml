(* Wire bytes. Every v2/v3 call shape, MNT, and every result
   constructor is encoded through the entry points the client and server
   use -- Rpc_client.call_with writing the arguments straight into the
   call datagram, Svc.encode_reply (the server's reply funnel) writing
   the result straight into the reply datagram -- and must match, byte
   for byte, what the two-step encoders produced before the one-buffer
   path existed (digests recorded from them). So must every call encoded
   into a reused buffer, as a client encodes into a datagram an earlier
   call gave back. *)

open Nfsg_sim
module Proto = Nfsg_nfs.Proto
module Rpc = Nfsg_rpc.Rpc
module Rpc_client = Nfsg_rpc.Rpc_client
module Svc = Nfsg_rpc.Svc
module Xdr = Nfsg_rpc.Xdr
module Segment = Nfsg_net.Segment
module Socket = Nfsg_net.Socket

let dir = { Proto.fsid = 2; vgen = 3; inum = 2; gen = 1 }
let file = { Proto.fsid = 2; vgen = 3; inum = 41; gen = 6 }

(* An odd length, so every opaque carries padding. *)
let data = Xdr.view_of_bytes (Bytes.init 513 (fun i -> Char.chr (i land 0xff)))
let block = Bytes.init 8192 (fun i -> Char.chr ((i * 7) land 0xff))

let sattr =
  { Proto.s_mode = 0o644; s_uid = 10; s_gid = 20; s_size = -1; s_atime = None;
    s_mtime = Some { Proto.sec = 1000; usec = 5 } }

(* The 18 v2/v3 call shapes, then an 8 KB WRITE. *)
let calls =
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
    Proto.Symlink { dir; name = "link"; target = "made"; sattr = Proto.sattr_none };
    Proto.Mkdir { dir; name = "sub"; sattr };
    Proto.Rmdir { dir; name = "absent" };
    Proto.Readdir { fh = dir; cookie = 0; count = 4096 };
    Proto.Statfs dir;
    Proto.Write3 { fh = file; offset = 0; stable = Proto.Unstable; data };
    Proto.Write3 { fh = file; offset = 1 lsl 33; stable = Proto.File_sync; data };
    Proto.Commit { fh = file; offset = 0; count = 0 };
    Proto.Write { fh = file; offset = 8192; data = Xdr.view_of_bytes block };
  ]

let attr =
  {
    Proto.ftype = Proto.NFREG; mode = 0o100644; nlink = 1; uid = 10; gid = 20; size = 123457;
    blocksize = 8192; rdev = 0; blocks = 248; fsid = 2; fileid = 41;
    atime = { Proto.sec = 1; usec = 2 }; mtime = { Proto.sec = 3; usec = 4 };
    ctime = { Proto.sec = 5; usec = 999_999 };
  }

(* Every result constructor, OK and error, then an 8 KB READ reply. *)
let results =
  [
    Proto.RNull;
    Proto.RAttr (Ok attr);
    Proto.RAttr (Error Proto.NFSERR_STALE);
    Proto.RDirop (Ok (file, attr));
    Proto.RDirop (Error Proto.NFSERR_NOENT);
    Proto.RRead (Ok (attr, Xdr.view_of_bytes (Bytes.of_string "hello")));
    Proto.RRead (Error Proto.NFSERR_IO);
    Proto.RStatus Proto.NFS_OK;
    Proto.RStatus Proto.NFSERR_NOTEMPTY;
    Proto.RReaddir (Ok ([ (".", 2); ("..", 2); ("file", 41) ], true));
    Proto.RReaddir (Error Proto.NFSERR_NOTDIR);
    Proto.RStatfs (Ok { Proto.tsize = 8192; bsize = 8192; blocks = 12000; bfree = 3456; bavail = 3455 });
    Proto.RStatfs (Error Proto.NFSERR_STALE);
    Proto.RReadlink (Ok "../target");
    Proto.RReadlink (Error Proto.NFSERR_IO);
    Proto.RWrite3 (Ok (attr, Proto.Unstable, 7));
    Proto.RWrite3 (Error Proto.NFSERR_ROFS);
    Proto.RCommit (Ok (attr, 7));
    Proto.RCommit (Error Proto.NFSERR_NOSPC);
    Proto.RRead (Ok (attr, Xdr.view_of_bytes block));
  ]

let mnt_results = [ Ok (dir, true); Error Proto.NFSERR_NOENT ]

(* (length, MD5) of each call datagram, xids 2, 3, ... in [calls] order
   and MNT last ... *)
let recorded_calls =
  [
    (40, "cbea7bacfb487bc16dc8dc6a2b58022c");
    (72, "0ef4772f695723f7ba4a24671a5a5cd8");
    (104, "ed8527b65a8b2bdcfbf55d3d26bb895e");
    (84, "8c8644027a729c589b49f18baff4f6f6");
    (72, "4e740644dcd28641269774479189d796");
    (84, "9fb0fdeee4d34aa4062a7be14fbfc59b");
    (604, "487b81665eb5f2c188e1c9024d4a4074");
    (112, "f9eaf333f9ed54b499c18c2d513fdcf0");
    (84, "617bb7a9490f521fd8b538f630eb9409");
    (128, "8e1c017e19fa276fc0c3c5cf746ab7c1");
    (120, "e3651530a83a59db8148694bbc366c22");
    (112, "eb3048e32a25f635037e2282486c9425");
    (84, "28643751785464634e26f2b103f80fbc");
    (80, "7df60014321bb9e0782a736b338648b1");
    (72, "c132a3d4493b7a73fba24f9c430de292");
    (608, "7960edf6cba9131fc59d2e1e4329564b");
    (608, "bccae195918aeea20787adc98c1002fb");
    (84, "2658e651670c3265edc246702b4f9db0");
    (8280, "4a334759a60cca15a7ba80ec4d92ef58");
    (52, "7116c96f870eca3677d170f9b9e6d4b3");
  ]

(* ... and of each reply datagram, xids 100, 101, ... in [results]
   order, then [mnt_results]. *)
let recorded_replies =
  [
    (24, "4145807366ea3b992884b71bbcf26970");
    (96, "fee81dc1c7095312e036b591ad6af8f3");
    (28, "9ef2b2b0d19532da98f000d3870870c8");
    (128, "c49eaef505be493d3e5567d70bd8d5c8");
    (28, "21670121b67780c740b504db89ae7197");
    (108, "2f2b87d6674977337dcb1ecfe6f03d41");
    (28, "eeca3fe4cf4e03cc2b3bf88f6319e7b6");
    (28, "e994406f59afd88f4fd2feebdca85799");
    (28, "cb2dfe725b88eeaa3e55755653e5f35a");
    (96, "7157b869bc599ac8e81ca59770e8462a");
    (28, "885c50cf38b337e0c8a35a749ecbe140");
    (48, "1961869f3111c72b4bdfd260382ac889");
    (28, "f139ad2e475e2c1f79d0a9e2885dfea1");
    (44, "a555fc96f74dd9a77b994c025e800477");
    (28, "83e42ea783a7978e1e79f78224c4dc66");
    (108, "077c342796800b469e0970db1098a887");
    (28, "dd8c08ce026c3a8090db0589789edfbc");
    (104, "c60ce0ccf6d5ced8e56d309a38ddd68a");
    (28, "b410888825ece0adfcd156959df1c325");
    (8292, "396ac69bb7a48ef47e882f2db41bff09");
    (64, "aef5e80e46f8c66706f726e51117afc3");
    (28, "4263235df325a2cfabe45e449bbb1598");
  ]

let fingerprint b = (Bytes.length b, Digest.to_hex (Digest.bytes b))
let fingerprints = Alcotest.(list (pair int string))

(* Run [f] as the only process of a fresh world of two stations; [f]
   gets the segment and returns once its traffic is done. *)
let in_world f =
  let eng = Engine.create () in
  let segment = Segment.create eng Segment.fddi in
  let result = ref None in
  Engine.spawn eng ~name:"caller" (fun () -> result := Some (f eng segment));
  Engine.run eng;
  match !result with Some v -> v | None -> Alcotest.fail "caller blocked"

let call_datagrams () =
  in_world (fun eng segment ->
      let server = Socket.create segment ~addr:"server" () in
      let seen = ref [] in
      (* A bare server that fingerprints each call as it arrives, since
         the client may reuse the datagram once it is answered, and
         acknowledges it. *)
      Engine.spawn eng ~name:"recorder" (fun () ->
          while true do
            let src, dgram = Socket.recv server in
            seen := fingerprint dgram :: !seen;
            let xid = (Rpc.decode_call dgram).Rpc.xid in
            Socket.send server ~dst:src
              (Rpc.encode_reply { Rpc.rxid = xid; stat = Rpc.Success; rbody = Xdr.empty_view })
          done);
      let rpc = Rpc_client.create eng ~sock:(Socket.create segment ~addr:"client" ()) ~server:"server" () in
      List.iter
        (fun args ->
          Rpc_client.call_with rpc ~proc:(Proto.proc_of_args args)
            (fun enc -> Proto.put_args enc args)
            (fun _ _ -> ()))
        calls;
      Rpc_client.call_with rpc ~prog:Rpc.mount_program ~proc:Proto.proc_mnt
        (fun enc -> Proto.put_mnt_args enc "/export1")
        (fun _ _ -> ());
      List.rev !seen)

let reply_datagrams () =
  in_world (fun eng segment ->
      let results = Array.of_list results and mnt_results = Array.of_list mnt_results in
      let svc = ref None in
      let put_result k enc =
        if k < Array.length results then Proto.put_res enc results.(k)
        else Proto.put_mnt_res enc mnt_results.(k - Array.length results)
      in
      svc :=
        Some
          (Svc.create eng ~sock:(Socket.create segment ~addr:"server" ()) ~nfsds:1
             ~dispatch:(fun tr call ->
               let svc = Option.get !svc in
               Svc.send_encoded svc tr (Svc.encode_reply svc tr Rpc.Success (put_result (call.Rpc.xid - 100)));
               Svc.Reply_pending)
             ());
      let client = Socket.create segment ~addr:"client" () in
      List.init
        (Array.length results + Array.length mnt_results)
        (fun k ->
          Socket.send client ~dst:"server"
            (Rpc.encode_call
               { Rpc.xid = 100 + k; prog = Rpc.nfs_program; vers = Rpc.nfs_version; proc = 0; body = Xdr.empty_view });
          snd (Socket.recv client)))

(* Each call as the client encodes it, xids 2, 3, ... and MNT last,
   into buffers from [buffer]. *)
let encode_calls ~buffer =
  let call ~xid ~prog ~proc put =
    Rpc.encode_call_with ~buffer ~xid ~prog ~vers:Rpc.nfs_version ~proc put
  in
  List.mapi
    (fun i args ->
      call ~xid:(2 + i) ~prog:Rpc.nfs_program ~proc:(Proto.proc_of_args args) (fun enc ->
          Proto.put_args enc args))
    calls
  @ [
      call ~xid:(2 + List.length calls) ~prog:Rpc.mount_program ~proc:Proto.proc_mnt (fun enc ->
          Proto.put_mnt_args enc "/export1");
    ]

let test_calls_match_recorded () =
  Alcotest.check fingerprints "client call datagrams" recorded_calls (call_datagrams ());
  (* A reused buffer still holds an earlier datagram's bytes; 0xFF
     stands for them. Every byte is written, padding included. *)
  Alcotest.check fingerprints "calls encoded into 0xFF-filled buffers" recorded_calls
    (List.map fingerprint (encode_calls ~buffer:(fun n -> Bytes.make n '\xff')));
  (* The two-step encoders (what a codec benchmark calls) agree. *)
  let two_step =
    List.mapi
      (fun i args ->
        Rpc.encode_call
          { Rpc.xid = 2 + i; prog = Rpc.nfs_program; vers = Rpc.nfs_version;
            proc = Proto.proc_of_args args; body = Xdr.view_of_bytes (Proto.encode_args args) })
      calls
  in
  Alcotest.check fingerprints "Rpc.encode_call over Proto.encode_args"
    (List.filteri (fun i _ -> i < List.length calls) recorded_calls)
    (List.map fingerprint two_step)

(* A datagram's length sets its wire time, so the encoder takes no
   buffer of another length. *)
let test_wrong_length_buffer_rejected () =
  List.iter
    (fun (what, slack) ->
      match encode_calls ~buffer:(fun n -> Bytes.create (n + slack)) with
      | _ -> Alcotest.failf "a buffer %s was taken" what
      | exception Invalid_argument _ -> ())
    [ ("4 bytes short", -4); ("4 bytes long", 4) ]

let test_replies_match_recorded () =
  Alcotest.check fingerprints "server reply datagrams" recorded_replies
    (List.map fingerprint (reply_datagrams ()));
  let two_step =
    List.mapi
      (fun k res ->
        Rpc.encode_reply
          { Rpc.rxid = 100 + k; stat = Rpc.Success; rbody = Xdr.view_of_bytes (Proto.encode_res res) })
      results
  in
  Alcotest.check fingerprints "Rpc.encode_reply over Proto.encode_res"
    (List.filteri (fun k _ -> k < List.length results) recorded_replies)
    (List.map fingerprint two_step)

(* One buffer: everything the encode allocates fits in the datagram's
   own words plus a little for closures, where copying the payload even
   once more would double it. *)
let check_one_buffer what ~len (dgram, words) =
  Alcotest.(check int) (what ^ ": datagram length") len (Bytes.length dgram);
  let own = float_of_int ((len / (Sys.word_size / 8)) + 2) in
  if words > own +. 64.0 then Alcotest.failf "%s: %.0f words allocated for a %d-byte datagram" what words len

let test_8k_messages_one_buffer () =
  let write = List.nth calls (List.length calls - 1) and read = List.nth results (List.length results - 1) in
  (* header 40, handle 32, three words, length 4, payload *)
  check_one_buffer "8 KB WRITE call" ~len:(40 + 32 + 12 + 4 + 8192)
    (Testbed.allocated (fun () ->
         Rpc.encode_call_with ~xid:9 ~prog:Rpc.nfs_program ~vers:Rpc.nfs_version ~proc:Proto.proc_write
           (fun enc -> Proto.put_args enc write)));
  (* header 24, status 4, attributes 68, length 4, payload *)
  check_one_buffer "8 KB READ reply" ~len:(24 + 4 + 68 + 4 + 8192)
    (Testbed.allocated (fun () ->
         Rpc.encode_reply_with ~xid:9 ~stat:Rpc.Success (fun enc -> Proto.put_res enc read)))

let suite =
  [
    Alcotest.test_case "call datagrams match the recorded bytes" `Quick test_calls_match_recorded;
    Alcotest.test_case "reply datagrams match the recorded bytes" `Quick test_replies_match_recorded;
    Alcotest.test_case "8 KB WRITE call and READ reply are one buffer" `Quick test_8k_messages_one_buffer;
    Alcotest.test_case "a buffer of the wrong length is refused" `Quick test_wrong_length_buffer_rejected;
  ]
