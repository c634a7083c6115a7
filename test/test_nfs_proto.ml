open Nfsg_nfs
module Xdr = Nfsg_rpc.Xdr

let fh inum gen = { Proto.fsid = 1; vgen = 1; inum; gen }

let roundtrip_args args =
  let proc = Proto.proc_of_args args in
  Proto.decode_args ~proc (Xdr.view_of_bytes (Proto.encode_args args))

(* WRITE data is a view after decoding, so structural equality on the
   args would compare backing buffers; re-encoding instead compares
   the wire form, which is what a roundtrip means. *)
let args_eq a b = Proto.encode_args a = Proto.encode_args b

let test_args_roundtrip () =
  let cases =
    [
      Proto.Null;
      Proto.Getattr (fh 3 1);
      Proto.Setattr (fh 4 2, Proto.sattr_truncate 0);
      Proto.Lookup (fh 1 1, "etc");
      Proto.Read { fh = fh 9 1; offset = 16384; count = 8192 };
      Proto.Write { fh = fh 9 1; offset = 8192; data = Xdr.view_of_bytes (Bytes.make 100 'w') };
      Proto.Create { dir = fh 1 1; name = "new.txt"; sattr = Proto.sattr_none };
      Proto.Remove { dir = fh 1 1; name = "old" };
      Proto.Rename { from_dir = fh 1 1; from_name = "a"; to_dir = fh 2 1; to_name = "b" };
      Proto.Mkdir { dir = fh 1 1; name = "subdir"; sattr = Proto.sattr_none };
      Proto.Rmdir { dir = fh 1 1; name = "subdir" };
      Proto.Readdir { fh = fh 1 1; cookie = 0; count = 4096 };
      Proto.Statfs (fh 1 1);
    ]
  in
  List.iter (fun args -> Alcotest.(check bool) "roundtrip" true (args_eq (roundtrip_args args) args)) cases

let sample_fattr =
  {
    Proto.ftype = Proto.NFREG;
    mode = 0o644;
    nlink = 1;
    uid = 0;
    gid = 0;
    size = 123456;
    blocksize = 8192;
    rdev = 0;
    blocks = 16;
    fsid = 1;
    fileid = 42;
    atime = { Proto.sec = 10; usec = 500 };
    mtime = { Proto.sec = 11; usec = 600 };
    ctime = { Proto.sec = 12; usec = 700 };
  }

let roundtrip_res ~proc res = Proto.decode_res ~proc (Xdr.view_of_bytes (Proto.encode_res res))

let test_res_roundtrip () =
  let checks =
    [
      (Proto.proc_getattr, Proto.RAttr (Ok sample_fattr));
      (Proto.proc_write, Proto.RAttr (Error Proto.NFSERR_NOSPC));
      (Proto.proc_lookup, Proto.RDirop (Ok (fh 7 3, sample_fattr)));
      (Proto.proc_create, Proto.RDirop (Error Proto.NFSERR_EXIST));
      (Proto.proc_read, Proto.RRead (Ok (sample_fattr, Xdr.view_of_bytes (Bytes.of_string "file contents"))));
      (Proto.proc_remove, Proto.RStatus Proto.NFS_OK);
      (Proto.proc_rename, Proto.RStatus Proto.NFSERR_STALE);
      (Proto.proc_readdir, Proto.RReaddir (Ok ([ ("a", 2); ("bb", 3) ], true)));
      ( Proto.proc_statfs,
        Proto.RStatfs (Ok { Proto.tsize = 8192; bsize = 8192; blocks = 100; bfree = 50; bavail = 50 })
      );
    ]
  in
  (* A READ's data decodes to a window into the reply: equal by
     content. *)
  let same a b =
    match (a, b) with
    | Proto.RRead (Ok (fa, va)), Proto.RRead (Ok (fb, vb)) -> fa = fb && Xdr.view_equal va vb
    | _ -> a = b
  in
  List.iter
    (fun (proc, res) -> Alcotest.(check bool) (Proto.proc_name proc) true (same (roundtrip_res ~proc res) res))
    checks

(* Each row's facts: its number and name (RFC 1094, plus v3 WRITE and
   COMMIT), whether a read-only export refuses it, and the client's
   timer class (writes heavy, reads and directory changes middle, the
   rest light). *)
let test_table_facts () =
  let names keep = List.filter_map (fun p -> if keep p then Some p.Proto.name else None) Proto.procs in
  let sorted = List.sort compare in
  Alcotest.(check (list (pair int string))) "numbers and names"
    [
      (0, "NULL"); (1, "GETATTR"); (2, "SETATTR"); (4, "LOOKUP"); (5, "READLINK"); (6, "READ");
      (7, "WRITE3"); (8, "WRITE"); (9, "CREATE"); (10, "REMOVE"); (11, "RENAME"); (13, "SYMLINK");
      (14, "MKDIR"); (15, "RMDIR"); (16, "READDIR"); (17, "STATFS"); (21, "COMMIT");
    ]
    (List.filter_map
       (fun n -> Option.map (fun p -> (n, Proto.proc_name p.Proto.num)) (Proto.find_proc n))
       (List.init Proto.proc_limit Fun.id));
  Alcotest.(check string) "a number without a row" "PROC3" (Proto.proc_name 3);
  Alcotest.(check (list string)) "refused read-only"
    (sorted [ "SETATTR"; "WRITE"; "CREATE"; "REMOVE"; "RENAME"; "SYMLINK"; "MKDIR"; "RMDIR"; "WRITE3"; "COMMIT" ])
    (sorted (names (fun p -> Proto.mutates p.Proto.num)));
  let klass k = sorted (names (fun p -> Proto.op_class p.Proto.num = k)) in
  Alcotest.(check (list string)) "heavy" (sorted [ "WRITE"; "WRITE3"; "COMMIT" ]) (klass Nfsg_rpc.Rpc_client.Heavy);
  Alcotest.(check (list string)) "middle"
    (sorted [ "READ"; "CREATE"; "REMOVE"; "RENAME"; "SYMLINK"; "MKDIR"; "RMDIR" ])
    (klass Nfsg_rpc.Rpc_client.Middle)

(* Arguments no server can act on do not decode: a file name that is
   empty or past RFC 1094's 255 bytes, and a time whose microseconds
   make a second or more. *)
let test_bad_names_and_times_do_not_decode () =
  let decodes args = match roundtrip_args args with _ -> true | exception Xdr.Decode_error _ -> false in
  let dir = fh 1 1 and sattr = Proto.sattr_none in
  Alcotest.(check bool) "empty name" false (decodes (Proto.Lookup (dir, "")));
  Alcotest.(check bool) "256 bytes" false (decodes (Proto.Create { dir; name = String.make 256 'n'; sattr }));
  Alcotest.(check bool) "255 bytes" true (decodes (Proto.Mkdir { dir; name = String.make 255 'n'; sattr }));
  Alcotest.(check bool) "empty target name" false
    (decodes (Proto.Rename { from_dir = dir; from_name = "a"; to_dir = dir; to_name = "" }));
  let mtime usec = Proto.Setattr (dir, { sattr with Proto.s_mtime = Some { Proto.sec = 1; usec } }) in
  Alcotest.(check bool) "a second of microseconds" false (decodes (mtime 1_000_000));
  Alcotest.(check bool) "under a second" true (decodes (mtime 999_999));
  Alcotest.(check bool) "times not set" true (decodes (Proto.Setattr (dir, sattr)))

let test_status_codes_stable () =
  (* Wire numbers straight from RFC 1094. *)
  Alcotest.(check int) "NFS_OK" 0 (Proto.status_to_int Proto.NFS_OK);
  Alcotest.(check int) "NOENT" 2 (Proto.status_to_int Proto.NFSERR_NOENT);
  Alcotest.(check int) "NOSPC" 28 (Proto.status_to_int Proto.NFSERR_NOSPC);
  Alcotest.(check int) "STALE" 70 (Proto.status_to_int Proto.NFSERR_STALE);
  List.iter
    (fun st -> Alcotest.(check bool) "involutive" true (Proto.status_of_int (Proto.status_to_int st) = st))
    [
      Proto.NFS_OK;
      Proto.NFSERR_PERM;
      Proto.NFSERR_NOENT;
      Proto.NFSERR_IO;
      Proto.NFSERR_EXIST;
      Proto.NFSERR_NOTDIR;
      Proto.NFSERR_ISDIR;
      Proto.NFSERR_FBIG;
      Proto.NFSERR_NOSPC;
      Proto.NFSERR_NOTEMPTY;
      Proto.NFSERR_STALE;
      Proto.NFSERR_XDEV;
    ]

let test_timeval_conversion () =
  let ns = 1_234_567_891_234 in
  let tv = Proto.timeval_of_ns ns in
  Alcotest.(check int) "sec" 1234 tv.Proto.sec;
  Alcotest.(check int) "usec" 567891 tv.Proto.usec;
  (* ns -> timeval truncates below microseconds. *)
  Alcotest.(check int) "roundtrip at us precision" 1_234_567_891_000 (Proto.ns_of_timeval tv)

let test_peek_write () =
  let args = Proto.Write { fh = fh 55 9; offset = 24576; data = Xdr.view_of_bytes (Bytes.make 8192 'd') } in
  let call =
    Nfsg_rpc.Rpc.encode_call
      {
        Nfsg_rpc.Rpc.xid = 77;
        prog = Nfsg_rpc.Rpc.nfs_program;
        vers = 2;
        proc = Proto.proc_write;
        body = Xdr.view_of_bytes (Proto.encode_args args);
      }
  in
  (match Proto.peek_write call with
  | Some (f, off, len) ->
      Alcotest.(check int) "inum" 55 f.Proto.inum;
      Alcotest.(check int) "offset" 24576 off;
      Alcotest.(check int) "len" 8192 len
  | None -> Alcotest.fail "peek_write missed a WRITE");
  (* A READ call must not match. *)
  let read_call =
    Nfsg_rpc.Rpc.encode_call
      {
        Nfsg_rpc.Rpc.xid = 78;
        prog = Nfsg_rpc.Rpc.nfs_program;
        vers = 2;
        proc = Proto.proc_read;
        body = Xdr.view_of_bytes (Proto.encode_args (Proto.Read { fh = fh 55 9; offset = 0; count = 100 }));
      }
  in
  Alcotest.(check bool) "read ignored" true (Proto.peek_write read_call = None);
  Alcotest.(check bool) "garbage ignored" true (Proto.peek_write (Bytes.make 3 'x') = None)

let prop_write_args_roundtrip =
  QCheck.Test.make ~name:"WRITE args roundtrip any payload" ~count:100
    QCheck.(pair (int_bound 1_000_000) string)
    (fun (offset, s) ->
      let args = Proto.Write { fh = fh 3 1; offset; data = Xdr.view_of_bytes (Bytes.of_string s) } in
      args_eq (roundtrip_args args) args
      &&
      match roundtrip_args args with
      | Proto.Write { data; _ } -> Xdr.view_to_string data = s
      | _ -> false)

(* {1 Hostile bytes}

   Datagrams off the wire are untrusted. Random and mutated ones go
   through every decoder a server or client runs on them: only
   [Xdr.Decode_error] may escape, and a decoded WRITE or READ payload,
   a view, must lie inside the datagram it came in. *)

let hostile_data = Xdr.view_of_bytes (Bytes.init 601 (fun i -> Char.chr (i land 0xff)))

(* One call of every procedure in the table. *)
let hostile_calls =
  let data = hostile_data in
  let sattr = Proto.sattr_truncate 7 in
  [
    Proto.Null;
    Proto.Getattr (fh 3 1);
    Proto.Setattr (fh 4 2, sattr);
    Proto.Lookup (fh 1 1, "etc");
    Proto.Readlink (fh 5 1);
    Proto.Read { fh = fh 9 1; offset = 16384; count = 8192 };
    Proto.Write { fh = fh 9 1; offset = 8192; data };
    Proto.Create { dir = fh 1 1; name = "new.txt"; sattr };
    Proto.Remove { dir = fh 1 1; name = "old" };
    Proto.Rename { from_dir = fh 1 1; from_name = "a"; to_dir = fh 2 1; to_name = "b" };
    Proto.Mkdir { dir = fh 1 1; name = "sub"; sattr };
    Proto.Rmdir { dir = fh 1 1; name = "sub" };
    Proto.Readdir { fh = fh 1 1; cookie = 0; count = 4096 };
    Proto.Statfs (fh 1 1);
    Proto.Symlink { dir = fh 1 1; name = "l"; target = "t"; sattr };
    Proto.Write3 { fh = fh 9 1; offset = 1 lsl 33; stable = Proto.File_sync; data };
    Proto.Commit { fh = fh 9 1; offset = 0; count = 0 };
  ]

(* The procedures [calls] use, each once and by number, against the
   table's: a row without a call fails. *)
let covers_table calls =
  List.sort_uniq compare (List.map Proto.proc_of_args calls)
  = List.sort compare (List.map (fun p -> p.Proto.num) Proto.procs)

let test_hostile_seeds_cover_table () =
  Alcotest.(check bool) "a seed per procedure" true (covers_table hostile_calls)

let hostile_seeds =
  let data = hostile_data in
  let results =
    [
      Proto.RAttr (Ok sample_fattr);
      Proto.RDirop (Ok (fh 7 3, sample_fattr));
      Proto.RRead (Ok (sample_fattr, data));
      Proto.RReaddir (Ok ([ ("a", 2); ("bb", 3) ], true));
      Proto.RStatfs (Ok { Proto.tsize = 8192; bsize = 8192; blocks = 100; bfree = 50; bavail = 50 });
      Proto.RReadlink (Ok "target");
      Proto.RWrite3 (Ok (sample_fattr, Proto.Unstable, 7));
      Proto.RCommit (Ok (sample_fattr, 7));
    ]
  in
  List.map
    (fun args ->
      Nfsg_rpc.Rpc.encode_call_with ~xid:7 ~prog:Nfsg_rpc.Rpc.nfs_program ~vers:2
        ~proc:(Proto.proc_of_args args) (fun enc -> Proto.put_args enc args))
    hostile_calls
  @ List.map
      (fun res ->
        Nfsg_rpc.Rpc.encode_reply_with ~xid:7 ~stat:Nfsg_rpc.Rpc.Success (fun enc -> Proto.put_res enc res))
      results

type mutation =
  | Word of int * int  (** at a 4-byte-aligned fraction of the length, this 32-bit value *)
  | Byte of int * int
  | Truncate of int  (** keep this fraction (per mille) of the datagram *)

let apply_mutation dgram m =
  let n = Bytes.length dgram in
  match m with
  | Word (at, v) when n >= 4 ->
      let pos = at * (n - 4) / 1000 / 4 * 4 in
      let b = Bytes.copy dgram in
      Bytes.set_int32_be b pos (Int32.of_int v);
      b
  | Byte (at, v) when n >= 1 ->
      let b = Bytes.copy dgram in
      Bytes.set b (at * (n - 1) / 1000) (Char.chr v);
      b
  | Truncate keep -> Bytes.sub dgram 0 (keep * n / 1000)
  | Word _ | Byte _ -> dgram

let show_mutation = function
  | Word (at, v) -> Printf.sprintf "word %d/1000 := 0x%x" at v
  | Byte (at, v) -> Printf.sprintf "byte %d/1000 := %d" at v
  | Truncate keep -> Printf.sprintf "keep %d/1000" keep

let mutation =
  let open QCheck.Gen in
  let length_word = oneofl [ 0x7fffffff; 0xfffffff0; 0; 0xffffffff ] in
  frequency
    [
      (4, map2 (fun at v -> Word (at, v)) (int_bound 1000) (oneof [ length_word; int_bound 0xffffffff ]));
      (2, map2 (fun at v -> Byte (at, v)) (int_bound 1000) (int_bound 255));
      (2, map (fun keep -> Truncate keep) (int_bound 1000));
    ]

let prop_hostile_datagrams =
  let open QCheck.Gen in
  (* A datagram of random bytes, or a seed datagram (by index) with
     mutations applied in order. *)
  let case =
    frequency
      [
        (1, map (fun s -> `Random s) (string_size (0 -- 200)));
        ( 6,
          map2
            (fun seed ms -> `Mutated (seed, ms))
            (int_bound (List.length hostile_seeds - 1))
            (list_size (1 -- 3) mutation) );
      ]
  in
  let show = function
    | `Random s -> Printf.sprintf "random %S" s
    | `Mutated (seed, ms) ->
        Printf.sprintf "seed %d, %s" seed (String.concat ", " (List.map show_mutation ms))
  in
  let datagram = function
    | `Random s -> Bytes.of_string s
    | `Mutated (seed, ms) -> List.fold_left apply_mutation (List.nth hostile_seeds seed) ms
  in
  let arb = QCheck.make ~print:show case in
  QCheck.Test.make ~name:"hostile datagrams raise only Decode_error" ~count:1000 arb (fun case ->
      let dgram = datagram case in
      let inside what (v : Xdr.view) =
        if
          not
            (v.Xdr.view_buf == dgram && v.Xdr.view_pos >= 0 && v.Xdr.view_len >= 0
            && v.Xdr.view_pos + v.Xdr.view_len <= Bytes.length dgram)
        then QCheck.Test.fail_reportf "%s view [%d,+%d) outside the %d-byte datagram" what v.Xdr.view_pos
            v.Xdr.view_len (Bytes.length dgram)
      in
      let guarded f = match f () with () -> () | exception Xdr.Decode_error _ -> () in
      let procs = List.init 40 Fun.id in
      guarded (fun () ->
          let call = Nfsg_rpc.Rpc.decode_call dgram in
          inside "call body" call.Nfsg_rpc.Rpc.body;
          List.iter
            (fun proc ->
              guarded (fun () ->
                  match Proto.decode_args ~proc call.Nfsg_rpc.Rpc.body with
                  | Proto.Write { data; _ } | Proto.Write3 { data; _ } -> inside "WRITE data" data
                  | _ -> ()))
            procs);
      guarded (fun () ->
          let reply = Nfsg_rpc.Rpc.decode_reply dgram in
          inside "reply body" reply.Nfsg_rpc.Rpc.rbody;
          List.iter
            (fun proc ->
              guarded (fun () ->
                  match Proto.decode_res ~proc reply.Nfsg_rpc.Rpc.rbody with
                  | Proto.RRead (Ok (_, data)) -> inside "READ data" data
                  | _ -> ()))
            procs);
      guarded (fun () ->
          match Proto.peek_write dgram with
          | Some (_, _, len) when len > Bytes.length dgram ->
              QCheck.Test.fail_reportf "peek_write length %d past the datagram" len
          | Some _ | None -> ());
      true)

let suite =
  [
    Alcotest.test_case "all argument types roundtrip" `Quick test_args_roundtrip;
    Alcotest.test_case "all result types roundtrip" `Quick test_res_roundtrip;
    Alcotest.test_case "status codes match RFC 1094" `Quick test_status_codes_stable;
    Alcotest.test_case "timeval conversion" `Quick test_timeval_conversion;
    Alcotest.test_case "peek_write classifies datagrams" `Quick test_peek_write;
    QCheck_alcotest.to_alcotest prop_write_args_roundtrip;
    QCheck_alcotest.to_alcotest prop_hostile_datagrams;
    Alcotest.test_case "the table's facts" `Quick test_table_facts;
    Alcotest.test_case "bad names and times do not decode" `Quick test_bad_names_and_times_do_not_decode;
    Alcotest.test_case "hostile seeds cover the table" `Quick test_hostile_seeds_cover_table;
  ]
