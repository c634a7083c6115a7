open Nfsg_rpc

let test_int_roundtrips () =
  let buf =
    Xdr.Enc.encode (fun enc ->
        Xdr.Enc.uint32 enc 0;
        Xdr.Enc.uint32 enc 0xFFFFFFFF;
        Xdr.Enc.int32 enc (-5);
        Xdr.Enc.uint64 enc 123456789012345;
        Xdr.Enc.bool enc true;
        Xdr.Enc.bool enc false)
  in
  let dec = Xdr.Dec.of_bytes buf in
  Alcotest.(check int) "u32 min" 0 (Xdr.Dec.uint32 dec);
  Alcotest.(check int) "u32 max" 0xFFFFFFFF (Xdr.Dec.uint32 dec);
  Alcotest.(check int) "i32 negative" (-5) (Xdr.Dec.int32 dec);
  Alcotest.(check int) "u64" 123456789012345 (Xdr.Dec.uint64 dec);
  Alcotest.(check bool) "true" true (Xdr.Dec.bool dec);
  Alcotest.(check bool) "false" false (Xdr.Dec.bool dec);
  Alcotest.(check int) "fully consumed" 0 (Xdr.Dec.remaining dec)

let test_opaque_padding () =
  let buf = Xdr.Enc.encode (fun enc -> Xdr.Enc.opaque enc (Bytes.of_string "abcde")) in
  (* 4 length + 5 data + 3 pad *)
  Alcotest.(check int) "padded length" 12 (Bytes.length buf);
  let dec = Xdr.Dec.of_bytes buf in
  Alcotest.(check string) "roundtrip" "abcde" (Bytes.to_string (Xdr.Dec.opaque dec));
  Alcotest.(check int) "pad consumed" 0 (Xdr.Dec.remaining dec)

let test_string_roundtrip () =
  let buf =
    Xdr.Enc.encode (fun enc ->
        Xdr.Enc.string enc "";
        Xdr.Enc.string enc "hello world")
  in
  let dec = Xdr.Dec.of_bytes buf in
  Alcotest.(check string) "empty" "" (Xdr.Dec.string dec);
  Alcotest.(check string) "text" "hello world" (Xdr.Dec.string dec)

let test_truncation_raises () =
  let dec = Xdr.Dec.of_bytes (Bytes.make 2 'x') in
  (match Xdr.Dec.uint32 dec with
  | _ -> Alcotest.fail "expected Decode_error"
  | exception Xdr.Decode_error (Xdr.Truncated { what = "uint32"; need = 4; pos = 0; have = 2 }) -> ());
  (* A declared opaque length running past the end of the buffer is the
     same typed error, with the cursor past the length word. *)
  let buf =
    Xdr.Enc.encode (fun enc ->
        Xdr.Enc.uint32 enc 64;
        Xdr.Enc.raw enc (Bytes.make 10 'x'))
  in
  let dec = Xdr.Dec.of_bytes buf in
  match Xdr.Dec.opaque dec with
  | _ -> Alcotest.fail "expected Decode_error"
  | exception Xdr.Decode_error (Xdr.Truncated { what = "opaque"; need = 64; pos = 4; have = 14 }) -> ()

let test_uint32_range_checked () =
  Alcotest.check_raises "negative" (Invalid_argument "Xdr.uint32: -1") (fun () ->
      ignore (Xdr.Enc.encode (fun enc -> Xdr.Enc.uint32 enc (-1))))

let test_bad_bool () =
  let dec = Xdr.Dec.of_bytes (Xdr.Enc.encode (fun enc -> Xdr.Enc.uint32 enc 7)) in
  match Xdr.Dec.bool dec with
  | _ -> Alcotest.fail "expected Decode_error"
  | exception Xdr.Decode_error (Xdr.Malformed _) -> ()

(* The zero-copy contract: a decoded view aliases the datagram buffer,
   so reusing that buffer is visible through the view — bytes survive
   only where the caller explicitly copied them out. *)
let test_view_aliases_source () =
  let buf = Xdr.Enc.encode (fun enc -> Xdr.Enc.opaque enc (Bytes.of_string "payload!")) in
  let dec = Xdr.Dec.of_bytes buf in
  let v = Xdr.Dec.opaque_view dec in
  let copied = Xdr.view_copy v in
  Alcotest.(check string) "view reads payload" "payload!" (Xdr.view_to_string v);
  (* Reuse the backing buffer, as the socket layer reuses datagrams. *)
  Bytes.fill buf 0 (Bytes.length buf) 'Z';
  Alcotest.(check string) "view sees the reuse" "ZZZZZZZZ" (Xdr.view_to_string v);
  Alcotest.(check string) "explicit copy survives it" "payload!" (Bytes.to_string copied)

(* Decoding through a view window must stop at the window's end even
   when the backing buffer keeps going, and report positions relative
   to the window. *)
let test_view_decode_bounded () =
  let buf =
    Xdr.Enc.encode (fun enc ->
        Xdr.Enc.uint32 enc 7;
        Xdr.Enc.uint32 enc 9)
  in
  let dec = Xdr.Dec.of_view (Xdr.view_of_bytes ~pos:0 ~len:4 buf) in
  Alcotest.(check int) "word inside the window" 7 (Xdr.Dec.uint32 dec);
  (match Xdr.Dec.uint32 dec with
  | _ -> Alcotest.fail "expected Decode_error"
  | exception Xdr.Decode_error (Xdr.Truncated { what = "uint32"; need = 4; pos = 4; have = 4 }) -> ());
  (* A mid-buffer window reports window-relative positions too. *)
  let dec = Xdr.Dec.of_view (Xdr.view_of_bytes ~pos:4 ~len:4 buf) in
  Alcotest.(check int) "second word via offset window" 9 (Xdr.Dec.uint32 dec);
  Alcotest.(check int) "window fully consumed" 0 (Xdr.Dec.remaining dec)

let test_view_bounds_checked () =
  let buf = Bytes.make 8 'x' in
  Alcotest.check_raises "len past end"
    (Invalid_argument "Xdr.view_of_bytes: window [4,+8) outside 8-byte buffer") (fun () ->
      ignore (Xdr.view_of_bytes ~pos:4 ~len:8 buf))

let prop_opaque_roundtrip =
  QCheck.Test.make ~name:"opaque roundtrips arbitrary bytes" ~count:300 QCheck.string (fun s ->
      let dec = Xdr.Dec.of_bytes (Xdr.Enc.encode (fun enc -> Xdr.Enc.opaque enc (Bytes.of_string s))) in
      Bytes.to_string (Xdr.Dec.opaque dec) = s)

let prop_mixed_roundtrip =
  QCheck.Test.make ~name:"mixed field sequences roundtrip" ~count:200
    QCheck.(list (pair (int_bound 1000000) string))
    (fun items ->
      let buf =
        Xdr.Enc.encode (fun enc ->
            List.iter
              (fun (n, s) ->
                Xdr.Enc.uint32 enc n;
                Xdr.Enc.string enc s)
              items)
      in
      let dec = Xdr.Dec.of_bytes buf in
      List.for_all (fun (n, s) -> Xdr.Dec.uint32 dec = n && Xdr.Dec.string dec = s) items)

let suite =
  [
    Alcotest.test_case "integers roundtrip" `Quick test_int_roundtrips;
    Alcotest.test_case "opaque pads to 4 bytes" `Quick test_opaque_padding;
    Alcotest.test_case "strings roundtrip" `Quick test_string_roundtrip;
    Alcotest.test_case "truncated input raises" `Quick test_truncation_raises;
    Alcotest.test_case "uint32 range checked" `Quick test_uint32_range_checked;
    Alcotest.test_case "bad bool rejected" `Quick test_bad_bool;
    Alcotest.test_case "views alias their source buffer" `Quick test_view_aliases_source;
    Alcotest.test_case "view decoding stops at the window" `Quick test_view_decode_bounded;
    Alcotest.test_case "view construction bounds-checked" `Quick test_view_bounds_checked;
    QCheck_alcotest.to_alcotest prop_opaque_roundtrip;
    QCheck_alcotest.to_alcotest prop_mixed_roundtrip;
  ]
