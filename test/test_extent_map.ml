open Nfsg_disk

let bytes_of s = Bytes.of_string s

let read_back m ~off ~len =
  let buf = Bytes.make len '.' in
  Extent_map.apply m ~off buf;
  Bytes.to_string buf

(* Extents in the map. *)
let extent_count m =
  let n = ref 0 in
  Extent_map.iter (fun _ _ -> incr n) m;
  !n

let test_insert_and_apply () =
  let m = Extent_map.create () in
  Extent_map.insert m ~off:10 (bytes_of "hello");
  Alcotest.(check int) "total" 5 (Extent_map.total_bytes m);
  Alcotest.(check string) "overlay" "..hello..." (read_back m ~off:8 ~len:10)

let test_adjacent_coalesce () =
  let m = Extent_map.create () in
  Extent_map.insert m ~off:0 (bytes_of "aaaa");
  Extent_map.insert m ~off:4 (bytes_of "bbbb");
  Extent_map.insert m ~off:8 (bytes_of "cccc");
  Alcotest.(check int) "one extent" 1 (extent_count m);
  Alcotest.(check string) "contents" "aaaabbbbcccc" (read_back m ~off:0 ~len:12)

let test_overwrite_wins () =
  let m = Extent_map.create () in
  Extent_map.insert m ~off:0 (bytes_of "xxxxxxxx");
  Extent_map.insert m ~off:2 (bytes_of "NEW");
  Alcotest.(check string) "new over old" "xxNEWxxx" (read_back m ~off:0 ~len:8);
  Alcotest.(check int) "still one extent" 1 (extent_count m)

let test_gap_keeps_separate () =
  let m = Extent_map.create () in
  Extent_map.insert m ~off:0 (bytes_of "aa");
  Extent_map.insert m ~off:10 (bytes_of "bb");
  Alcotest.(check int) "two extents" 2 (extent_count m);
  Alcotest.(check int) "4 bytes" 4 (Extent_map.total_bytes m)

let test_bridge_merges () =
  let m = Extent_map.create () in
  Extent_map.insert m ~off:0 (bytes_of "aa");
  Extent_map.insert m ~off:4 (bytes_of "bb");
  Extent_map.insert m ~off:2 (bytes_of "XX");
  Alcotest.(check int) "bridged" 1 (extent_count m);
  Alcotest.(check string) "contents" "aaXXbb" (read_back m ~off:0 ~len:6)

let test_covers () =
  let m = Extent_map.create () in
  Extent_map.insert m ~off:100 (bytes_of (String.make 50 'z'));
  Alcotest.(check bool) "inner" true (Extent_map.covers m ~off:110 ~len:20);
  Alcotest.(check bool) "exact" true (Extent_map.covers m ~off:100 ~len:50);
  Alcotest.(check bool) "past end" false (Extent_map.covers m ~off:120 ~len:40);
  Alcotest.(check bool) "before" false (Extent_map.covers m ~off:90 ~len:20);
  Alcotest.(check bool) "empty range" true (Extent_map.covers m ~off:0 ~len:0)

let test_take_after_clips () =
  let m = Extent_map.create () in
  Extent_map.insert m ~off:20 (bytes_of "bbbb");
  Extent_map.insert m ~off:5 (bytes_of "aaaa");
  (match Extent_map.take_after m ~off:0 ~max:100 with
  | Some (5, d) -> Alcotest.(check string) "lowest first" "aaaa" (Bytes.to_string d)
  | _ -> Alcotest.fail "expected extent at 5");
  match Extent_map.take_after m ~off:0 ~max:2 with
  | Some (20, d) ->
      Alcotest.(check string) "clipped to max" "bb" (Bytes.to_string d);
      Alcotest.(check int) "remainder stays" 2 (Extent_map.total_bytes m);
      (match Extent_map.take_after m ~off:0 ~max:100 with
      | Some (22, d2) -> Alcotest.(check string) "tail" "bb" (Bytes.to_string d2)
      | _ -> Alcotest.fail "expected tail at 22")
  | _ -> Alcotest.fail "expected clipped extent at 20"

let test_remove_range_trims () =
  let m = Extent_map.create () in
  Extent_map.insert m ~off:0 (bytes_of "abcdefgh");
  Extent_map.remove_range m ~off:2 ~len:4;
  Alcotest.(check int) "two pieces" 2 (extent_count m);
  Alcotest.(check string) "prefix+suffix" "ab....gh" (read_back m ~off:0 ~len:8)

let test_sequential_8k_stream_coalesces () =
  (* The NVRAM flusher depends on this: 16 x 8K sequential writes must
     form one 128K extent. *)
  let m = Extent_map.create () in
  for i = 0 to 15 do
    Extent_map.insert m ~off:(i * 8192) (Bytes.make 8192 (Char.chr (65 + i)))
  done;
  Alcotest.(check int) "single extent" 1 (extent_count m);
  Alcotest.(check int) "128K" (128 * 1024) (Extent_map.total_bytes m)

(* A sequential stream costs what it writes: each insert copies its
   8 KB once and extends the extent by a slice. The bound is 2x the
   stream's bytes; this map allocates 1.05x as measured here, and one
   that copied the merged extent on every insert 64.5x. The least of
   three streams is taken (see [Testbed.allocated]). *)
let test_sequential_stream_allocates_its_bytes () =
  let total = 1024 * 1024 and bs = 8192 in
  let block = Bytes.make bs 's' in
  let stream () =
    let m = Extent_map.create () in
    for i = 0 to (total / bs) - 1 do
      Extent_map.insert m ~off:(i * bs) block
    done;
    m
  in
  let words =
    List.fold_left Float.min infinity (List.init 3 (fun _ -> snd (Testbed.allocated stream)))
  in
  let bytes_words = float_of_int (total / (Sys.word_size / 8)) in
  if words >= 2.0 *. bytes_words then
    Alcotest.failf "a 1 MB stream of 8 KB inserts allocated %.0f words (%.1fx its bytes)" words
      (words /. bytes_words)

(* Model-based property test: an extent map must behave like a sparse
   byte array. *)
let prop_model =
  let op_gen =
    QCheck.Gen.(
      oneof
        [
          map2 (fun off len -> `Insert (off, len)) (int_bound 200) (int_range 1 40);
          map2 (fun off len -> `Remove (off, len)) (int_bound 200) (int_range 1 40);
          map (fun off -> `Take off) (int_bound 250);
          map2 (fun off len -> `Read (off, len)) (int_bound 250) (int_range 1 60);
        ])
  in
  let ops_arb = QCheck.make ~print:(fun l -> string_of_int (List.length l)) QCheck.Gen.(list_size (1 -- 60) op_gen) in
  QCheck.Test.make ~name:"extent map matches sparse-array model" ~count:300 ops_arb (fun ops ->
      let m = Extent_map.create () in
      let model = Array.make 512 None in
      let tag = ref 0 in
      List.iter
        (fun op ->
          match op with
          | `Insert (off, len) ->
              incr tag;
              let c = Char.chr (33 + (!tag mod 90)) in
              Extent_map.insert m ~off (Bytes.make len c);
              for i = off to off + len - 1 do
                model.(i) <- Some c
              done
          | `Remove (off, len) ->
              Extent_map.remove_range m ~off ~len;
              for i = off to Stdlib.min 511 (off + len - 1) do
                model.(i) <- None
              done
          | `Take from -> (
              (* The model's extent starts, ascending. *)
              let starts =
                List.filter
                  (fun i -> model.(i) <> None && (i = 0 || model.(i - 1) = None))
                  (List.init 512 Fun.id)
              in
              let expect =
                match List.find_opt (fun i -> i >= from) starts with
                | Some i -> Some i
                | None -> List.nth_opt starts 0
              in
              match Extent_map.take_after m ~off:from ~max:16 with
              | None -> if expect <> None then QCheck.Test.fail_report "take_after found nothing"
              | Some (off, d) ->
                  if expect <> Some off then
                    QCheck.Test.fail_reportf "take_after from %d took the extent at %d" from off;
                  for i = off to off + Bytes.length d - 1 do
                    (* must match the model's bytes, then vacate *)
                    if model.(i) <> Some (Bytes.get d (i - off)) then
                      QCheck.Test.fail_reportf "take_after mismatch at %d" i;
                    model.(i) <- None
                  done)
          | `Read (off, len) ->
              (* A window anywhere: the stored bytes in it, and whether
                 they cover all of it. *)
              let buf = Bytes.make len '.' in
              Extent_map.apply m ~off buf;
              let all = ref true in
              for i = off to off + len - 1 do
                let expect = match model.(i) with Some c -> c | None -> all := false; '.' in
                if Bytes.get buf (i - off) <> expect then QCheck.Test.fail_reportf "apply mismatch at %d" i
              done;
              if Extent_map.covers m ~off ~len <> !all then
                QCheck.Test.fail_reportf "covers %d+%d is wrong" off len)
        ops;
      (* Final read-back comparison. *)
      let buf = Bytes.make 512 '\000' in
      Extent_map.apply m ~off:0 buf;
      let ok = ref true in
      for i = 0 to 511 do
        let expect = match model.(i) with Some c -> c | None -> '\000' in
        if Bytes.get buf i <> expect then ok := false
      done;
      let model_bytes = Array.fold_left (fun n c -> if c = None then n else n + 1) 0 model in
      !ok && model_bytes = Extent_map.total_bytes m)

let suite =
  [
    Alcotest.test_case "insert and apply" `Quick test_insert_and_apply;
    Alcotest.test_case "adjacent extents coalesce" `Quick test_adjacent_coalesce;
    Alcotest.test_case "overwrite keeps newest bytes" `Quick test_overwrite_wins;
    Alcotest.test_case "gaps keep extents separate" `Quick test_gap_keeps_separate;
    Alcotest.test_case "bridging write merges neighbours" `Quick test_bridge_merges;
    Alcotest.test_case "covers" `Quick test_covers;
    Alcotest.test_case "take_after clips at max" `Quick test_take_after_clips;
    Alcotest.test_case "remove_range trims overlaps" `Quick test_remove_range_trims;
    Alcotest.test_case "sequential 8K stream coalesces" `Quick test_sequential_8k_stream_coalesces;
    Alcotest.test_case "a 1 MB stream allocates under 2x its bytes" `Quick
      test_sequential_stream_allocates_its_bytes;
    QCheck_alcotest.to_alcotest prop_model;
  ]
