open Nfsg_stats

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_histogram_quantiles () =
  let h = Histogram.create ~least:1.0 ~growth:1.1 ~buckets:256 () in
  for i = 1 to 1000 do
    Histogram.add h (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Histogram.count h);
  let med = Histogram.median h in
  if med < 450.0 || med > 560.0 then Alcotest.failf "median %f out of tolerance" med;
  let p99 = Histogram.p99 h in
  if p99 < 930.0 || p99 > 1100.0 then Alcotest.failf "p99 %f out of tolerance" p99;
  Alcotest.(check (float 0.5)) "mean" 500.5 (Histogram.mean h)

let test_histogram_clamps () =
  let h = Histogram.create ~least:1.0 ~growth:2.0 ~buckets:4 () in
  Histogram.add h 0.0001;
  Histogram.add h 1e12;
  Alcotest.(check int) "both recorded" 2 (Histogram.count h)

let test_histogram_quantile_midpoint () =
  (* One sample in bucket [2,4): every quantile must report the
     geometric midpoint sqrt(2*4), not the bucket's upper edge. *)
  let h = Histogram.create ~least:1.0 ~growth:2.0 ~buckets:16 () in
  Histogram.add h 3.0;
  let mid = sqrt (2.0 *. 4.0) in
  Alcotest.(check (float 1e-9)) "q=0.5" mid (Histogram.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "q=0" mid (Histogram.quantile h 0.0);
  Alcotest.(check (float 1e-9)) "q=1" mid (Histogram.quantile h 1.0);
  Alcotest.(check (float 1e-9)) "empty histogram quantile" 0.0
    (Histogram.quantile (Histogram.create ()) 0.5)

let test_histogram_underflow_bucket () =
  let h = Histogram.create ~least:8.0 ~growth:2.0 ~buckets:8 () in
  Histogram.add h 0.5;
  (* The underflow bucket spans [0, least): arithmetic midpoint. *)
  Alcotest.(check (float 1e-9)) "underflow midpoint" 4.0 (Histogram.quantile h 0.5);
  match Histogram.buckets h with
  | [ (lo, hi, 1) ] ->
      Alcotest.(check (float 1e-9)) "lower edge 0" 0.0 lo;
      Alcotest.(check (float 1e-9)) "upper edge = least" 8.0 hi
  | bs -> Alcotest.failf "expected one underflow bucket, got %d" (List.length bs)

let test_histogram_quantiles_ordered () =
  let h = Histogram.create ~least:1.0 ~growth:1.25 ~buckets:64 () in
  for i = 1 to 1000 do
    Histogram.add h (float_of_int i)
  done;
  let qs = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ] in
  let vs = List.map (Histogram.quantile h) qs in
  let rec mono = function
    | a :: (b :: _ as rest) -> a <= b && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "quantiles non-decreasing" true (mono vs);
  let q0 = Histogram.quantile h 0.0 in
  Alcotest.(check bool) "q=0 inside first bucket" true (q0 >= 1.0 && q0 <= 1.25)

let test_report_render () =
  let r = Report.create ~title:"Table X" ~columns:[ "0"; "3"; "7" ] in
  Report.add_section r "Without Write Gathering";
  Report.add_row r "client write speed (KB/sec)" [ 165.0; 194.0; 201.0 ];
  Report.add_row r "server cpu util. (%)" [ 9.0; 11.0; 11.4 ];
  let s = Report.to_string r in
  Alcotest.(check bool) "has title" true (contains s "Table X");
  Alcotest.(check bool) "row label" true (contains s "client write speed");
  Alcotest.(check bool) "integer cell" true (contains s "165");
  Alcotest.(check bool) "decimal cell" true (contains s "11.4");
  Alcotest.(check bool) "section" true (contains s "Without Write Gathering")

let test_report_mismatch () =
  let r = Report.create ~title:"t" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "cell count" (Invalid_argument "Report.add_row \"x\": 1 cells for 2 columns")
    (fun () -> Report.add_row r "x" [ 1.0 ])

type write_event = Write of int | Metadata

let test_trace_records () =
  let eng = Nfsg_sim.Engine.create () in
  let tr = Trace.create eng ~capacity:16 ~dummy:Metadata in
  Nfsg_sim.Engine.spawn eng (fun () ->
      Trace.record tr ~actor:"client" (Write 8192);
      Nfsg_sim.Engine.delay (Nfsg_sim.Time.ms 2);
      Trace.record tr ~actor:"server" Metadata);
  Nfsg_sim.Engine.run eng;
  match Trace.events tr with
  | [ (t0, "client", Write 8192); (t1, "server", Metadata) ] ->
      Alcotest.(check int) "2ms apart" (Nfsg_sim.Time.ms 2) (t1 - t0)
  | evs -> Alcotest.failf "unexpected events (%d)" (List.length evs)

let test_trace_ring_wraps () =
  let eng = Nfsg_sim.Engine.create () in
  let tr = Trace.create eng ~capacity:4 ~dummy:(-1) in
  Alcotest.(check int) "empty before the first record" 0 (List.length (Trace.events tr));
  Nfsg_sim.Engine.spawn eng (fun () ->
      for i = 0 to 9 do
        Trace.record tr ~actor:"a" i
      done);
  Nfsg_sim.Engine.run eng;
  Alcotest.(check int) "dropped count" 6 (Trace.dropped tr);
  let items = List.map (fun (_, _, i) -> i) (Trace.events tr) in
  Alcotest.(check (list int)) "newest 4, oldest first" [ 6; 7; 8; 9 ] items

let test_metrics_find_or_create () =
  let m = Metrics.create () in
  let c1 = Metrics.counter m ~ns:"x" "hits" in
  Metrics.incr c1;
  Metrics.incr c1;
  (* Re-registering must return the same underlying instrument — the
     restart-accumulation contract. *)
  let c2 = Metrics.counter m ~ns:"x" "hits" in
  Metrics.add c2 3;
  Alcotest.(check int) "one accumulating counter" 5 (Metrics.value c1);
  Alcotest.(check (option int)) "find_counter" (Some 5) (Metrics.find_counter m ~ns:"x" "hits");
  (* A name collision across kinds is a programming error, not data. *)
  (match Metrics.gauge m ~ns:"x" "hits" with
  | _ -> Alcotest.fail "kind mismatch accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check (option int)) "other namespace empty" None (Metrics.find_counter m ~ns:"y" "hits")

(* One world's registry folded into a shared sink: counters add, a
   gauge takes the folded value, histograms add their buckets, and an
   instrument the sink lacks arrives as a copy the source no longer
   reaches. *)
let test_metrics_merge_into () =
  let world () =
    let m = Metrics.create () in
    Metrics.add (Metrics.counter m ~ns:"x" "hits") 2;
    Metrics.set (Metrics.gauge m ~ns:"x" "depth") 3.0;
    Histogram.add (Metrics.histogram m ~ns:"x" "lat") 10.0;
    m
  in
  let sink = Metrics.create () and first = world () in
  Metrics.merge_into ~into:sink first;
  Metrics.merge_into ~into:sink (world ());
  Histogram.add (Option.get (Metrics.find_histogram first ~ns:"x" "lat")) 99.0;
  Alcotest.(check int) "counters add" 4 (Metrics.count sink ~ns:"x" "hits");
  Alcotest.(check (option (float 0.0))) "gauge" (Some 3.0) (Metrics.find_gauge sink ~ns:"x" "depth");
  Alcotest.(check (float 0.0)) "histograms add, copied" 2.0
    (Metrics.stat sink ~ns:"x" "lat" (fun h -> float_of_int (Histogram.count h)));
  Alcotest.(check (float 0.0)) "absent histogram" 0.0 (Metrics.stat sink ~ns:"y" "lat" Histogram.p99);
  let clash = Metrics.create () in
  ignore (Metrics.gauge clash ~ns:"x" "hits");
  match Metrics.merge_into ~into:clash first with
  | () -> Alcotest.fail "kind mismatch accepted"
  | exception Invalid_argument _ -> ()

(* A peak merges by maximum: a sink holds the highest peak of any
   world, whichever world came last, and lists it among the gauges. *)
let test_metrics_merge_keeps_larger_peak () =
  let world v =
    let m = Metrics.create () in
    let p = Metrics.peak m ~ns:"disk" "queue_depth_peak" in
    Metrics.set_max p v;
    Metrics.set_max p (v -. 1.0);
    m
  in
  let sink = Metrics.create () in
  Metrics.merge_into ~into:sink (world 21.0);
  Metrics.merge_into ~into:sink (world 13.0);
  Alcotest.(check (option (float 0.0))) "the larger peak" (Some 21.0)
    (Metrics.find_gauge sink ~ns:"disk" "queue_depth_peak");
  Metrics.merge_into ~into:sink (world 26.0);
  Alcotest.(check (option (float 0.0))) "a later, larger peak" (Some 26.0)
    (Metrics.find_gauge sink ~ns:"disk" "queue_depth_peak");
  Alcotest.(check bool) "listed among the gauges" true
    (contains (Metrics.to_string sink) {|"gauges":{"queue_depth_peak":26|})

let test_metrics_json_deterministic () =
  let build order =
    let m = Metrics.create () in
    List.iter
      (fun name -> Metrics.add (Metrics.counter m ~ns:"zeta" name) (String.length name))
      order;
    Metrics.set (Metrics.gauge m ~ns:"alpha" "depth") 2.5;
    Histogram.add (Metrics.histogram m ~ns:"alpha" "lat_us") 42.0;
    Metrics.to_string m
  in
  let a = build [ "b"; "a"; "c" ] and b = build [ "c"; "b"; "a" ] in
  Alcotest.(check string) "registration order invisible" a b;
  Alcotest.(check bool) "schema stamped" true (contains a "nfsgather-metrics/1");
  (* Sorted namespaces: alpha before zeta in the byte stream. *)
  let rec index_of i n =
    if i + String.length n > String.length a then -1
    else if String.sub a i (String.length n) = n then i
    else index_of (i + 1) n
  in
  Alcotest.(check bool) "namespaces sorted" true (index_of 0 "alpha" < index_of 0 "zeta")

let test_metrics_span () =
  let eng = Nfsg_sim.Engine.create () in
  let m = Metrics.create () in
  let h = Metrics.histogram m ~ns:"t" "span_us" in
  Nfsg_sim.Engine.spawn eng (fun () ->
      Metrics.span eng h (fun () -> Nfsg_sim.Engine.delay (Nfsg_sim.Time.ms 3)));
  Nfsg_sim.Engine.run eng;
  Alcotest.(check int) "one sample" 1 (Histogram.count h);
  Alcotest.(check (float 1.0)) "3ms in microseconds" 3000.0 (Histogram.total h)

let suite =
  [
    Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
    Alcotest.test_case "histogram clamps extremes" `Quick test_histogram_clamps;
    Alcotest.test_case "quantile is the geometric midpoint" `Quick test_histogram_quantile_midpoint;
    Alcotest.test_case "underflow bucket midpoint" `Quick test_histogram_underflow_bucket;
    Alcotest.test_case "quantiles are monotone" `Quick test_histogram_quantiles_ordered;
    Alcotest.test_case "report renders aligned table" `Quick test_report_render;
    Alcotest.test_case "report rejects bad row" `Quick test_report_mismatch;
    Alcotest.test_case "trace records timeline" `Quick test_trace_records;
    Alcotest.test_case "trace ring wraps and counts drops" `Quick test_trace_ring_wraps;
    Alcotest.test_case "metrics find-or-create" `Quick test_metrics_find_or_create;
    Alcotest.test_case "metrics JSON is deterministic" `Quick test_metrics_json_deterministic;
    Alcotest.test_case "span times on the sim clock" `Quick test_metrics_span;
    Alcotest.test_case "metrics merge into a sink" `Quick test_metrics_merge_into;
    Alcotest.test_case "a merged peak is the larger" `Quick test_metrics_merge_keeps_larger_peak;
  ]
