(* nfsmon: the periodic top-like interval reporter.

   Every [interval] of simulated time the monitor snapshots the
   per-client station counters the journey plane maintains (namespace
   "station.<client>") and renders the interval's deltas — ops, KB
   moved, mean end-to-end latency — one row per active station, busiest
   first. The header line carries the totals plus the operability
   plane's own health (long-op count, dropped long-op records).

   Everything is driven by the simulation clock and the deterministic
   registry iteration order, so a run's monitor output is byte-stable:
   the double-run equality test and CI's golden diff both rest on
   that. The monitor never prints (O001); it hands each interval's
   report to an [emit] callback supplied by the binary that owns
   stdout. *)

open Nfsg_sim

type snap = { ops : int; bytes : int; lat_n : int; lat_total : float }

let zero_snap = { ops = 0; bytes = 0; lat_n = 0; lat_total = 0.0 }

type t = {
  eng : Engine.t;
  metrics : Metrics.t;
  interval : Time.t;
  emit : string -> unit;
  prev : (string, snap) Hashtbl.t;
  mutable timer : Engine.timer option;
  mutable stopped : bool;
}

let create eng ~metrics ~interval ~emit =
  if interval <= 0 then invalid_arg "Monitor.create: interval must be positive";
  {
    eng;
    metrics;
    interval;
    emit;
    prev = Hashtbl.create 16;
    timer = None;
    stopped = false;
  }

let stations t =
  List.filter_map
    (fun ns -> Option.map (fun client -> (client, ns)) (Names.Ns.station_of ns))
    (Metrics.namespaces t.metrics)

let snap_of t ns =
  let c name = Metrics.count t.metrics ~ns name in
  let lat_n, lat_total =
    match Metrics.find_histogram t.metrics ~ns Names.station_lat_us with
    | Some h -> (Histogram.count h, Histogram.total h)
    | None -> (0, 0.0)
  in
  { ops = c Names.station_ops; bytes = c Names.station_bytes; lat_n; lat_total }

let render_tick t =
  let now = Engine.now t.eng in
  let rows =
    List.filter_map
      (fun (client, ns) ->
        let cur = snap_of t ns in
        let prev = Option.value ~default:zero_snap (Hashtbl.find_opt t.prev client) in
        Hashtbl.replace t.prev client cur;
        let d_ops = cur.ops - prev.ops in
        if d_ops = 0 then None
        else
          let d_bytes = cur.bytes - prev.bytes in
          let d_n = cur.lat_n - prev.lat_n in
          let d_lat = cur.lat_total -. prev.lat_total in
          let mean_ms = if d_n = 0 then 0.0 else d_lat /. float_of_int d_n /. 1000.0 in
          Some (client, d_ops, d_bytes, mean_ms))
      (stations t)
  in
  (* Busiest station first; ties break on the name so the order never
     depends on registry iteration. *)
  let rows =
    List.sort
      (fun (c1, o1, _, _) (c2, o2, _, _) -> match compare o2 o1 with 0 -> compare c1 c2 | n -> n)
      rows
  in
  let total_ops = List.fold_left (fun a (_, o, _, _) -> a + o) 0 rows in
  let total_kb =
    List.fold_left (fun a (_, _, b, _) -> a +. (float_of_int b /. 1024.0)) 0.0 rows
  in
  let long_ops = Metrics.count t.metrics ~ns:Names.Ns.journey Names.long_ops in
  let dropped = Metrics.count t.metrics ~ns:Names.Ns.trace Names.dropped in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "nfsmon t=+%.0fms interval=%.0fms ops=%d kb=%.1f long_ops=%d dropped=%d\n"
       (Time.to_ms_f now) (Time.to_ms_f t.interval) total_ops total_kb long_ops dropped);
  if rows = [] then Buffer.add_string buf "  (idle)\n"
  else begin
    let name_w =
      List.fold_left (fun w (c, _, _, _) -> Stdlib.max w (String.length c)) (String.length "station") rows
    in
    Buffer.add_string buf (Printf.sprintf "  %-*s  %6s  %9s  %9s\n" name_w "station" "ops" "kb" "mean_ms");
    List.iter
      (fun (client, ops, bytes, mean_ms) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-*s  %6d  %9.1f  %9.2f\n" name_w client ops
             (float_of_int bytes /. 1024.0)
             mean_ms))
      rows
  end;
  Buffer.contents buf

let rec arm t =
  t.timer <-
    Some
      (Engine.timer t.eng ~after:t.interval (fun () ->
           if not t.stopped then begin
             t.emit (render_tick t);
             arm t
           end))

let start t =
  if t.timer = None && not t.stopped then arm t

let stop t =
  t.stopped <- true;
  (match t.timer with Some tm -> ignore (Engine.cancel tm : bool) | None -> ());
  t.timer <- None
