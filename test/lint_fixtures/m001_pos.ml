(* M001 positive: metric name literal bypassing the Names registry. *)
module Metrics = Nfsg_stats.Metrics

let make m = Metrics.counter m ~ns:"net" "datagrams_sent"
let peak m = Metrics.peak m ~ns:"disk" "queue_depth_peak"
