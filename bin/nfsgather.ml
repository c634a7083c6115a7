(* nfsgather: regenerate any table or figure of Juszczak (USENIX 1994)
   from the simulated NFS stack, or print any committed bench artifact. *)

open Cmdliner
module E = Nfsg_experiments.Experiments
module X = Nfsg_experiments
module Rig = Nfsg_experiments.Rig
module Metrics = Nfsg_stats.Metrics

let print_report r = print_string (Nfsg_stats.Report.to_string r)
let print_json j = print_string (Nfsg_stats.Json.to_string ~pretty:true j)

let quick_arg =
  let doc = "Run with a smaller file / shorter measurement (fast smoke mode)." in
  Arg.(value & flag & info [ "q"; "quick" ] ~doc)

let scheduler_arg =
  let policy =
    Arg.enum
      [
        ("fifo", Nfsg_disk.Disk.Fifo);
        ("elevator", Nfsg_disk.Disk.Elevator);
        ("deadline", Nfsg_disk.Disk.Deadline);
      ]
  in
  let doc =
    "Force every simulated spindle onto the given I/O scheduling policy ($(docv) is one of \
     fifo, elevator or deadline), overriding each experiment's own choice."
  in
  Arg.(value & opt (some policy) None & info [ "scheduler" ] ~docv:"POLICY" ~doc)

let raid_level_arg =
  let level =
    Arg.enum
      [
        ("raid0", Nfsg_disk.Stripe.Raid0);
        ("raid1", Nfsg_disk.Stripe.Raid1);
        ("raid5", Nfsg_disk.Stripe.Raid5);
      ]
  in
  let doc =
    "Serve every multi-spindle experiment from a redundant array at the given RAID level \
     ($(docv) is one of raid0, raid1 or raid5) instead of the plain stripe set (the raid \
     bench keeps sweeping its own levels); the chaos rig additionally fail-stops and rebuilds \
     one member per fault cycle."
  in
  Arg.(value & opt (some level) None & info [ "raid-level" ] ~docv:"LEVEL" ~doc)

let monitor_interval_arg =
  let doc =
    "Drive an nfsmon top-like reporter over every simulated world the selected experiments \
     build, printing per-client-station activity every $(docv) milliseconds of simulated time."
  in
  Arg.(value & opt (some float) None & info [ "monitor-interval" ] ~docv:"MS" ~doc)

let long_op_threshold_arg =
  let doc =
    "Arm long-op journey tracing in every simulated server: ops slower end-to-end than $(docv) \
     milliseconds leave a full per-phase journey record, dumped after each experiment."
  in
  Arg.(value & opt (some float) None & info [ "long-op-threshold" ] ~docv:"MS" ~doc)

let metrics_json_arg =
  let doc =
    "Write the typed-metrics registry of the run (every counter, gauge and histogram \
     registered by every simulated world the selected experiments build) to $(docv) as \
     deterministic JSON."
  in
  Arg.(value & opt (some string) None & info [ "metrics-json" ] ~docv:"FILE" ~doc)

(* What every experiment is run with, built once from the flags. *)
type ctx = { quick : bool; env : Rig.env }

let experiments =
  [
    ("table1", fun c -> print_report (E.table1 ~quick:c.quick ~env:c.env ()));
    ("table2", fun c -> print_report (E.table2 ~quick:c.quick ~env:c.env ()));
    ("table3", fun c -> print_report (E.table3 ~quick:c.quick ~env:c.env ()));
    ("table4", fun c -> print_report (E.table4 ~quick:c.quick ~env:c.env ()));
    ("table5", fun c -> print_report (E.table5 ~quick:c.quick ~env:c.env ()));
    ("table6", fun c -> print_report (E.table6 ~quick:c.quick ~env:c.env ()));
    ("figure1", fun c -> print_string (E.figure1 ~env:c.env ()));
    ( "figure2",
      fun c ->
        print_string
          (E.render_laddis ~title:"Figure 2. SPEC SFS 1.0-style baseline (FDDI)"
             (E.figure2 ~quick:c.quick ~env:c.env ())) );
    ( "figure3",
      fun c ->
        print_string
          (E.render_laddis ~title:"Figure 3. SPEC SFS 1.0-style baseline (FDDI, Prestoserve)"
             (E.figure3 ~quick:c.quick ~env:c.env ())) );
    ( "ablations",
      fun c ->
        let quick = c.quick and env = c.env in
        print_report (E.ablation_procrastination ~quick ~env ());
        print_newline ();
        print_report (E.ablation_reply_order ~quick ~env ());
        print_newline ();
        print_report (E.ablation_latency_device ~quick ~env ());
        print_newline ();
        print_report (E.ablation_mbuf_hunter ~quick ~env ());
        print_newline ();
        print_report (E.ablation_dumb_pc ~quick ~env ());
        print_newline ();
        print_report (E.ablation_disk_scheduler ~quick ~env ()) );
    ( "extensions",
      fun c ->
        let quick = c.quick and env = c.env in
        print_report (E.extension_learned_clients ~quick ~env ());
        print_newline ();
        print_report (E.extension_v3 ~quick ~env ());
        print_newline ();
        print_report (E.extension_write_modes ~quick ~env ()) );
    ( "chaos",
      fun c ->
        let module Chaos = Nfsg_experiments.Chaos in
        let cfg =
          if c.quick then { Chaos.default with Chaos.cycles = 2; blocks_per_writer = 60 }
          else Chaos.default
        in
        let r = Chaos.run ~env:c.env cfg in
        Fmt.pr "%a@." Chaos.pp_result r;
        List.iter print_endline r.Chaos.timeline );
  ]

(* The six benches: each prints its committed BENCH_<name>.json (the
   file name spells laddis-curve with an underscore). Only writegather
   has a size, and its committed copy is the -q run. *)
let benches =
  [
    ("writegather", fun c -> print_json (E.bench_writegather ~quick:c.quick ~env:c.env ()));
    ("multivolume", fun c -> print_json (X.Multivolume.bench_multivolume ~env:c.env ()));
    ("iosched", fun c -> print_json (X.Iosched.bench_iosched ~env:c.env ()));
    ("raid", fun c -> print_json (X.Raid.bench_raid ~env:c.env ()));
    ("laddis-curve", fun c -> print_json (X.Laddis_curve.bench_laddis_curve ~env:c.env ()));
    ("bootstorm", fun c -> print_json (X.Bootstorm.bench_bootstorm ~env:c.env ()));
  ]

(* The tail investigation behind the deadline-p99 fix: the iosched
   bench world with journey tracing armed, evidence dumped for the two
   ends of the comparison. *)
let iosched_probe c =
  print_string (X.Iosched.investigate ~env:c.env "deadline+merge");
  print_newline ();
  print_string (X.Iosched.investigate ~env:c.env "fifo")

(* Every target by name; "all" is the paper and chaos, without the
   benches and the probe. *)
let targets = experiments @ benches @ [ ("iosched-probe", iosched_probe) ]

let run quick scheduler raid_level monitor_interval long_op_threshold metrics_json names =
  let names = if names = [] || List.mem "all" names then List.map fst experiments else names in
  let metrics = Option.map (fun _ -> Metrics.create ()) metrics_json in
  let env =
    {
      Rig.metrics;
      scheduler;
      raid_level;
      monitor_interval = Option.map Nfsg_sim.Time.of_ms_f monitor_interval;
      emit =
        (if monitor_interval <> None || long_op_threshold <> None then Some print_string
         else None);
      long_op_threshold = Option.map Nfsg_sim.Time.of_ms_f long_op_threshold;
    }
  in
  let ctx = { quick; env } in
  List.iteri
    (fun i name ->
      if i > 0 then print_newline ();
      (List.assoc name targets) ctx)
    names;
  match (metrics_json, metrics) with
  | Some file, Some m ->
      let oc = open_out file in
      output_string oc (Metrics.to_string ~pretty:true m);
      close_out oc;
      Printf.eprintf "metrics written to %s\n%!" file
  | _ -> ()

let targets_arg =
  let doc =
    "Experiments to run: table1..table6, figure1..figure3, ablations, extensions, chaos, or all \
     (default: every one of those); a bench, writegather, multivolume, iosched, raid, \
     laddis-curve or bootstorm, which prints its committed BENCH_<name>.json (-q sizes only \
     writegather); or iosched-probe."
  in
  let names = "all" :: List.map fst targets in
  Arg.(value & pos_all (enum (List.map (fun n -> (n, n)) names)) [] & info [] ~docv:"EXPERIMENT" ~doc)

let cmd =
  let doc = "reproduce 'Improving the Write Performance of an NFS Server' (USENIX 1994)" in
  let info = Cmd.info "nfsgather" ~version:"1.0.0" ~doc in
  Cmd.v info
    Term.(
      const run $ quick_arg $ scheduler_arg $ raid_level_arg $ monitor_interval_arg
      $ long_op_threshold_arg $ metrics_json_arg $ targets_arg)

let () = exit (Cmd.eval cmd)
