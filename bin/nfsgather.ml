(* nfsgather: regenerate any table or figure of Juszczak (USENIX 1994)
   from the simulated NFS stack. *)

open Cmdliner
module E = Nfsg_experiments.Experiments
module Rig = Nfsg_experiments.Rig
module Lc = Nfsg_experiments.Laddis_curve
module Bs = Nfsg_experiments.Bootstorm
module Metrics = Nfsg_stats.Metrics

let print_report r = print_string (Nfsg_stats.Report.to_string r)

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
     ($(docv) is one of raid0, raid1 or raid5) instead of the plain stripe set; the chaos rig \
     additionally fail-stops and rebuilds one member per fault cycle."
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

let sweep_points_arg =
  let doc =
    "Cap the laddis-curve offered-load ladder at $(docv) rungs per configuration, overriding \
     the sweep's own ceiling."
  in
  Arg.(value & opt (some int) None & info [ "sweep-points" ] ~docv:"N" ~doc)

let procs_max_arg =
  let doc =
    "Cap the laddis-curve load-generator pool at $(docv) processes, overriding the sweep's \
     own ceiling."
  in
  Arg.(value & opt (some int) None & info [ "procs-max" ] ~docv:"N" ~doc)

let curve_configs_arg =
  let doc =
    "Restrict the laddis-curve sweep to the named grid configurations (comma-separated; \
     baseline, deadline, gather, nvram, gather+stripe3)."
  in
  Arg.(
    value
    & opt (some (list ~sep:',' string)) None
    & info [ "curve-configs" ] ~docv:"CONFIGS" ~doc)

let clients_max_arg =
  let doc =
    "Cap the bootstorm fleet ladder at $(docv) diskless clients, overriding the sweep's own \
     ceiling."
  in
  Arg.(value & opt (some int) None & info [ "clients-max" ] ~docv:"N" ~doc)

let readahead_arg =
  let side = Arg.enum [ ("on", true); ("off", false) ] in
  let doc =
    "Restrict the bootstorm comparison to one side ($(docv) is on or off) instead of running \
     both the read-ahead and no-read-ahead configurations."
  in
  Arg.(value & opt (some side) None & info [ "readahead" ] ~docv:"SIDE" ~doc)

let metrics_json_arg =
  let doc =
    "Write the typed-metrics registry of the run (every counter, gauge and histogram \
     registered by every simulated world the selected experiments build) to $(docv) as \
     deterministic JSON."
  in
  Arg.(value & opt (some string) None & info [ "metrics-json" ] ~docv:"FILE" ~doc)

(* What every experiment is run with, built once from the flags. *)
type ctx = {
  quick : bool;
  env : Rig.env;
  curve : Lc.sweep;  (** laddis-curve *)
  storm : Bs.sweep;  (** bootstorm *)
}

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
    ( "writegather",
      fun c ->
        print_string
          (Nfsg_stats.Json.to_string ~pretty:true (E.bench_writegather ~quick:c.quick ~env:c.env ()))
    );
    ("multivolume", fun c -> print_report (Nfsg_experiments.Multivolume.report ~quick:c.quick ()));
    ("laddis-curve", fun c -> print_report (Lc.report ~env:c.env ~sweep:c.curve ()));
    ("bootstorm", fun c -> print_report (Bs.report ~env:c.env ~sweep:c.storm ()));
    ("raid", fun c -> print_report (Nfsg_experiments.Raid.report ~quick:c.quick ()));
    ( "chaos",
      fun c ->
        let module Chaos = Nfsg_experiments.Chaos in
        let cfg =
          if c.quick then { Chaos.default with Chaos.cycles = 2; blocks_per_writer = 60 }
          else Chaos.default
        in
        let cfg = { cfg with Chaos.array_level = c.env.Rig.raid_level } in
        let r = Chaos.run ?metrics:c.env.Rig.metrics cfg in
        Fmt.pr "%a@." Chaos.pp_result r;
        List.iter print_endline r.Chaos.timeline );
  ]

(* iosched-probe is runnable by name but not part of "all": it reruns
   the saturating bench world twice and exists for investigations, not
   for the paper-reproduction sweep. It is the tail investigation
   behind the deadline-p99 fix: the bench world with journey tracing
   armed, evidence dumped for the two ends of the comparison. *)
let iosched_probe _ =
  print_string (Nfsg_experiments.Iosched.investigate "deadline+merge");
  print_newline ();
  print_string (Nfsg_experiments.Iosched.investigate "fifo")

let run quick scheduler raid_level sweep_points procs_max curve_configs clients_max readahead
    monitor_interval long_op_threshold metrics_json targets =
  let targets =
    if targets = [] || List.mem "all" targets then List.map fst experiments else targets
  in
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
  (* Quick mode shortens the ladders rather than shrinking the
     workload, so the rungs that do run stay comparable with the
     committed artifacts; an explicit cap flag wins over it. *)
  let curve =
    let d = if quick then { Lc.default_sweep with Lc.max_points = 3 } else Lc.default_sweep in
    {
      d with
      Lc.max_points = Option.value sweep_points ~default:d.Lc.max_points;
      procs_max = Option.value procs_max ~default:d.Lc.procs_max;
      configs = curve_configs;
    }
  in
  let storm =
    let d = if quick then { Bs.default_sweep with Bs.clients_max = 4 } else Bs.default_sweep in
    {
      d with
      Bs.clients_max = Option.value clients_max ~default:d.Bs.clients_max;
      readahead_side = readahead;
    }
  in
  let ctx = { quick; env; curve; storm } in
  let runners = ("iosched-probe", iosched_probe) :: experiments in
  List.iteri
    (fun i name ->
      if i > 0 then print_newline ();
      (List.assoc name runners) ctx)
    targets;
  match (metrics_json, metrics) with
  | Some file, Some m ->
      let oc = open_out file in
      output_string oc (Metrics.to_string ~pretty:true m);
      close_out oc;
      Printf.eprintf "metrics written to %s\n%!" file
  | _ -> ()

let targets_arg =
  let doc =
    "Experiments to run: table1..table6, figure1..figure3, ablations, extensions, writegather, \
     multivolume, laddis-curve, bootstorm, raid, chaos, iosched-probe, or all (default; \
     excludes iosched-probe)."
  in
  let names = "all" :: "iosched-probe" :: List.map fst experiments in
  Arg.(value & pos_all (enum (List.map (fun n -> (n, n)) names)) [] & info [] ~docv:"EXPERIMENT" ~doc)

let cmd =
  let doc = "reproduce 'Improving the Write Performance of an NFS Server' (USENIX 1994)" in
  let info = Cmd.info "nfsgather" ~version:"1.0.0" ~doc in
  Cmd.v info
    Term.(
      const run $ quick_arg $ scheduler_arg $ raid_level_arg $ sweep_points_arg $ procs_max_arg
      $ curve_configs_arg $ clients_max_arg $ readahead_arg $ monitor_interval_arg
      $ long_op_threshold_arg $ metrics_json_arg $ targets_arg)

let () = exit (Cmd.eval cmd)
