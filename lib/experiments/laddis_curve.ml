open Nfsg_sim
module Disk = Nfsg_disk.Disk
module Laddis = Nfsg_workload.Laddis
module Json = Nfsg_stats.Json
module Report = Nfsg_stats.Report

(* The capacity-curve sweep: walk an offered-load ladder per server
   configuration until the server visibly saturates, LADDIS style.
   Each rung is a fresh world (Rig.make) driven at one offered rate;
   the per-config curve of (offered, achieved, latency) points is the
   paper's Figure 2/3 shape, and the knee of each curve is that
   configuration's capacity rating. *)

type sweep = {
  seed : int;
  files_per_proc : int;
  file_size : int;  (** bytes per pre-created file *)
  warmup : Time.t;
  measure : Time.t;
  nfsds : int;
  offered_start : float;  (** first rung, ops/s *)
  offered_step : float;  (** rung spacing, ops/s *)
  max_points : int;  (** ladder cap if the knee never appears *)
  procs_max : int;  (** load-generator pool ceiling *)
  knee_frac : float;  (** saturated when achieved < frac * offered *)
  configs : string list option;  (** grid labels to run; [None] = the whole grid *)
}

let default_sweep =
  {
    seed = 1994;
    files_per_proc = 2;
    file_size = 128 * 1024;
    warmup = Time.ms 300;
    measure = Time.ms 1500;
    nfsds = 16;
    offered_start = 60.0;
    offered_step = 60.0;
    max_points = 12;
    procs_max = 64;
    knee_frac = 0.9;
    configs = None;
  }

(* More load stations as the offered rate climbs, the way a LADDIS
   testbed adds client hosts: one process per ~10 ops/s, clamped so a
   station never has to offer an unrealistic individual rate and the
   pool never exceeds the configured ceiling. *)
let procs_for ~procs_max offered =
  let wanted = int_of_float (offered /. 10.0) in
  max 4 (min procs_max wanted)

(* {1 The configuration grid}

   A curated cut through gathering x NVRAM x scheduler x stripe width:
   the paper's baseline and Prestoserve configurations, plus the
   gathered server alone and with the later storage-stack work
   (deadline scheduling, 3-drive stripe set). *)

type variant = { label : string; spec : Rig.spec }

let grid =
  let base =
    {
      Rig.default_spec with
      Rig.gathering = false;
      accel = false;
      spindles = 1;
      disk_scheduler = Disk.Fifo;
    }
  in
  [
    { label = "baseline"; spec = base };
    (* Scheduler alone, no gathering: with every WRITE sync the disk
       queue is where the load piles up, so this is where ordering
       policy actually moves the knee. Under a gathering server the
       queue rarely gets deep enough for the policy to matter. *)
    { label = "deadline"; spec = { base with Rig.disk_scheduler = Disk.Deadline } };
    { label = "gather"; spec = { base with Rig.gathering = true } };
    { label = "nvram"; spec = { base with Rig.accel = true } };
    {
      label = "gather+stripe3";
      spec =
        { base with Rig.gathering = true; disk_scheduler = Disk.Deadline; spindles = 3 };
    };
  ]

(* {1 Knee detection and capacity rating}

   Pure functions over the (offered, achieved) ladder so the unit
   tests can exercise them on synthetic curves. *)

let detect_knee ?(frac = default_sweep.knee_frac) points =
  let rec find i = function
    | [] -> None
    | (offered, achieved) :: rest ->
        if achieved < frac *. offered then Some i else find (i + 1) rest
  in
  find 0 points

(* SPEC-style rating: the best achieved throughput among rungs the
   server still kept up with. A curve that sags from its very first
   rung is rated at whatever it actually delivered. *)
let capacity_rating ?(frac = default_sweep.knee_frac) points =
  let achieved_of = List.map snd points in
  let best l = List.fold_left max 0.0 l in
  match List.filter (fun (o, a) -> a >= frac *. o) points with
  | [] -> best achieved_of
  | ok -> best (List.map snd ok)

(* The grid a sweep runs, in grid order; an unknown label is an error,
   not an empty curve. *)
let selected sweep =
  match sweep.configs with
  | None -> grid
  | Some labels ->
      List.iter
        (fun l ->
          if not (List.exists (fun v -> v.label = l) grid) then
            invalid_arg (Printf.sprintf "Laddis_curve: unknown configuration %S" l))
        labels;
      List.filter (fun v -> List.mem v.label labels) grid

(* {1 The sweep} *)

type curve = {
  label : string;
  spec : Rig.spec;
  points : Laddis.point list;  (** ladder order *)
  knee : int option;  (** index of the first sagging rung *)
  capacity : float;  (** ops/s rating per {!capacity_rating} *)
}

let run_point ?env sweep (v : variant) ~offered =
  let rig = Rig.make ?env { v.spec with Rig.nfsds = sweep.nfsds } in
  let lcfg =
    {
      Laddis.default_config with
      Laddis.procs = procs_for ~procs_max:sweep.procs_max offered;
      files_per_proc = sweep.files_per_proc;
      file_size = sweep.file_size;
      warmup = sweep.warmup;
      measure = sweep.measure;
      seed = sweep.seed;
    }
  in
  Rig.run rig (fun () ->
      Laddis.run rig.Rig.eng
        ~make_client:(fun i -> Rig.new_client rig (Printf.sprintf "client%d" i))
        ~root:(Rig.root rig) ~offered lcfg)

(* Walk the ladder until the knee shows (keeping the sagging rung as
   evidence) or the cap runs out. Every rung is a fresh world at a
   higher offered rate — the same traffic-shape-per-seed as the other
   rig experiments, just more stations. *)
let run_variant ?env sweep (v : variant) =
  let rec walk acc i =
    if i >= sweep.max_points then List.rev acc
    else begin
      let offered = sweep.offered_start +. (sweep.offered_step *. float_of_int i) in
      let p = run_point ?env sweep v ~offered in
      let acc = p :: acc in
      if p.Laddis.achieved < sweep.knee_frac *. offered then List.rev acc
      else walk acc (i + 1)
    end
  in
  let points = walk [] 0 in
  let oa = List.map (fun p -> (p.Laddis.offered, p.Laddis.achieved)) points in
  {
    label = v.label;
    spec = v.spec;
    points;
    knee = detect_knee ~frac:sweep.knee_frac oa;
    capacity = capacity_rating ~frac:sweep.knee_frac oa;
  }

let run ?env ?(sweep = default_sweep) () = List.map (run_variant ?env sweep) (selected sweep)

(* {1 Rendering} *)

let report ?env ?(sweep = default_sweep) () =
  let curves = run ?env ~sweep () in
  let report =
    Report.create ~title:"Capacity curves: offered-load sweep per configuration"
      ~columns:(List.map (fun c -> c.label) curves)
  in
  let row name f = Report.add_row report name (List.map f curves) in
  row "capacity (ops/s)" (fun c -> c.capacity);
  row "knee offered (ops/s)" (fun c ->
      match c.knee with
      | Some i -> (List.nth c.points i).Laddis.offered
      | None -> nan);
  row "rungs measured" (fun c -> float_of_int (List.length c.points));
  row "top-rung achieved (ops/s)" (fun c ->
      match List.rev c.points with p :: _ -> p.Laddis.achieved | [] -> nan);
  row "top-rung latency (ms)" (fun c ->
      match List.rev c.points with p :: _ -> p.Laddis.avg_latency_ms | [] -> nan);
  report

(* {1 BENCH_laddis_curve.json}

   The committed artifact CI regenerates and byte-diffs. One fixed
   modest sweep regardless of quick/full mode, so every environment
   produces the same bytes; a caller's sweep applies here too (the
   determinism test runs a tiny one). *)

let scheduler_name = function
  | Disk.Fifo -> "fifo"
  | Disk.Elevator -> "elevator"
  | Disk.Deadline -> "deadline"

let json_of_curves sweep curves =
  let json_point p =
    Json.Obj
      [
        ("offered_ops_s", Json.Float p.Laddis.offered);
        ("achieved_ops_s", Json.Float p.Laddis.achieved);
        ("avg_latency_ms", Json.Float p.Laddis.avg_latency_ms);
        ("ops_completed", Json.Int p.Laddis.ops_completed);
      ]
  in
  let json_curve c =
    Json.Obj
      [
        ("config", Json.String c.label);
        ("gathering", Json.Bool c.spec.Rig.gathering);
        ("nvram", Json.Bool c.spec.Rig.accel);
        ("scheduler", Json.String (scheduler_name c.spec.Rig.disk_scheduler));
        ("spindles", Json.Int c.spec.Rig.spindles);
        ("points", Json.List (List.map json_point c.points));
        ( "knee",
          match c.knee with
          | None -> Json.Null
          | Some i ->
              let p = List.nth c.points i in
              Json.Obj
                [
                  ("index", Json.Int i);
                  ("offered_ops_s", Json.Float p.Laddis.offered);
                  ("achieved_ops_s", Json.Float p.Laddis.achieved);
                ] );
        ("capacity_ops_s", Json.Float c.capacity);
      ]
  in
  Json.Obj
    [
      ("schema", Json.String "nfsgather-bench/1");
      ("bench", Json.String "laddis_curve");
      ( "workload",
        Json.Obj
          [
            ("net", Json.String "fddi");
            ("files_per_proc", Json.Int sweep.files_per_proc);
            ("file_bytes", Json.Int sweep.file_size);
            ("measure_ms", Json.Float (Time.to_ms_f sweep.measure));
            ("nfsds", Json.Int sweep.nfsds);
            ("seed", Json.Int sweep.seed);
            ("offered_start", Json.Float sweep.offered_start);
            ("offered_step", Json.Float sweep.offered_step);
            ("max_points", Json.Int sweep.max_points);
            ("procs_max", Json.Int sweep.procs_max);
            ("knee_frac", Json.Float sweep.knee_frac);
          ] );
      ("configs", Json.List (List.map json_curve curves));
    ]

let bench_laddis_curve ?env ?(sweep = default_sweep) () = json_of_curves sweep (run ?env ~sweep ())
