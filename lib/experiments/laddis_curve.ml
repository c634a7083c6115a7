open Nfsg_sim
module Disk = Nfsg_disk.Disk
module Laddis = Nfsg_workload.Laddis
module Json = Nfsg_stats.Json

(* The capacity-curve sweep: walk an offered-load ladder per server
   configuration until the server visibly saturates, LADDIS style.
   Each rung is a fresh world (Rig.make) driven at one offered rate;
   the per-config curve of (offered, achieved, latency) points is the
   paper's Figure 2/3 shape, and the knee of each curve is that
   configuration's capacity rating. [curve] is the one ladder walker:
   the sweep's grid and the paper's Figures 2 and 3 both climb it. *)

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

let detect_knee ~frac points =
  let rec find i = function
    | [] -> None
    | (offered, achieved) :: rest ->
        if achieved < frac *. offered then Some i else find (i + 1) rest
  in
  find 0 points

(* SPEC-style rating: the best achieved throughput among rungs the
   server still kept up with. A curve that sags from its very first
   rung is rated at whatever it actually delivered. *)
let capacity_rating ~frac points =
  let achieved_of = List.map snd points in
  let best l = List.fold_left max 0.0 l in
  match List.filter (fun (o, a) -> a >= frac *. o) points with
  | [] -> best achieved_of
  | ok -> best (List.map snd ok)

(* {1 The ladder} *)

type curve = {
  label : string;
  spec : Rig.spec;
  points : Laddis.point list;  (** ladder order *)
  knee : int option;  (** index of the first sagging rung *)
  capacity : float;  (** ops/s rating per {!capacity_rating} *)
}

(* Walk the offered loads in order, one fresh world per rung, until
   the knee shows (keeping the sagging rung as evidence) or the loads
   run out. Each rung's stations come from [load offered]. *)
let curve ?env ~knee_frac ~label spec ~load loads =
  let point offered =
    let cfg = load offered in
    let rig = Rig.make ?env spec in
    Rig.run rig (fun () ->
        Laddis.run rig.Rig.eng
          ~make_client:(fun i ->
            Rig.new_client rig ~biods:cfg.Laddis.biods_per_proc (Printf.sprintf "client%d" i))
          ~root:(Rig.root rig) ~offered cfg)
  in
  let rec walk acc = function
    | [] -> List.rev acc
    | offered :: rest ->
        let p = point offered in
        if p.Laddis.achieved < knee_frac *. offered then List.rev (p :: acc)
        else walk (p :: acc) rest
  in
  let points = walk [] loads in
  let oa = List.map (fun p -> (p.Laddis.offered, p.Laddis.achieved)) points in
  {
    label;
    spec;
    points;
    knee = detect_knee ~frac:knee_frac oa;
    capacity = capacity_rating ~frac:knee_frac oa;
  }

(* {1 The sweep}

   Every variant climbs the same arithmetic ladder, with more stations
   as the offered rate climbs: the same traffic shape per seed as the
   other rig experiments, just more of it. *)

let run ?env () =
  let sweep = default_sweep in
  let load offered =
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
  let loads =
    List.init sweep.max_points (fun i ->
        sweep.offered_start +. (sweep.offered_step *. float_of_int i))
  in
  List.map
    (fun (v : variant) ->
      curve ?env ~knee_frac:sweep.knee_frac ~label:v.label
        { v.spec with Rig.nfsds = sweep.nfsds }
        ~load loads)
    grid

(* {1 BENCH_laddis_curve.json}

   The committed artifact CI regenerates and byte-diffs. *)

let scheduler_name = function
  | Disk.Fifo -> "fifo"
  | Disk.Elevator -> "elevator"
  | Disk.Deadline -> "deadline"

let bench_laddis_curve ?env () =
  let sweep = default_sweep and curves = run ?env () in
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
