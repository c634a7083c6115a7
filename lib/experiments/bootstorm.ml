open Nfsg_sim
module Boot = Nfsg_workload.Boot
module Buffer_cache = Nfsg_ufs.Buffer_cache
module Fs = Nfsg_ufs.Fs
module Server = Nfsg_core.Server
module Volume = Nfsg_core.Volume
module Json = Nfsg_stats.Json
module Report = Nfsg_stats.Report

(* The boot-storm capacity bench: a fleet of diskless workstations all
   power on against one shared read-only export (a lab after a power
   cut). Each rung of the ladder boots a bigger fleet in a fresh
   world; the rung's achieved rate against a perfect-scaling offered
   rate (fleet size x the one-client rate) gives the same knee shape
   as the LADDIS sweep, and the knee is the export's capacity in
   clients. Run once with server read-ahead off and once with it on —
   the contrast is the bench's point. *)

type sweep = {
  seed : int;
  nfsds : int;
  cache_blocks : int;
      (** server buffer-cache bound — deliberately smaller than the
          fleet's hot set so the cold storm actually misses *)
  clients_max : int;  (** ladder cap *)
  stagger : Time.t;  (** power-on spacing between fleet members *)
  knee_frac : float;  (** saturated when achieved < frac * offered *)
  readahead_side : bool option;  (** run one side of the pair only; [None] = both *)
}

let default_sweep =
  {
    seed = 1994;
    nfsds = 16;
    cache_blocks = 112;
    clients_max = 16;
    stagger = Time.ms 5;
    (* A cold storm against one spindle never scales like a paced
       LADDIS sweep — every fleet member is fighting for the same disk
       arm from the first second — so the keep-up bar sits lower than
       the laddis-curve default: a rung counts as kept-up while the
       fleet still collects a majority of its perfectly-scaled rate. *)
    knee_frac = 0.55;
    readahead_side = None;
  }

(* Fleet sizes double to the cap: 1, 2, 4, ... clients_max. *)
let ladder max_clients =
  if max_clients <= 1 then [ 1 ]
  else begin
    let rec go k acc = if k >= max_clients then List.rev (max_clients :: acc) else go (k * 2) (k :: acc) in
    go 1 []
  end

(* {1 The configuration pair} *)

type variant = { label : string; readahead : Buffer_cache.readahead option }

let variants =
  [
    { label = "no-readahead"; readahead = None };
    { label = "readahead"; readahead = Some Buffer_cache.default_readahead };
  ]

(* {1 One rung: a fleet of [clients] in a fresh world} *)

type point = {
  clients : int;
  offered : float;  (** clients x the one-client rate, ops/s *)
  achieved : float;  (** ops/s over the storm window *)
  avg_latency_ms : float;  (** per-RPC *)
  ops_completed : int;
  mean_boot_ms : float;  (** per-client MOUNT-to-prompt time *)
  cache_hit_rate : float;  (** server cache, storm window only *)
  readahead_blocks : int;
  readahead_hits : int;
  readahead_wasted : int;
}

let run_rung ?env sweep ~readahead ~clients =
  let spec =
    {
      Rig.default_spec with
      Rig.nfsds = sweep.nfsds;
      cache_blocks = Some sweep.cache_blocks;
      readahead;
    }
  in
  let rig = Rig.make ?env spec in
  let eng = rig.Rig.eng in
  Rig.run rig (fun () ->
      (* Build the boot file set read-write, then protect the export
         before the fleet arrives — exportfs -o rw, populate, -o ro. *)
      let admin = Rig.new_client rig "admin" in
      Boot.populate admin (Rig.root rig);
      List.iter (fun v -> Volume.set_read_only v true) (Server.volumes rig.Rig.server);
      (* The storm premise is a lab-wide power cut: the server reboots
         too, so the fleet arrives at a genuinely cold cache. Recovery
         preserves the read-only flip and the read-ahead policy
         (Volume.spec_of). *)
      Server.crash rig.Rig.server;
      Engine.delay (Time.ms 50);
      let server = Server.restart rig.Rig.server in
      let cache = Fs.cache (Server.fs server) in
      let h0 = Buffer_cache.hits cache and m0 = Buffer_cache.misses cache in
      let rb0 = Buffer_cache.readahead_blocks cache in
      let rh0 = Buffer_cache.readahead_hits cache in
      let rw0 = Buffer_cache.readahead_wasted cache in
      let results = Array.make clients None in
      let finished = ref 0 in
      let done_cond = Condition.create () in
      let t0 = Engine.now eng in
      for i = 0 to clients - 1 do
        Engine.spawn eng
          ~name:(Printf.sprintf "boot-%d" i)
          (fun () ->
            if i > 0 then Engine.delay (i * sweep.stagger);
            let client = Rig.new_client rig (Printf.sprintf "ws%d" i) in
            results.(i) <- Some (Boot.boot eng client ~export:"/export");
            incr finished;
            if !finished = clients then Condition.broadcast done_cond)
      done;
      while !finished < clients do
        Condition.wait done_cond
      done;
      let elapsed = Engine.now eng - t0 in
      let stats = Array.to_list results |> List.filter_map Fun.id in
      let ops = List.fold_left (fun a (s : Boot.stats) -> a + s.Boot.ops) 0 stats in
      let lat = List.fold_left (fun a s -> a +. s.Boot.latency_sum_ms) 0.0 stats in
      let boot_ms = List.fold_left (fun a s -> a +. Time.to_ms_f s.Boot.elapsed) 0.0 stats in
      let hits = Buffer_cache.hits cache - h0 in
      let misses = Buffer_cache.misses cache - m0 in
      let accesses = hits + misses in
      {
        clients;
        offered = 0.0 (* filled against the rung-1 rate by the caller *);
        achieved = (if elapsed = 0 then 0.0 else float_of_int ops /. Time.to_sec_f elapsed);
        avg_latency_ms = (if ops = 0 then 0.0 else lat /. float_of_int ops);
        ops_completed = ops;
        mean_boot_ms = (if clients = 0 then 0.0 else boot_ms /. float_of_int clients);
        cache_hit_rate =
          (if accesses = 0 then 0.0 else float_of_int hits /. float_of_int accesses);
        readahead_blocks = Buffer_cache.readahead_blocks cache - rb0;
        readahead_hits = Buffer_cache.readahead_hits cache - rh0;
        readahead_wasted = Buffer_cache.readahead_wasted cache - rw0;
      })

(* {1 The ladder per configuration} *)

type curve = {
  label : string;
  readahead_on : bool;
  points : point list;  (** ladder order *)
  knee : int option;  (** index of the first sagging rung *)
  capacity_ops : float;  (** ops/s, per {!Laddis_curve.capacity_rating} *)
  capacity_clients : int;  (** biggest fleet the export kept up with *)
}

let run_variant ?env sweep (v : variant) =
  (* The one-client rung calibrates the offered scale: a fleet of k
     that scaled perfectly would achieve k x that rate. Walk the whole
     ladder (fleets are finite tasks, not paced loops, so every rung
     terminates) and let knee detection read the curve afterwards. *)
  let points =
    List.map
      (fun k -> run_rung ?env sweep ~readahead:v.readahead ~clients:k)
      (ladder sweep.clients_max)
  in
  let per_client = match points with p :: _ -> p.achieved | [] -> 0.0 in
  let points =
    List.map (fun p -> { p with offered = float_of_int p.clients *. per_client }) points
  in
  let oa = List.map (fun p -> (p.offered, p.achieved)) points in
  let knee = Laddis_curve.detect_knee ~frac:sweep.knee_frac oa in
  let kept_up =
    List.filter (fun p -> p.achieved >= sweep.knee_frac *. p.offered) points
  in
  {
    label = v.label;
    readahead_on = v.readahead <> None;
    points;
    knee;
    capacity_ops = Laddis_curve.capacity_rating ~frac:sweep.knee_frac oa;
    capacity_clients = List.fold_left (fun a p -> Stdlib.max a p.clients) 0 kept_up;
  }

let run ?env ?(sweep = default_sweep) () =
  let variants =
    match sweep.readahead_side with
    | None -> variants
    | Some on -> List.filter (fun (v : variant) -> (v.readahead <> None) = on) variants
  in
  List.map (run_variant ?env sweep) variants

(* {1 Rendering} *)

let report ?env ?(sweep = default_sweep) () =
  let curves = run ?env ~sweep () in
  let report =
    Report.create ~title:"Boot storm: diskless fleet vs shared read-only export"
      ~columns:(List.map (fun c -> c.label) curves)
  in
  let row name f = Report.add_row report name (List.map f curves) in
  let top c = match List.rev c.points with p :: _ -> Some p | [] -> None in
  row "capacity (clients)" (fun c -> float_of_int c.capacity_clients);
  row "capacity (ops/s)" (fun c -> c.capacity_ops);
  row "knee fleet size" (fun c ->
      match c.knee with Some i -> float_of_int (List.nth c.points i).clients | None -> nan);
  row "top-rung cache hit rate" (fun c ->
      match top c with Some p -> p.cache_hit_rate | None -> nan);
  row "top-rung mean boot (ms)" (fun c ->
      match top c with Some p -> p.mean_boot_ms | None -> nan);
  row "top-rung latency (ms)" (fun c ->
      match top c with Some p -> p.avg_latency_ms | None -> nan);
  report

(* {1 BENCH_bootstorm.json}

   The committed artifact CI regenerates and byte-diffs, same contract
   as the other five: one fixed modest sweep regardless of quick/full
   mode; a caller's sweep applies here too (the determinism test runs
   a tiny ladder). *)

let json_of_curves sweep curves =
  let json_point p =
    Json.Obj
      [
        ("clients", Json.Int p.clients);
        ("offered_ops_s", Json.Float p.offered);
        ("achieved_ops_s", Json.Float p.achieved);
        ("avg_latency_ms", Json.Float p.avg_latency_ms);
        ("ops_completed", Json.Int p.ops_completed);
        ("mean_boot_ms", Json.Float p.mean_boot_ms);
        ("cache_hit_rate", Json.Float p.cache_hit_rate);
        ("readahead_blocks", Json.Int p.readahead_blocks);
        ("readahead_hits", Json.Int p.readahead_hits);
        ("readahead_wasted", Json.Int p.readahead_wasted);
      ]
  in
  let json_curve c =
    Json.Obj
      [
        ("config", Json.String c.label);
        ("readahead", Json.Bool c.readahead_on);
        ("points", Json.List (List.map json_point c.points));
        ( "knee",
          match c.knee with
          | None -> Json.Null
          | Some i ->
              let p = List.nth c.points i in
              Json.Obj
                [
                  ("index", Json.Int i);
                  ("clients", Json.Int p.clients);
                  ("offered_ops_s", Json.Float p.offered);
                  ("achieved_ops_s", Json.Float p.achieved);
                ] );
        ("capacity_ops_s", Json.Float c.capacity_ops);
        ("capacity_clients", Json.Int c.capacity_clients);
      ]
  in
  Json.Obj
    [
      ("schema", Json.String "nfsgather-bench/1");
      ("bench", Json.String "bootstorm");
      ( "workload",
        Json.Obj
          [
            ("net", Json.String "fddi");
            ("boot_files", Json.Int (List.length Boot.boot_set));
            ("boot_bytes", Json.Int Boot.total_bytes);
            ("nfsds", Json.Int sweep.nfsds);
            ("cache_blocks", Json.Int sweep.cache_blocks);
            ("clients_max", Json.Int sweep.clients_max);
            ("stagger_ms", Json.Float (Time.to_ms_f sweep.stagger));
            ("knee_frac", Json.Float sweep.knee_frac);
            ("seed", Json.Int sweep.seed);
          ] );
      ("configs", Json.List (List.map json_curve curves));
    ]

let bench_bootstorm ?env ?(sweep = default_sweep) () = json_of_curves sweep (run ?env ~sweep ())
