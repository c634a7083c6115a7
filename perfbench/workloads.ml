(* The three workloads and the outcome they accumulate.

   Each run builds several fresh worlds. Building a world and preparing
   its files is set-up, timed per world. The work that is measured runs
   inside windows: the host clock, the allocator and every layer
   counter are read at both edges of a window, and only RPCs sent for
   the window are sampled. Correctness checks run between windows. *)

open Nfsg_sim
module Client = Nfsg_nfs.Client
module Proto = Nfsg_nfs.Proto
module Rpc_client = Nfsg_rpc.Rpc_client
module Xdr = Nfsg_rpc.Xdr
module Socket = Nfsg_net.Socket
module Server = Nfsg_core.Server
module Volume = Nfsg_core.Volume
module Buffer_cache = Nfsg_ufs.Buffer_cache
module Boot = Nfsg_workload.Boot
module File_writer = Nfsg_workload.File_writer

let block = 8192

type size = {
  worlds : int;
  units : int;
      (** per world: write_copy rounds, boot_storm storms, sfs_mix
          measured simulated seconds *)
  setups : int;  (** set-ups timed per run, at least [worlds] *)
  small : bool;  (** test-sized files and warm-up *)
}

(* {1 Outcome} *)

type outcome = {
  probe : Probe.t option;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** failed correctness checks, newest first *)
  lat : Samples.t;  (** simulated ns of every sampled RPC *)
  io_lat : Samples.t;  (** READ and WRITE only *)
  task : Samples.t;  (** one unit of user work: a file copy, a boot, an SFS op *)
  late : Samples.t;  (** open loop: how late each op started *)
  by_proc : (string, Samples.t) Hashtbl.t;
  mutable ops : int;
  mutable app_bytes : int;
  mutable setup_s : float list;  (** host seconds per set-up *)
  layer : float array;  (** window deltas of {!World.counters}, summed *)
  digest : Buffer.t;  (** the simulated outcome, in order *)
}

let outcome ?probe () =
  {
    probe;
    attempted = 0;
    failed = 0;
    problems = [];
    lat = Samples.create ();
    io_lat = Samples.create ();
    task = Samples.create ();
    late = Samples.create ();
    by_proc = Hashtbl.create 16;
    ops = 0;
    app_bytes = 0;
    setup_s = [];
    layer = Array.make (List.length World.counter_names) 0.0;
    digest = Buffer.create 4096;
  }

let proc_samples o proc =
  match Hashtbl.find_opt o.by_proc proc with
  | Some s -> s
  | None ->
      let s = Samples.create () in
      Hashtbl.replace o.by_proc proc s;
      s

let problem o msg = o.problems <- msg :: o.problems
let digest o = Digest.to_hex (Digest.string (Buffer.contents o.digest))
let layer o name = o.layer.(World.index name)

let note o args = match o.probe with Some p -> Probe.note_args p (args ()) | None -> ()

(* One RPC, due at [start]. [live] ops are sampled and counted; a
   failure outside a window is a broken run, not a sample. *)
let attempt o (w : World.t) ~live ~proc ~start ?(bytes = fun _ -> 0) f =
  match f () with
  | v ->
      if live then begin
        let lat = Engine.now w.eng - start in
        let x = float_of_int lat in
        o.attempted <- o.attempted + 1;
        o.ops <- o.ops + 1;
        o.app_bytes <- o.app_bytes + bytes v;
        Samples.add o.lat x;
        if proc = "READ" || proc = "WRITE" then Samples.add o.io_lat x;
        Samples.add (proc_samples o proc) x;
        Buffer.add_string o.digest proc;
        Buffer.add_int64_le o.digest (Int64.of_int lat)
      end;
      Some v
  | exception ((Client.Error _ | Rpc_client.Timeout _) as e) ->
      if live then begin
        o.attempted <- o.attempted + 1;
        o.failed <- o.failed + 1;
        Buffer.add_string o.digest ("!" ^ proc)
      end
      else problem o (Printf.sprintf "%s outside a window failed: %s" proc (Printexc.to_string e));
      None

let window o (w : World.t) f =
  Option.iter Probe.window_start o.probe;
  let c0 = World.read_counters w in
  f ();
  let c1 = World.read_counters w in
  Option.iter Probe.window_end o.probe;
  List.iteri
    (fun i name ->
      let d = c1.(i) -. c0.(i) in
      o.layer.(i) <- o.layer.(i) +. d;
      if not (World.host_only name) then Buffer.add_int64_le o.digest (Int64.of_float d))
    World.counter_names

exception Set_up_only

(* Set-up is everything from building the world to [setup_done]. A
   set-up-only world stops there. *)
let in_world ~setup_only o cfg f =
  Gc.full_major ();
  let h0 = Unix.gettimeofday () in
  let w = World.make ?probe:o.probe cfg in
  let setup_done () =
    o.setup_s <- (Unix.gettimeofday () -. h0) :: o.setup_s;
    if setup_only then raise Set_up_only
  in
  try World.run w (fun () -> f w setup_done) with Set_up_only -> ()

(* Run [fs] as processes and wait for all of them. *)
let join (w : World.t) fs =
  let left = ref (List.length fs) in
  let all_done = Condition.create () in
  List.iter
    (fun f ->
      Engine.spawn w.eng (fun () ->
          f ();
          decr left;
          if !left = 0 then Condition.broadcast all_done))
    fs;
  while !left > 0 do
    Condition.wait all_done
  done

(* {1 Write-behind through the benchmark's own biods}

   The same flow control as Client's biods: a full block goes to a free
   biod, and when all are busy the application does the RPC itself and
   blocks. Doing it here, over a client with no biods of its own, lets
   each WRITE RPC be timed on its own. *)

let biods = 4

type pool = {
  client : Client.t;
  slots : Semaphore.t;
  mutable outstanding : int;
  idle : Condition.t;
  mutable spare : (Proto.fh * Client.file) list;  (** closed handles, reusable *)
}

let pool client =
  { client; slots = Semaphore.create ~name:"biods" biods; outstanding = 0; idle = Condition.create (); spare = [] }

let take_file p fh =
  match List.partition (fun (h, _) -> h = fh) p.spare with
  | (_, f) :: same, others ->
      p.spare <- same @ others;
      f
  | [], _ -> Client.open_file p.client fh

let write_block o w p fh ~off data ~live ~start ~on_done =
  note o (fun () -> Proto.Write { fh; offset = off; data = Xdr.view_of_bytes data });
  let rpc () =
    let f = take_file p fh in
    ignore
      (attempt o w ~live ~proc:"WRITE" ~start
         ~bytes:(fun () -> Bytes.length data)
         (fun () ->
           Client.write f ~off data;
           Client.close f));
    p.spare <- (fh, f) :: p.spare;
    on_done ()
  in
  if Semaphore.try_acquire p.slots then begin
    p.outstanding <- p.outstanding + 1;
    Engine.spawn w.World.eng ~name:"biod" (fun () ->
        rpc ();
        Semaphore.release p.slots;
        p.outstanding <- p.outstanding - 1;
        if p.outstanding = 0 then Condition.broadcast p.idle)
  end
  else begin
    (* A biod-less Client.write yields once before it sends, in the
       biods above too. Client's own biods send without yielding, so
       the application yields once more here to stay behind every biod
       spawned earlier in this instant, the order Client keeps. *)
    Engine.yield ();
    rpc ()
  end

let drain p =
  while p.outstanding > 0 do
    Condition.wait p.idle
  done

(* {1 write_copy}

   The paper's file-copy experiment: four stations each copy a 16 MB
   file, writing it sequentially through four biods, close it, and
   (after the window) read it back and remove it. *)

let write_copy_world = { World.nfsds = 8; cache_blocks = None; readahead = None }
let copy_stations = 4

(* Each station starts its copy at a seeded instant in the first 500 ms
   of a round, about two WRITE round trips, so the four write streams
   reach the server in a different phase on every seed. *)
let start_spread = Time.ms 500

(* File_writer's pattern: byte i of the file is (i + seed) mod 251, so
   every 8 KB block is a slice of one short ring. *)
let ring = Bytes.init (251 + block) (fun i -> Char.chr (i mod 251))
let pattern_block ~seed ~off = Bytes.sub ring ((off + seed) mod 251) block

let copy_file o (w : World.t) client dir ~name ~total ~seed =
  let t0 = Engine.now w.eng in
  note o (fun () -> Proto.Create { dir; name; sattr = Proto.sattr_none });
  match
    attempt o w ~live:true ~proc:"CREATE" ~start:t0 (fun () -> Client.create_file client dir name)
  with
  | None -> None
  | Some (fh, _) ->
      let p = pool client in
      let off = ref 0 in
      while !off < total do
        write_block o w p fh ~off:!off (pattern_block ~seed ~off:!off) ~live:true
          ~start:(Engine.now w.eng) ~on_done:ignore;
        off := !off + block
      done;
      drain p;
      Samples.add o.task (float_of_int (Engine.now w.eng - t0));
      Some fh

let write_copy ~setup_only o size rng =
  let total = if size.small then 512 * 1024 else 16 * 1024 * 1024 in
  in_world ~setup_only o write_copy_world (fun w setup_done ->
      let stations =
        Array.init copy_stations (fun i ->
            let _, c = World.client w (Printf.sprintf "ws%d" i) in
            let root = Client.mount c World.export in
            (c, fst (Client.mkdir c root (Printf.sprintf "st%d" i))))
      in
      setup_done ();
      for r = 1 to size.units do
        let name = Printf.sprintf "copy%d" r in
        let seed = Rng.int rng 251 in
        let jitter = Array.init copy_stations (fun _ -> Rng.int rng start_spread) in
        let fhs = Array.make copy_stations None in
        window o w (fun () ->
            join w
              (List.init copy_stations (fun i () ->
                   let c, dir = stations.(i) in
                   Engine.delay jitter.(i);
                   fhs.(i) <- copy_file o w c dir ~name ~total ~seed)));
        (* Removing is part of the loop: four 16 MB files per round would
           fill the 96 MB spindle within two rounds. *)
        Array.iteri
          (fun i (c, dir) ->
            match fhs.(i) with
            | None -> problem o (Printf.sprintf "write_copy: st%d/%s was not created" i name)
            | Some fh ->
                if not (File_writer.verify c ~fh ~total ~seed) then
                  problem o (Printf.sprintf "write_copy: st%d/%s reads back wrong" i name);
                ignore
                  (attempt o w ~live:false ~proc:"REMOVE" ~start:(Engine.now w.eng) (fun () ->
                       Client.remove c dir name)))
          stations
      done)

(* {1 boot_storm}

   Eight diskless clients, power-on staggered 5 ms, boot from a
   read-only export with read-ahead on, against a cold server cache:
   the server is crashed and restarted before every storm. The walk is
   Boot.boot's (MOUNT, then two passes over Boot.boot_set of LOOKUP,
   LOOKUP, GETATTR and whole-file 8 KB READs), replayed here so each
   RPC is timed (Boot.boot only reports a latency sum). *)

let boot_world =
  { World.nfsds = 16; cache_blocks = Some 112; readahead = Some Buffer_cache.default_readahead }

let fleet = 8

let boot_one o (w : World.t) client =
  let t0 = Engine.now w.eng in
  let rpc ~proc ?bytes ?args f =
    Option.iter (fun a -> note o a) args;
    attempt o w ~live:true ~proc ~start:(Engine.now w.eng) ?bytes f
  in
  let read_bytes = ref 0 in
  let walk root =
    List.for_all
      (fun (f : Boot.file_spec) ->
        match
          rpc ~proc:"LOOKUP" ~args:(fun () -> Proto.Lookup (root, f.dir)) (fun () ->
              Client.lookup client root f.dir)
        with
        | None -> false
        | Some (dir, _) -> (
            match
              rpc ~proc:"LOOKUP" ~args:(fun () -> Proto.Lookup (dir, f.name)) (fun () ->
                  Client.lookup client dir f.name)
            with
            | None -> false
            | Some (fh, _) ->
                Option.is_some
                  (rpc ~proc:"GETATTR" ~args:(fun () -> Proto.Getattr fh) (fun () ->
                       Client.getattr client fh))
                &&
                let rec reads b =
                  b >= f.size / block
                  ||
                  match
                    rpc ~proc:"READ" ~bytes:Bytes.length
                      ~args:(fun () -> Proto.Read { fh; offset = b * block; count = block })
                      (fun () -> Client.read client fh ~off:(b * block) ~len:block)
                  with
                  | Some data ->
                      read_bytes := !read_bytes + Bytes.length data;
                      reads (b + 1)
                  | None -> false
                in
                reads 0))
      Boot.boot_set
  in
  match rpc ~proc:"MNT" (fun () -> Client.mount_flags client World.export) with
  | None -> ()
  | Some (root, read_only) ->
      if not read_only then problem o "boot_storm: the export is not advertised read-only";
      ignore (walk root && walk root);
      if !read_bytes <> 2 * Boot.total_bytes then
        problem o
          (Printf.sprintf "boot_storm: a boot read %d bytes, not %d" !read_bytes (2 * Boot.total_bytes))
      else Samples.add o.task (float_of_int (Engine.now w.eng - t0))

let boot_storm ~setup_only o size rng =
  in_world ~setup_only o boot_world (fun w setup_done ->
      let _, admin = World.client w "admin" in
      Boot.populate admin (Client.mount admin World.export);
      List.iter (fun v -> Volume.set_read_only v true) (Server.volumes w.World.server);
      setup_done ();
      for s = 1 to size.units do
        World.crash_restart w ~downtime:(Time.ms 50);
        (* Power-on instants: exponential gaps, 5 ms apart on average. *)
        let starts = Array.make fleet 0 in
        for i = 1 to fleet - 1 do
          starts.(i) <- starts.(i - 1) + Time.of_sec_f (Rng.exponential rng 0.005)
        done;
        window o w (fun () ->
            join w
              (List.init fleet (fun i () ->
                   Engine.delay starts.(i);
                   let sock, c = World.client w (Printf.sprintf "ws%d.%d" s i) in
                   boot_one o w c;
                   Socket.detach sock)))
      done)

(* {1 sfs_mix}

   The SFS 1.0 op mix Laddis uses, from twelve stations with Poisson
   arrivals at a fixed 80 ops/s ([sfs_rate], an open loop), each op
   timed from the instant it was due. Unlike Laddis.run, every failure
   is counted. *)

let sfs_world = { World.nfsds = 8; cache_blocks = Some 1024; readahead = None }
let sfs_stations = 12
let sfs_files = 2
let sfs_rate = 80.0

type op = Lookup | Read | Write | Getattr | Readlink | Readdir | Create | Remove | Setattr | Statfs

let mix =
  [
    (34.0, Lookup);
    (22.0, Read);
    (15.0, Write);
    (13.0, Getattr);
    (8.0, Readlink);
    (3.0, Readdir);
    (2.0, Create);
    (1.0, Remove);
    (1.0, Setattr);
    (1.0, Statfs);
  ]

(* A write burst is 1-7 blocks, 4 on average, each WRITE RPC one op. *)
let ops_per_arrival =
  let total = List.fold_left (fun a (w, _) -> a +. w) 0.0 mix in
  List.fold_left (fun a (w, op) -> a +. (w /. total *. if op = Write then 4.0 else 1.0)) 0.0 mix

type station = {
  client : Client.t;
  biods : pool;
  dir : Proto.fh;
  files : (string * Proto.fh) array;
  links : Proto.fh array;
  blocks : int;
  rng : Rng.t;
  mutable cursor : int;  (** rotating block offset for write bursts *)
  mutable extra : int;  (** names for creates *)
  mutable created : string list;
}

let fill = Bytes.make block 'w'

let setup_station o (w : World.t) rng ~file_bytes i =
  let _, client = World.client w (Printf.sprintf "ld%d" i) in
  let root = Client.mount client World.export in
  let dir, _ = Client.mkdir client root (Printf.sprintf "proc%d" i) in
  let biods = pool client in
  let blocks = file_bytes / block in
  let files =
    Array.init sfs_files (fun j ->
        let name = Printf.sprintf "f%d" j in
        let fh, _ = Client.create_file client dir name in
        for b = 0 to blocks - 1 do
          write_block o w biods fh ~off:(b * block) fill ~live:false ~start:(Engine.now w.eng)
            ~on_done:ignore
        done;
        (name, fh))
  in
  drain biods;
  let links =
    Array.init 4 (fun j ->
        fst (Client.symlink client dir (Printf.sprintf "l%d" j) ~target:(Printf.sprintf "f%d" j)))
  in
  { client; biods; dir; files; links; blocks; rng = Rng.split rng; cursor = 0; extra = 0; created = [] }

let do_op o (w : World.t) st ~due ~live op =
  let c = st.client in
  let single ~proc args f =
    note o args;
    if Option.is_some (attempt o w ~live ~proc ~start:due f) && live then
      Samples.add o.task (float_of_int (Engine.now w.eng - due))
  in
  let any_file () = st.files.(Rng.int st.rng (Array.length st.files)) in
  let create () =
    st.extra <- st.extra + 1;
    let name = Printf.sprintf "tmp%d" st.extra in
    single ~proc:"CREATE"
      (fun () -> Proto.Create { dir = st.dir; name; sattr = Proto.sattr_none })
      (fun () ->
        ignore (Client.create_file c st.dir name);
        st.created <- name :: st.created)
  in
  match op with
  | Lookup ->
      let name, _ = any_file () in
      single ~proc:"LOOKUP" (fun () -> Proto.Lookup (st.dir, name)) (fun () -> Client.lookup c st.dir name)
  | Getattr ->
      let _, fh = any_file () in
      single ~proc:"GETATTR" (fun () -> Proto.Getattr fh) (fun () -> Client.getattr c fh)
  | Readlink ->
      let fh = st.links.(Rng.int st.rng (Array.length st.links)) in
      single ~proc:"READLINK" (fun () -> Proto.Readlink fh) (fun () -> Client.readlink c fh)
  | Read ->
      let _, fh = any_file () in
      let off = Rng.int st.rng st.blocks * block in
      note o (fun () -> Proto.Read { fh; offset = off; count = block });
      if
        Option.is_some
          (attempt o w ~live ~proc:"READ" ~start:due ~bytes:Bytes.length (fun () ->
               Client.read c fh ~off ~len:block))
        && live
      then Samples.add o.task (float_of_int (Engine.now w.eng - due))
  | Write ->
      (* Write-behind, as Laddis: the burst is handed to the biods and
         the station moves on; it blocks only when all biods are busy. *)
      let _, fh = any_file () in
      let n = 1 + Rng.int st.rng 7 in
      let left = ref n in
      let on_done () =
        decr left;
        if !left = 0 && live then Samples.add o.task (float_of_int (Engine.now w.eng - due))
      in
      for i = 0 to n - 1 do
        let off = (st.cursor + i) mod st.blocks * block in
        write_block o w st.biods fh ~off fill ~live ~start:due ~on_done
      done;
      st.cursor <- (st.cursor + n) mod st.blocks
  | Readdir ->
      single ~proc:"READDIR"
        (fun () -> Proto.Readdir { fh = st.dir; cookie = 0; count = block })
        (fun () -> Client.readdir c st.dir)
  | Create -> create ()
  | Remove -> (
      match st.created with
      | name :: rest ->
          st.created <- rest;
          single ~proc:"REMOVE" (fun () -> Proto.Remove { dir = st.dir; name }) (fun () ->
              Client.remove c st.dir name)
      | [] -> create ())
  | Setattr ->
      let _, fh = any_file () in
      let sattr =
        { Proto.sattr_none with Proto.s_mtime = Some (Proto.timeval_of_ns (Engine.now w.eng)) }
      in
      single ~proc:"SETATTR" (fun () -> Proto.Setattr (fh, sattr)) (fun () -> Client.setattr c fh sattr)
  | Statfs -> single ~proc:"STATFS" (fun () -> Proto.Statfs st.dir) (fun () -> Client.statfs c st.dir)

let sfs_mix ~setup_only o size rng =
  let file_bytes = if size.small then 64 * 1024 else 1024 * 1024 in
  let warmup = if size.small then Time.sec 1 else Time.sec 5 in
  in_world ~setup_only o sfs_world (fun w setup_done ->
      let stations = Array.init sfs_stations (setup_station o w rng ~file_bytes) in
      setup_done ();
      let ws = Engine.now w.eng + warmup in
      let we = ws + Time.sec size.units in
      let mean_gap = ops_per_arrival /. (sfs_rate /. float_of_int sfs_stations) in
      let finished = ref 0 in
      let all_done = Condition.create () in
      Array.iter
        (fun st ->
          Engine.spawn w.eng ~name:"sfs" (fun () ->
              let due = ref (Engine.now w.eng + Time.of_sec_f (Rng.exponential st.rng mean_gap)) in
              while !due < we do
                let now = Engine.now w.eng in
                if now < !due then Engine.delay (!due - now);
                let live = !due >= ws in
                if live then Samples.add o.late (float_of_int (Engine.now w.eng - !due));
                do_op o w st ~due:!due ~live (Rng.weighted st.rng mix);
                due := !due + Time.of_sec_f (Rng.exponential st.rng mean_gap)
              done;
              drain st.biods;
              incr finished;
              if !finished = sfs_stations then Condition.broadcast all_done))
        stations;
      Engine.delay warmup;
      window o w (fun () ->
          while !finished < sfs_stations do
            Condition.wait all_done
          done))

(* {1 Runs} *)

let all = [ ("write_copy", write_copy); ("sfs_mix", sfs_mix); ("boot_storm", boot_storm) ]

(* World seeds: the measured worlds' first, so that a traced run and an
   untraced run of one seed build the same measured worlds. *)
let world_seeds size ~seed =
  let master = Rng.create seed in
  let draw n = List.init n (fun _ -> Rng.int master 0x3fffffff) in
  let measured = draw size.worlds in
  (measured, draw (Stdlib.max 0 (size.setups - size.worlds)))

(* Set-ups beyond [size.worlds] come first, in worlds that stop after
   set-up: the first world of a process also pays for fresh memory, and
   the median should not hinge on it. *)
let run name size ~seed =
  let f = List.assoc name all in
  let o = outcome () in
  let measured, setup_only = world_seeds size ~seed in
  List.iter (fun s -> f ~setup_only:true o size (Rng.create s)) setup_only;
  List.iter (fun s -> f ~setup_only:false o size (Rng.create s)) measured;
  o

(* The measured worlds twice, untraced and traced, world by world and
   alternating which pass goes first, so that neither pass is the one
   that always runs on a warmer heap. *)
let run_traced name size ~seed probe =
  let f = List.assoc name all in
  let u = outcome () and t = outcome ~probe () in
  List.iteri
    (fun i s ->
      let pass o = f ~setup_only:false o size (Rng.create s) in
      if i mod 2 = 0 then (pass u; pass t) else (pass t; pass u))
    (fst (world_seeds size ~seed));
  (u, t)
