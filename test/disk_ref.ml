(* Reference model for Nfsg_disk.Disk: the disk as it was before the
   platter became sparse and the request queue an intrusive ring. The
   platter is one flat [Bytes] the size of the device; the queue is an
   arrival-order list rebuilt by [window], [remove] and
   [retire_barriers] on every dispatch. Slow but plainly correct;
   test_disk checks the real disk against it on random submission
   schedules. Geometry, seek curve and scheduler type are the real
   module's. *)

open Nfsg_sim
open Nfsg_disk
open Disk

(* Per-spindle instruments: the service-time split the paper's disk
   arguments rest on (seek vs rotation vs transfer), plus queue depth,
   per-request queue wait, and the scheduler's merge/promotion work. *)
type inst = {
  m_reads : Nfsg_stats.Metrics.counter;
  m_writes : Nfsg_stats.Metrics.counter;
  m_bytes_read : Nfsg_stats.Metrics.counter;
  m_bytes_written : Nfsg_stats.Metrics.counter;
  m_merged : Nfsg_stats.Metrics.counter;
  m_promotions : Nfsg_stats.Metrics.counter;
  m_barriers : Nfsg_stats.Metrics.counter;
  m_seek_us : Nfsg_stats.Histogram.t;
  m_rot_us : Nfsg_stats.Histogram.t;
  m_xfer_us : Nfsg_stats.Histogram.t;
  m_service_us : Nfsg_stats.Histogram.t;
  m_queue_depth : Nfsg_stats.Histogram.t;
  m_queue_wait_us : Nfsg_stats.Histogram.t;
  m_queue_peak : Nfsg_stats.Metrics.peak;
}

let make_inst metrics ~name =
  let module M = Nfsg_stats.Metrics in
  let module Names = Nfsg_stats.Names in
  let ns = Names.Ns.disk name in
  {
    m_reads = M.counter metrics ~ns Names.reads;
    m_writes = M.counter metrics ~ns Names.writes;
    m_bytes_read = M.counter metrics ~ns Names.bytes_read;
    m_bytes_written = M.counter metrics ~ns Names.bytes_written;
    m_merged = M.counter metrics ~ns Names.merged_requests;
    m_promotions = M.counter metrics ~ns Names.deadline_promotions;
    m_barriers = M.counter metrics ~ns Names.barriers;
    m_seek_us = M.histogram metrics ~ns Names.seek_us;
    m_rot_us = M.histogram metrics ~ns Names.rotation_us;
    m_xfer_us = M.histogram metrics ~ns Names.transfer_us;
    m_service_us = M.histogram metrics ~ns Names.service_us;
    m_queue_depth = M.histogram metrics ~ns Names.queue_depth;
    m_queue_wait_us = M.histogram metrics ~ns Names.queue_wait_us;
    m_queue_peak = M.peak metrics ~ns Names.queue_depth_peak;
  }

(* A queued request with its submission instant (for queue-wait
   accounting and deadline promotion) and its submission batch: every
   item of one [submit] call shares a batch id, and a barrier orders
   only the items of its own batch. *)
type pitem = { it : Io.item; enq : Time.t; batch : int }

type state = {
  eng : Engine.t;
  g : geometry;
  scheduler : scheduler;
  deadline : Time.t;  (** max tolerated queue wait before promotion *)
  merge : bool;
  merge_limit : int;  (** upper bound on a coalesced transaction, bytes *)
  platter : Bytes.t;
  mutable pending : pitem list;  (** arrival order (newest last) *)
  mutable next_batch : int;
  arrived : Condition.t;
  mutable head_cyl : int;
  mutable crashed : bool;
  mutable transactions : int;
  mutable bytes_moved : int;
  mutable busy : Time.t;
  on_transaction : bytes:int -> unit;
  inst : inst;
}

(* The serviceable window: every request not ordered behind a barrier
   of its own submission batch. A barrier promises only that its
   batch's later items stay behind its batch's earlier items — one
   gathered flush's inode behind that flush's data — so requests of
   OTHER batches pass it freely and the scheduler may reorder and
   merge across it. A device-global fence here would lace a busy queue
   with serialization points (one per concurrent file flush) and
   flatten every scheduling policy back to FIFO at the tail. *)
let window st =
  let fenced = Hashtbl.create 4 in
  let rec go acc = function
    | [] -> List.rev acc
    | p :: rest -> (
        match p.it with
        | Io.Barrier _ ->
            Hashtbl.replace fenced p.batch ();
            go acc rest
        | Io.Req r ->
            if Hashtbl.mem fenced p.batch then go acc rest
            else go ((r, p.enq) :: acc) rest)
  in
  go [] st.pending

let req_cyl st (r : Io.req) = r.Io.off / st.g.track_bytes

(* C-LOOK over the window: nearest cylinder at or beyond the head; if
   none, wrap to the lowest pending cylinder. *)
let elevator_pick st win =
  let ahead = List.filter (fun (r, _) -> req_cyl st r >= st.head_cyl) win in
  let best_of pool =
    List.fold_left
      (fun acc ((r, _) as c) ->
        match acc with
        | None -> Some c
        | Some (b, _) -> if req_cyl st r < req_cyl st b then Some c else acc)
      None pool
  in
  match best_of ahead with Some c -> Some c | None -> best_of win

(* Pick the next request per policy. The window is in arrival order, so
   its head is the oldest request — under [Deadline] a head that has
   waited past the threshold is served out of elevator order, which
   bounds the starvation a far-cylinder request can suffer while the
   elevator feasts on a stream of near-head arrivals. *)
let pick st =
  match window st with
  | [] -> None
  | (((_, first_enq) as first) :: _) as win -> (
      match st.scheduler with
      | Fifo -> Some first
      | Elevator -> elevator_pick st win
      | Deadline ->
          if Engine.now st.eng - first_enq > st.deadline then begin
            Nfsg_stats.Metrics.incr st.inst.m_promotions;
            Some first
          end
          else elevator_pick st win)

let remove st (r : Io.req) =
  st.pending <-
    List.filter (fun p -> match p.it with Io.Req x -> x != r | Io.Barrier _ -> true) st.pending

(* Retire every barrier with no earlier same-batch request still
   pending: its ordering promise is discharged. Runs only between
   service rounds in the daemon (the sole consumer), so a batch's
   requests are either still ahead of their barrier in [pending] or
   already durable — never invisibly in flight. *)
let retire_barriers st =
  let live = Hashtbl.create 4 in
  st.pending <-
    List.filter
      (fun p ->
        match p.it with
        | Io.Req _ ->
            Hashtbl.replace live p.batch ();
            true
        | Io.Barrier b ->
            Hashtbl.mem live p.batch
            ||
            (Nfsg_stats.Metrics.incr st.inst.m_barriers;
             Ivar.fill b.done_ ();
             false))
      st.pending

(* Chain physically adjacent same-direction requests from the window
   onto [r], bounded by [merge_limit]: one seek, one rotational wait,
   one transfer for the lot. The chain is returned in ascending offset
   order, [r] first. *)
let merge_chain st ((r, _) as leader) =
  if not st.merge then [ leader ]
  else begin
    let rec grow chain tail_end total =
      let next =
        List.find_opt
          (fun (x, _) ->
            Io.is_write x = Io.is_write r && x.Io.off = tail_end && total + x.Io.len <= st.merge_limit)
          (window st)
      in
      match next with
      | Some ((x, _) as c) ->
          remove st x;
          grow (c :: chain) (x.Io.off + x.Io.len) (total + x.Io.len)
      | None -> List.rev chain
    in
    grow [ leader ] (r.Io.off + r.Io.len) r.Io.len
  end

let cylinders st = Stdlib.max 1 (st.g.capacity / st.g.track_bytes)

let rotation_period st = Time.of_sec_f (60.0 /. st.g.rpm)

(* Rotational delay from [at] until the platter angle matches the sector
   at byte offset [off]. *)
let rotational_delay st ~at ~off =
  let period = rotation_period st in
  let target = off mod st.g.track_bytes in
  (* Fraction of a rotation the target sector sits at. *)
  let target_phase = float_of_int target /. float_of_int st.g.track_bytes in
  let target_ns = int_of_float (target_phase *. float_of_int period) in
  let current = at mod period in
  let d = (target_ns - current + period) mod period in
  d

let service_time st ~off ~len =
  let cyl = off / st.g.track_bytes in
  let dist = abs (cyl - st.head_cyl) in
  let seek = seek_time st.g ~cylinders:(cylinders st) ~distance:dist in
  let settled = Engine.now st.eng + st.g.command_overhead + seek in
  let rot = rotational_delay st ~at:settled ~off in
  let xfer = Time.of_sec_f (float_of_int len /. st.g.media_rate) in
  st.head_cyl <- (off + len) / st.g.track_bytes;
  Nfsg_stats.Histogram.add st.inst.m_seek_us (Time.to_us_f seek);
  Nfsg_stats.Histogram.add st.inst.m_rot_us (Time.to_us_f rot);
  Nfsg_stats.Histogram.add st.inst.m_xfer_us (Time.to_us_f xfer);
  let total = st.g.command_overhead + seek + rot + xfer in
  Nfsg_stats.Histogram.add st.inst.m_service_us (Time.to_us_f total);
  total

let check_bounds st ~off ~len =
  if off < 0 || len < 0 || off + len > st.g.capacity then
    invalid_arg
      (Printf.sprintf "disk: request [%d, %d) outside capacity %d" off (off + len) st.g.capacity)

let account st ~len ~busy =
  st.transactions <- st.transactions + 1;
  st.bytes_moved <- st.bytes_moved + len;
  st.busy <- st.busy + busy;
  st.on_transaction ~bytes:len

(* Service one coalesced transaction: the chain is contiguous, so its
   span costs one seek + one rotational wait + one transfer. *)
let service st chain =
  let first = match chain with (r, _) :: _ -> r | [] -> assert false in
  let total = List.fold_left (fun acc (r, _) -> acc + r.Io.len) 0 chain in
  let start = Engine.now st.eng in
  List.iter
    (fun (_, enq) ->
      Nfsg_stats.Histogram.add st.inst.m_queue_wait_us (Time.to_us_f (start - enq)))
    chain;
  let d = service_time st ~off:first.Io.off ~len:total in
  Engine.delay d;
  (* Data reaches the platter only if power held through the whole
     transfer: a crash mid-transaction loses every request in it, and
     the issuers never see a completion — like a powered-off drive. *)
  if not st.crashed then begin
    List.iter
      (fun (r, _) ->
        match r.Io.op with
        | Io.Write _ -> Bytes.blit (Io.sub r ~pos:0 ~len:r.Io.len) 0 st.platter r.Io.off r.Io.len
        | Io.Read buf -> Bytes.blit st.platter r.Io.off buf 0 r.Io.len)
      chain;
    account st ~len:total ~busy:d;
    (match first.Io.op with
    | Io.Read _ ->
        Nfsg_stats.Metrics.incr st.inst.m_reads;
        Nfsg_stats.Metrics.add st.inst.m_bytes_read total
    | Io.Write _ ->
        Nfsg_stats.Metrics.incr st.inst.m_writes;
        Nfsg_stats.Metrics.add st.inst.m_bytes_written total);
    Nfsg_stats.Metrics.add st.inst.m_merged (List.length chain - 1);
    List.iter (fun (r, _) -> Io.complete r) chain
  end

let daemon st () =
  let rec loop () =
    if st.crashed then begin
      (* Power is off: everything queued is lost — barriers included —
         and completions never come. Keep draining arrivals until
         recovery. *)
      st.pending <- [];
      Condition.wait st.arrived;
      loop ()
    end
    else begin
      retire_barriers st;
      match pick st with
      | Some leader ->
          remove st (fst leader);
          let chain = merge_chain st leader in
          service st chain;
          loop ()
      | None ->
          (* After retirement, any non-empty queue leads with a
             serviceable request — pick finding nothing means the
             queue is empty. *)
          assert (st.pending = []);
          Condition.wait st.arrived;
          loop ()
    end
  in
  loop ()

let create eng ?(name = "disk") ?metrics ?(on_transaction = fun ~bytes:_ -> ())
    ?(scheduler = Fifo) ?(deadline = Time.of_ms_f 30.0) ?(merge = true)
    ?(merge_limit = 128 * 1024) g =
  let metrics = match metrics with Some m -> m | None -> Nfsg_stats.Metrics.create () in
  let st =
    {
      eng;
      g;
      scheduler;
      deadline;
      merge;
      merge_limit;
      platter = Bytes.make g.capacity '\000';
      pending = [];
      next_batch = 0;
      arrived = Condition.create ();
      head_cyl = 0;
      crashed = false;
      transactions = 0;
      bytes_moved = 0;
      busy = Time.zero;
      on_transaction;
      inst = make_inst metrics ~name;
    }
  in
  Engine.spawn eng ~name:(name ^ "-daemon") (daemon st);
  let submit items =
    match items with
    | [] -> ()
    | _ ->
        let enq = Engine.now st.eng in
        st.next_batch <- st.next_batch + 1;
        let batch = st.next_batch in
        List.iter
          (fun it ->
            (match it with
            | Io.Req r -> check_bounds st ~off:r.Io.off ~len:r.Io.len
            | Io.Barrier _ -> ());
            st.pending <- st.pending @ [ { it; enq; batch } ])
          items;
        let depth = List.length st.pending in
        Nfsg_stats.Histogram.add st.inst.m_queue_depth (float_of_int depth);
        Nfsg_stats.Metrics.set_max st.inst.m_queue_peak (float_of_int depth);
        Condition.signal st.arrived
  in
  let read ~off ~len =
    check_bounds st ~off ~len;
    Io.blocking_read ~submit ~off ~len
  in
  let write ~off data =
    check_bounds st ~off ~len:(Bytes.length data);
    Io.blocking_write ~submit ~class_:`Sync_write ~off data
  in
  {
    Device.name;
    capacity = g.capacity;
    accelerated = (fun () -> false);
    submit;
    read;
    write;
    crash = (fun () -> st.crashed <- true);
    recover = (fun () -> st.crashed <- false);
    spindle_stats =
      (fun () ->
        { Device.transactions = st.transactions; bytes_moved = st.bytes_moved; busy_time = st.busy });
    stable_read =
      (fun ~off ~len ->
        check_bounds st ~off ~len;
        Bytes.sub st.platter off len);
    stable_write =
      (fun ~off data ->
        check_bounds st ~off ~len:(Bytes.length data);
        Bytes.blit data 0 st.platter off (Bytes.length data));
    stable_page = Device.no_page;
  }
