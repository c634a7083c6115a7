open Nfsg_sim

type geometry = {
  capacity : int;
  track_bytes : int;
  rpm : float;
  media_rate : float;
  seek_single : Time.t;
  seek_full : Time.t;
  command_overhead : Time.t;
}

let rz26 ?(capacity = 96 * 1024 * 1024) () =
  {
    capacity;
    track_bytes = 400 * 1024;
    rpm = 5400.0;
    media_rate = 2.6e6;
    seek_single = Time.of_ms_f 1.2;
    seek_full = Time.of_ms_f 19.0;
    command_overhead = Time.of_us_f 500.0;
  }

let seek_time g ~cylinders ~distance =
  if distance <= 0 then Time.zero
  else begin
    let span = Stdlib.max 1 (cylinders - 1) in
    let frac = sqrt (float_of_int distance /. float_of_int span) in
    let single = float_of_int g.seek_single and full = float_of_int g.seek_full in
    int_of_float (single +. ((full -. single) *. frac))
  end

type scheduler = Fifo | Elevator | Deadline

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
  m_queue_gauge : Nfsg_stats.Metrics.gauge;
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
    m_queue_gauge = M.gauge metrics ~ns Names.queue_depth_peak;
  }

(* A queued item on the request ring, with its submission instant (for
   queue-wait accounting and deadline promotion) and its submission
   batch: every item of one [submit] call shares a batch id, and a
   barrier orders only the items of its own batch. The ring is circular
   through the state's sentinel node and holds items in arrival order;
   a [submit] appends its whole batch without yielding, so each batch's
   surviving items sit back to back. *)
type node = {
  it : Io.item;
  enq : Time.t;
  batch : int;
  mutable prev : node;
  mutable next : node;
}

(* The platter is stored in [chunk_bytes] pieces, each the shared
   [Bytes.empty] until the first write that touches it: a world pays for
   the bytes it writes, not for the capacity it models. *)
let chunk_bytes = 64 * 1024

type state = {
  eng : Engine.t;
  g : geometry;
  scheduler : scheduler;
  deadline : Time.t;  (** max tolerated queue wait before promotion *)
  merge : bool;
  merge_limit : int;  (** upper bound on a coalesced transaction, bytes *)
  platter : Bytes.t array;
  ring : node;  (** sentinel: [ring.next] is the oldest queued item *)
  mutable depth : int;  (** items on the ring *)
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

(* Copy [len] platter bytes from device offset [off] into [dst] at
   [pos]; a chunk never written reads as zeros. *)
let rec platter_read st ~off dst ~pos ~len =
  if len > 0 then begin
    let within = off mod chunk_bytes in
    let n = Stdlib.min len (chunk_bytes - within) in
    let chunk = st.platter.(off / chunk_bytes) in
    if chunk == Bytes.empty then Bytes.fill dst pos n '\000' else Bytes.blit chunk within dst pos n;
    platter_read st ~off:(off + n) dst ~pos:(pos + n) ~len:(len - n)
  end

(* Copy [len] bytes of [src] from [pos] onto the platter at [off],
   materialising each chunk on its first write. The last chunk is cut
   to the capacity. *)
let rec platter_write st ~off src ~pos ~len =
  if len > 0 then begin
    let i = off / chunk_bytes and within = off mod chunk_bytes in
    let n = Stdlib.min len (chunk_bytes - within) in
    if st.platter.(i) == Bytes.empty then
      st.platter.(i) <- Bytes.make (Stdlib.min chunk_bytes (st.g.capacity - (i * chunk_bytes))) '\000';
    Bytes.blit src pos st.platter.(i) within n;
    platter_write st ~off:(off + n) src ~pos:(pos + n) ~len:(len - n)
  end

let append st n =
  n.prev <- st.ring.prev;
  n.next <- st.ring;
  st.ring.prev.next <- n;
  st.ring.prev <- n;
  st.depth <- st.depth + 1

let unlink st n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev;
  st.depth <- st.depth - 1

let no_batch = 0

(* The serviceable window is every request not ordered behind a barrier
   of its own submission batch. A barrier promises only that its
   batch's later items stay behind its batch's earlier items — one
   gathered flush's inode behind that flush's data — so requests of
   OTHER batches pass it freely and the scheduler may reorder and
   merge across it. A device-global fence here would lace a busy queue
   with serialization points (one per concurrent file flush) and
   flatten every scheduling policy back to FIFO at the tail.

   [serviceable st n fence] is the first window request at or after
   [n], or the sentinel. Batches are contiguous on the ring, so a
   request is fenced exactly when the last barrier passed belongs to
   its batch: [fence]. Resuming after a returned request with no fence
   is exact, since [fence]'s batch ended before that request. *)
let rec serviceable st n fence =
  if n == st.ring then n
  else
    match n.it with
    | Io.Barrier _ -> serviceable st n.next n.batch
    | Io.Req _ -> if n.batch = fence then serviceable st n.next fence else n

let first_in_window st = serviceable st st.ring.next no_batch
let next_in_window st n = serviceable st n.next no_batch

let req n = match n.it with Io.Req r -> r | Io.Barrier _ -> assert false

let cyl st n = (req n).Io.off / st.g.track_bytes

(* C-LOOK over the window: nearest cylinder at or beyond the head; if
   none, wrap to the lowest pending cylinder. Ties go to the earliest
   arrival. *)
let elevator_pick st =
  let rec go n ahead lowest =
    if n == st.ring then if ahead != st.ring then ahead else lowest
    else begin
      let c = cyl st n in
      let ahead = if c >= st.head_cyl && (ahead == st.ring || c < cyl st ahead) then n else ahead in
      let lowest = if lowest == st.ring || c < cyl st lowest then n else lowest in
      go (next_in_window st n) ahead lowest
    end
  in
  go (first_in_window st) st.ring st.ring

(* Pick the next request per policy, or the sentinel. The window is in
   arrival order, so its head is the oldest request — under [Deadline]
   a head that has waited past the threshold is served out of elevator
   order, which bounds the starvation a far-cylinder request can suffer
   while the elevator feasts on a stream of near-head arrivals. *)
let pick st =
  let first = first_in_window st in
  if first == st.ring then first
  else
    match st.scheduler with
    | Fifo -> first
    | Elevator -> elevator_pick st
    | Deadline ->
        if Engine.now st.eng - first.enq > st.deadline then begin
          Nfsg_stats.Metrics.incr st.inst.m_promotions;
          first
        end
        else elevator_pick st

(* Retire every barrier with no earlier same-batch request still
   queued: its ordering promise is discharged. Batches are contiguous,
   so that is a barrier whose batch differs from the last request
   passed. Runs only between service rounds in the daemon (the sole
   consumer), so a batch's requests are either still ahead of their
   barrier on the ring or already durable — never invisibly in
   flight. *)
let retire_barriers st =
  let rec go n live =
    if n != st.ring then begin
      let next = n.next in
      match n.it with
      | Io.Req _ -> go next n.batch
      | Io.Barrier b ->
          if n.batch <> live then begin
            unlink st n;
            Nfsg_stats.Metrics.incr st.inst.m_barriers;
            Ivar.fill b.done_ ()
          end;
          go next live
    end
  in
  go st.ring.next no_batch

(* Chain physically adjacent same-direction requests from the window
   onto [leader], already off the ring, bounded by [merge_limit]: one
   seek, one rotational wait, one transfer for the lot. The chain is
   returned in ascending offset order, [leader] first. *)
let merge_chain st leader =
  if not st.merge then [ leader ]
  else begin
    let r = req leader in
    let rec adjacent n ~tail_end ~total =
      if n == st.ring then n
      else
        let x = req n in
        if x.Io.op = r.Io.op && x.Io.off = tail_end && total + x.Io.len <= st.merge_limit then n
        else adjacent (next_in_window st n) ~tail_end ~total
    in
    let rec grow chain tail_end total =
      let n = adjacent (first_in_window st) ~tail_end ~total in
      if n == st.ring then List.rev chain
      else begin
        unlink st n;
        let x = req n in
        grow (n :: chain) (x.Io.off + x.Io.len) (total + x.Io.len)
      end
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
  let first = req (List.hd chain) in
  let total = List.fold_left (fun acc n -> acc + (req n).Io.len) 0 chain in
  let start = Engine.now st.eng in
  List.iter
    (fun n -> Nfsg_stats.Histogram.add st.inst.m_queue_wait_us (Time.to_us_f (start - n.enq)))
    chain;
  let d = service_time st ~off:first.Io.off ~len:total in
  Engine.delay d;
  (* Data reaches the platter only if power held through the whole
     transfer: a crash mid-transaction loses every request in it, and
     the issuers never see a completion — like a powered-off drive. *)
  if not st.crashed then begin
    List.iter
      (fun n ->
        let r = req n in
        match r.Io.op with
        | Io.Write -> platter_write st ~off:r.Io.off r.Io.buf ~pos:0 ~len:r.Io.len
        | Io.Read -> platter_read st ~off:r.Io.off r.Io.buf ~pos:0 ~len:r.Io.len)
      chain;
    account st ~len:total ~busy:d;
    (match first.Io.op with
    | Io.Read ->
        Nfsg_stats.Metrics.incr st.inst.m_reads;
        Nfsg_stats.Metrics.add st.inst.m_bytes_read total
    | Io.Write ->
        Nfsg_stats.Metrics.incr st.inst.m_writes;
        Nfsg_stats.Metrics.add st.inst.m_bytes_written total);
    Nfsg_stats.Metrics.add st.inst.m_merged (List.length chain - 1);
    List.iter (fun n -> Io.complete (req n)) chain
  end

let daemon st () =
  let rec loop () =
    if st.crashed then begin
      (* Power is off: everything queued is lost — barriers included —
         and completions never come. Keep draining arrivals until
         recovery. *)
      st.ring.next <- st.ring;
      st.ring.prev <- st.ring;
      st.depth <- 0;
      Condition.wait st.arrived;
      loop ()
    end
    else begin
      retire_barriers st;
      let leader = pick st in
      if leader != st.ring then begin
        unlink st leader;
        service st (merge_chain st leader);
        loop ()
      end
      else begin
        (* After retirement, any non-empty queue leads with a
           serviceable request — pick finding nothing means the queue
           is empty. *)
        assert (st.depth = 0);
        Condition.wait st.arrived;
        loop ()
      end
    end
  in
  loop ()

let create eng ?(name = "disk") ?metrics ?(on_transaction = fun ~bytes:_ -> ())
    ?(scheduler = Fifo) ?(deadline = Time.of_ms_f 30.0) ?(merge = true)
    ?(merge_limit = 128 * 1024) g =
  let metrics = match metrics with Some m -> m | None -> Nfsg_stats.Metrics.create () in
  let rec ring =
    { it = Io.barrier (); enq = Time.zero; batch = no_batch; prev = ring; next = ring }
  in
  let st =
    {
      eng;
      g;
      scheduler;
      deadline;
      merge;
      merge_limit;
      platter = Array.make ((g.capacity + chunk_bytes - 1) / chunk_bytes) Bytes.empty;
      ring;
      depth = 0;
      next_batch = no_batch;
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
  (* A batch is checked whole before any of it is queued: a rejected
     batch leaves nothing behind. *)
  let submit items =
    match items with
    | [] -> ()
    | _ ->
        List.iter
          (function Io.Req r -> check_bounds st ~off:r.Io.off ~len:r.Io.len | Io.Barrier _ -> ())
          items;
        let enq = Engine.now st.eng in
        st.next_batch <- st.next_batch + 1;
        let batch = st.next_batch in
        List.iter (fun it -> append st { it; enq; batch; prev = st.ring; next = st.ring }) items;
        Nfsg_stats.Histogram.add st.inst.m_queue_depth (float_of_int st.depth);
        Nfsg_stats.Metrics.set_max st.inst.m_queue_gauge (float_of_int st.depth);
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
    flush = (fun () -> ());
    crash = (fun () -> st.crashed <- true);
    recover = (fun () -> st.crashed <- false);
    spindle_stats =
      (fun () ->
        { Device.transactions = st.transactions; bytes_moved = st.bytes_moved; busy_time = st.busy });
    stable_read =
      (fun ~off ~len ->
        check_bounds st ~off ~len;
        let buf = Bytes.create len in
        platter_read st ~off buf ~pos:0 ~len;
        buf);
    stable_write =
      (fun ~off data ->
        check_bounds st ~off ~len:(Bytes.length data);
        platter_write st ~off data ~pos:0 ~len:(Bytes.length data));
  }
