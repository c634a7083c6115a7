open Nfsg_sim

type params = {
  capacity : int;
  accept_limit : int;
  copy_rate : float;
  copy_overhead : Time.t;
  flush_cluster : int;
  flush_trigger : int;
  flush_idle : Time.t;
}

(* Lazy draining is the point of the board: dirty blocks (notably the
   inode block a sequential writer rewrites on every WRITE) sit in
   battery-backed RAM coalescing until the high watermark forces big,
   efficient spindle transactions. *)
let default_params =
  {
    capacity = 1024 * 1024;
    accept_limit = 8 * 1024;
    copy_rate = 50e6;
    copy_overhead = Time.of_us_f 80.0;
    flush_cluster = 128 * 1024;
    flush_trigger = 640 * 1024;
    flush_idle = Time.of_ms_f 200.0;
  }

(* Board instruments: what the cache absorbed, what it declined, how
   big the drain transactions coalesced, and battery state. *)
type inst = {
  m_accepted : Nfsg_stats.Metrics.counter;
  m_declined : Nfsg_stats.Metrics.counter;
  m_passthrough : Nfsg_stats.Metrics.counter;
  m_read_hits : Nfsg_stats.Metrics.counter;
  m_read_misses : Nfsg_stats.Metrics.counter;
  m_flushes : Nfsg_stats.Metrics.counter;
  m_flush_retries : Nfsg_stats.Metrics.counter;
  m_battery_failures : Nfsg_stats.Metrics.counter;
  m_flush_bytes : Nfsg_stats.Histogram.t;
  m_dirty_gauge : Nfsg_stats.Metrics.gauge;
  m_dirty_peak : Nfsg_stats.Metrics.peak;
  m_battery_gauge : Nfsg_stats.Metrics.gauge;
}

let make_inst metrics ~name =
  let module M = Nfsg_stats.Metrics in
  let module Names = Nfsg_stats.Names in
  let ns = Names.Ns.nvram name in
  let i =
    {
      m_accepted = M.counter metrics ~ns Names.writes_accepted;
      m_declined = M.counter metrics ~ns Names.writes_declined;
      m_passthrough = M.counter metrics ~ns Names.writes_passthrough;
      m_read_hits = M.counter metrics ~ns Names.read_hits;
      m_read_misses = M.counter metrics ~ns Names.read_misses;
      m_flushes = M.counter metrics ~ns Names.flushes;
      m_flush_retries = M.counter metrics ~ns Names.flush_retries;
      m_battery_failures = M.counter metrics ~ns Names.battery_failures;
      m_flush_bytes = M.histogram metrics ~ns ~least:512.0 Names.flush_batch_bytes;
      m_dirty_gauge = M.gauge metrics ~ns Names.dirty_bytes;
      m_dirty_peak = M.peak metrics ~ns Names.dirty_bytes_peak;
      m_battery_gauge = M.gauge metrics ~ns Names.battery_ok;
    }
  in
  M.set i.m_battery_gauge 1.0;
  i

type t = {
  eng : Engine.t;
  p : params;
  backing : Device.t;
  dirty : Extent_map.t;
  mutable copying : int;  (** bytes of accepted writes still being copied in *)
  mutable in_flight : (int * Bytes.t) option;
  mutable rotor : int;  (** elevator position for the drain sweep *)
  mutable crashed : bool;
  mutable draining : bool;
  mutable battery_ok : bool;
  mutable gen : int;  (** flusher generation; bumped on recovery *)
  more : Condition.t;  (** new dirty data *)
  space : Condition.t;  (** NVRAM space freed *)
  clean : Condition.t;  (** cache fully drained *)
  inst : inst;
}

let used st =
  Extent_map.total_bytes st.dirty + st.copying
  + match st.in_flight with Some (_, d) -> Bytes.length d | None -> 0

let note_dirty st =
  let module M = Nfsg_stats.Metrics in
  let v = float_of_int (used st) in
  M.set st.inst.m_dirty_gauge v;
  M.set_max st.inst.m_dirty_peak v

let is_clean st = Extent_map.is_empty st.dirty && st.in_flight = None

(* Boards smaller than the configured watermark still have to drain
   under space pressure. *)
let effective_trigger st = Stdlib.min st.p.flush_trigger (st.p.capacity / 2)

(* Next contiguous dirty run in elevator order, up to flush_cluster
   bytes. Sweeping (instead of always draining the lowest extent)
   keeps a constantly-redirtied inode block from monopolising the
   drain while sequential data piles up behind it. *)
let next_cluster st =
  match Extent_map.take_after st.dirty ~off:st.rotor ~max:st.p.flush_cluster with
  | Some (off, data) as r ->
      st.rotor <- off + Bytes.length data;
      r
  | None -> None

let rec flusher st my_gen () =
  if my_gen = st.gen then begin
    if Extent_map.is_empty st.dirty || st.crashed then begin
      if is_clean st then Condition.broadcast st.clean;
      Condition.wait st.more;
      flusher st my_gen ()
    end
    else if (not st.draining) && Extent_map.total_bytes st.dirty < effective_trigger st then begin
      (* Below the watermark: let dirty data age and coalesce. A new
         write only re-checks the watermark; an undisturbed idle
         period forces an age-out flush. *)
      let signalled = Condition.wait_timeout st.eng st.more st.p.flush_idle in
      if my_gen = st.gen && (not st.crashed) && not signalled then flush_one st;
      flusher st my_gen ()
    end
    else begin
      flush_one st;
      flusher st my_gen ()
    end
  end

and flush_one st =
  match next_cluster st with
  | None -> ()
  | Some (off, data) -> (
      st.in_flight <- Some (off, data);
      (* Drain as a background-class submission: the platter's
         scheduler can tell a lazy drain from a latency-critical
         synchronous write and merge/reorder it accordingly. The data
         buffer is ours (it left the dirty map), so no copy. *)
      let drain () =
        let r = Io.write_req ~class_:`Bg_drain ~off [ data ] in
        st.backing.Device.submit [ Io.Req r ];
        Io.await r
      in
      match drain () with
      | () ->
          st.in_flight <- None;
          Nfsg_stats.Metrics.incr st.inst.m_flushes;
          Nfsg_stats.Histogram.add st.inst.m_flush_bytes
            (float_of_int (Bytes.length data));
          note_dirty st;
          if is_clean st then st.draining <- false;
          Condition.broadcast st.space;
          if is_clean st then Condition.broadcast st.clean
      | exception Device.Io_error _ ->
          (* Transient backing failure: the data is still battery-backed,
             so put it back in the dirty map (bytes written while the
             attempt was in flight win) and retry after a pause. *)
          Extent_map.apply st.dirty ~off data;
          Extent_map.insert st.dirty ~off data;
          st.in_flight <- None;
          Nfsg_stats.Metrics.incr st.inst.m_flush_retries;
          Engine.delay (Time.of_ms_f 50.0))

let spawn_flusher st =
  Engine.spawn st.eng ~name:"presto-flusher" (flusher st st.gen)

(* Overlay NVRAM contents (in-flight first, then the dirty map so newer
   bytes win) onto a buffer of platter data. *)
let overlay st ~off buf =
  (match st.in_flight with
  | Some (ioff, idata) ->
      let lo = Stdlib.max off ioff in
      let hi = Stdlib.min (off + Bytes.length buf) (ioff + Bytes.length idata) in
      if hi > lo then Bytes.blit idata (lo - ioff) buf (lo - off) (hi - lo)
  | None -> ());
  Extent_map.apply st.dirty ~off buf

let dirty_bytes st = used st
let flush_retries st = Nfsg_stats.Metrics.value st.inst.m_flush_retries

(* A detected battery fault, as a real Prestoserve driver handles it:
   the board stops accepting new dirty data (writes degrade to
   synchronous pass-through, {!Device.t.accelerated} turns false) and
   drains what it holds to the platter as fast as it can. Until that
   drain completes the board's contents are volatile — a power crash in
   the window loses them (see {!recover}). *)
let fail_battery st =
  if st.battery_ok then begin
    st.battery_ok <- false;
    st.draining <- true;
    Nfsg_stats.Metrics.incr st.inst.m_battery_failures;
    Nfsg_stats.Metrics.set st.inst.m_battery_gauge 0.0;
    Condition.signal st.more
  end

let repair_battery st =
  st.battery_ok <- true;
  Nfsg_stats.Metrics.set st.inst.m_battery_gauge 1.0

let drain st =
  st.draining <- true;
  Condition.signal st.more;
  while not (is_clean st) do
    Condition.wait st.clean
  done

let create eng ?(name = "presto") ?(params = default_params) ?metrics
    ?(cpu_charge = fun _ -> ()) backing =
  let metrics = match metrics with Some m -> m | None -> Nfsg_stats.Metrics.create () in
  let st =
    {
      eng;
      p = params;
      backing;
      dirty = Extent_map.create ();
      copying = 0;
      in_flight = None;
      rotor = 0;
      crashed = false;
      draining = false;
      battery_ok = true;
      gen = 0;
      more = Condition.create ();
      space = Condition.create ();
      clean = Condition.create ();
      inst = make_inst metrics ~name;
    }
  in
  spawn_flusher st;
  let copy_time len =
    st.p.copy_overhead + Time.of_sec_f (float_of_int len /. st.p.copy_rate)
  in
  (* A powered-off board services nothing: park the caller forever,
     like an unplugged drive. *)
  let check_power () =
    if st.crashed then Engine.park ()
  in
  (* A write the board cannot hold goes to the platter as a synchronous
     write of the same gather list: the buffers stay fixed until this
     request completes, and the forwarded one completes first. *)
  let pass_through counter ~off bufs =
    Nfsg_stats.Metrics.incr counter;
    let fwd = Io.write_req ~class_:`Sync_write ~off bufs in
    st.backing.Device.submit [ Io.Req fwd ];
    Io.await fwd
  in
  let write (r : Io.req) bufs =
    check_power ();
    let off = r.Io.off and len = r.Io.len in
    if not st.battery_ok then
      (* Battery fault: RAM is no longer stable storage, so the board
         may not acknowledge from it — synchronous pass-through. *)
      pass_through st.inst.m_passthrough ~off bufs
    else if len > st.p.accept_limit then
      (* Declined: degrade to underlying device speed (paper 6.3). *)
      pass_through st.inst.m_declined ~off bufs
    else begin
      while used st + len > st.p.capacity do
        Condition.wait st.space
      done;
      (* The battery may have failed while we waited for space. *)
      if not st.battery_ok then pass_through st.inst.m_passthrough ~off bufs
      else begin
        (* The bytes hold their room from the space check on, so a
           writer that checks during this copy sees them. *)
        st.copying <- st.copying + len;
        let d = copy_time len in
        cpu_charge d;
        Engine.delay d;
        st.copying <- st.copying - len;
        Extent_map.insert st.dirty ~off (Io.sub r ~pos:0 ~len);
        Nfsg_stats.Metrics.incr st.inst.m_accepted;
        note_dirty st;
        Condition.signal st.more
      end
    end
  in
  let read ~off ~len =
    check_power ();
    if Extent_map.covers st.dirty ~off ~len then begin
      (* Whole range cached: served from RAM at copy speed. *)
      Nfsg_stats.Metrics.incr st.inst.m_read_hits;
      Engine.delay (copy_time len);
      let buf = Bytes.create len in
      overlay st ~off buf;
      buf
    end
    else begin
      Nfsg_stats.Metrics.incr st.inst.m_read_misses;
      let buf = Io.blocking_read ~submit:st.backing.Device.submit ~off ~len in
      overlay st ~off buf;
      buf
    end
  in
  let crash () =
    st.crashed <- true;
    st.backing.Device.crash ()
  in
  let recover () =
    st.backing.Device.recover ();
    (* Battery-backed replay: in-flight first, then the dirty map so the
       newest bytes win, exactly like the read overlay. A failed battery
       kept nothing across the outage — whatever had not drained is
       gone (which is why a battery fault forces an immediate drain). *)
    if st.battery_ok then begin
      (match st.in_flight with
      | Some (off, data) -> st.backing.Device.stable_write ~off data
      | None -> ());
      Extent_map.iter (fun off data -> st.backing.Device.stable_write ~off data) st.dirty
    end;
    (match st.in_flight with Some _ -> st.in_flight <- None | None -> ());
    Extent_map.remove_range st.dirty ~off:0 ~len:st.backing.Device.capacity;
    st.crashed <- false;
    st.draining <- false;
    st.gen <- st.gen + 1;
    spawn_flusher st;
    Condition.broadcast st.space;
    Condition.broadcast st.clean
  in
  let stable_read ~off ~len =
    let buf = st.backing.Device.stable_read ~off ~len in
    (* With a failed battery the board's RAM is volatile, not stable. *)
    if st.battery_ok then overlay st ~off buf;
    buf
  in
  (* The board has no queue of its own: requests are serviced in the
     submitter's process, at copy (or pass-through) speed, and are
     stable the moment they complete, so each epoch of a batch is done
     when the loop over it returns. *)
  let serve (r : Io.req) =
    match r.Io.op with
    | Io.Write bufs -> write r bufs
    | Io.Read buf -> Bytes.blit (read ~off:r.Io.off ~len:r.Io.len) 0 buf 0 r.Io.len
  in
  let run reqs k =
    k
      (List.fold_left
         (fun err r ->
           match serve r with
           | () ->
               Io.complete r;
               err
           | exception e ->
               Io.fail r e;
               if err = None then Some e else err)
         None reqs)
  in
  let submit items =
    check_power ();
    Io.epochs items ~run
  in
  let dev =
    {
      Device.name;
      capacity = backing.Device.capacity;
      accelerated = (fun () -> st.battery_ok);
      submit;
      read;
      write = (fun ~off data -> Io.blocking_write ~submit ~off data);
      crash;
      recover;
      spindle_stats = backing.Device.spindle_stats;
      stable_read;
      stable_write = backing.Device.stable_write;
      stable_page = Device.no_page;
    }
  in
  (st, dev)
