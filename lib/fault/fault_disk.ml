open Nfsg_sim
module Device = Nfsg_disk.Device
module Io = Nfsg_disk.Io

type window = { from_ : Time.t; until : Time.t }

let in_window w now = w.from_ <= now && now < w.until
let live w now = now < w.until

type t = {
  eng : Engine.t;
  rng : Rng.t;
  name : string;
  mutable fail_next : int;
  mutable fail_classes : (Io.class_ * int) list;
  mutable error_windows : (window * float) list;
  mutable slowdown_windows : (window * float) list;
  mutable hang_windows : window list;
  mutable errors_injected : int;
  mutable slowdowns : int;
  mutable hangs : int;
  mutable failed_stop : bool;
  mutable fail_stops : int;
}

let errors_injected t = t.errors_injected
let slowdowns t = t.slowdowns
let hangs t = t.hangs
let fail_stops t = t.fail_stops
let is_failed t = t.failed_stop

(* Fail-stop: the whole spindle is gone — every request errors
   immediately and even the stable paths refuse, unlike the transient
   arms, which model a disk that is still a disk. This is the fault an
   array driver is built to survive. *)
let fail_stop t =
  if not t.failed_stop then begin
    t.failed_stop <- true;
    t.fail_stops <- t.fail_stops + 1
  end

let revive t = t.failed_stop <- false

let fail_next ?(n = 1) t =
  if n < 0 then invalid_arg "Fault_disk.fail_next: need n >= 0";
  t.fail_next <- t.fail_next + n

let fail_class ?(n = 1) t cls =
  if n < 0 then invalid_arg "Fault_disk.fail_class: need n >= 0";
  t.fail_classes <- (cls, n) :: t.fail_classes

let check_window ~from_ ~until =
  if until <= from_ then invalid_arg "Fault_disk: empty fault window"

let error_window t ~from_ ~until ~prob =
  check_window ~from_ ~until;
  if prob < 0.0 || prob > 1.0 then invalid_arg "Fault_disk.error_window: need 0 <= prob <= 1";
  t.error_windows <- ({ from_; until }, prob) :: t.error_windows

let slowdown_window t ~from_ ~until ~factor =
  check_window ~from_ ~until;
  if factor < 1.0 then invalid_arg "Fault_disk.slowdown_window: need factor >= 1";
  t.slowdown_windows <- ({ from_; until }, factor) :: t.slowdown_windows

let hang_window t ~from_ ~until =
  check_window ~from_ ~until;
  t.hang_windows <- { from_; until } :: t.hang_windows

let clear t =
  t.fail_next <- 0;
  t.fail_classes <- [];
  t.error_windows <- [];
  t.slowdown_windows <- [];
  t.hang_windows <- []

(* Lazy pruning keeps the window lists from growing with history while
   never consulting the clock outside an operation. *)
let prune t now =
  t.error_windows <- List.filter (fun (w, _) -> live w now) t.error_windows;
  t.slowdown_windows <- List.filter (fun (w, _) -> live w now) t.slowdown_windows;
  t.hang_windows <- List.filter (fun w -> live w now) t.hang_windows

(* Should this particular request fail? The targeted class arm takes
   precedence, then the deterministic fail_next count, then the
   probabilistic error windows. *)
let should_fail t now (r : Io.req) =
  match List.assoc_opt r.Io.class_ t.fail_classes with
  | Some n when n > 0 ->
      t.fail_classes <-
        List.map (fun (c, k) -> if c = r.Io.class_ then (c, k - 1) else (c, k)) t.fail_classes;
      true
  | _ -> (
      if t.fail_next > 0 then begin
        t.fail_next <- t.fail_next - 1;
        true
      end
      else
        match List.find_opt (fun (w, _) -> in_window w now) t.error_windows with
        | Some (_, prob) -> Rng.bool t.rng prob
        | None -> false)

let op_name (r : Io.req) = match r.Io.op with Io.Read -> "read" | Io.Write -> "write"

(* Interpose on a request so the degraded-spindle tax lands between the
   real completion and the issuer's: forward a twin, and when the twin
   completes, stretch the observed service time by (factor - 1). *)
let slow_twin t ~start ~factor (r : Io.req) =
  let inner = { r with Io.done_ = Ivar.create (); error = None } in
  Ivar.upon inner.Io.done_ (fun () ->
      let finish () =
        match inner.Io.error with Some e -> Io.fail r e | None -> Io.complete r
      in
      let elapsed = Engine.now t.eng - start in
      if elapsed > 0 then begin
        t.slowdowns <- t.slowdowns + 1;
        Engine.schedule t.eng
          ~after:(int_of_float (float_of_int elapsed *. (factor -. 1.0)))
          finish
      end
      else finish ());
  inner

(* Deliver a batch to the inner device, applying per-request faults.
   Hang holds the whole batch (order within it must survive) until the
   window closes. A failed request is answered here and never reaches
   the device; once a barrier passes with a failure ahead of it in
   this batch, everything behind the barrier fails too — the barrier
   ordered them because they depend on the failed data being stable. *)
let rec deliver t (dev : Device.t) items =
  if t.failed_stop then begin
    let e = Device.Io_error (t.name ^ ": fail-stopped") in
    List.iter
      (fun item -> match item with Io.Req _ -> Io.fail_item item e | Io.Barrier b -> Ivar.fill b.done_ ())
      items
  end
  else deliver_live t dev items

and deliver_live t (dev : Device.t) items =
  let now = Engine.now t.eng in
  prune t now;
  match List.find_opt (fun w -> in_window w now) t.hang_windows with
  | Some w ->
      t.hangs <- t.hangs + 1;
      Engine.schedule t.eng ~after:(w.until - now) (fun () ->
          (* A fresh process, not the timer callback: the inner submit
             may charge time (an NVRAM admission wait). *)
          Engine.spawn t.eng ~name:(t.name ^ "-delayed") (fun () -> deliver t dev items))
  | None ->
      let failed = ref None in
      let poisoned = ref None in
      let forward = ref [] in
      let slow = List.find_opt (fun (w, _) -> in_window w now) t.slowdown_windows in
      List.iter
        (fun item ->
          match (!poisoned, item) with
          | Some e, it -> Io.fail_item it e
          | None, Io.Barrier b ->
              (match !failed with
              | Some e ->
                  poisoned := Some e;
                  Ivar.fill b.done_ ()
              | None -> forward := item :: !forward)
          | None, Io.Req r ->
              if should_fail t now r then begin
                t.errors_injected <- t.errors_injected + 1;
                let e =
                  Device.Io_error (Printf.sprintf "%s: injected %s error" t.name (op_name r))
                in
                if !failed = None then failed := Some e;
                Io.fail r e
              end
              else
                let fwd =
                  match slow with
                  | Some (_, factor) -> Io.Req (slow_twin t ~start:now ~factor r)
                  | None -> item
                in
                forward := fwd :: !forward)
        items;
      match List.rev !forward with [] -> () | batch -> dev.Device.submit batch

let wrap eng ?(seed = 0xd15c) (dev : Device.t) =
  let t =
    {
      eng;
      rng = Rng.create seed;
      name = dev.Device.name ^ "+fault";
      fail_next = 0;
      fail_classes = [];
      error_windows = [];
      slowdown_windows = [];
      hang_windows = [];
      errors_injected = 0;
      slowdowns = 0;
      hangs = 0;
      failed_stop = false;
      fail_stops = 0;
    }
  in
  let submit items = deliver t dev items in
  let check_stop () =
    if t.failed_stop then raise (Device.Io_error (t.name ^ ": fail-stopped"))
  in
  let wrapped =
    {
      dev with
      Device.name = t.name;
      submit;
      read = (fun ~off ~len -> Io.blocking_read ~submit ~off ~len);
      write = (fun ~off data -> Io.blocking_write ~submit ~class_:`Sync_write ~off data);
      (* The transient arms never guard the stable paths — they model a
         disk that still works. Fail-stop is the spindle being gone, so
         here even stable ops refuse. *)
      stable_read =
        (fun ~off ~len ->
          check_stop ();
          dev.Device.stable_read ~off ~len);
      stable_write =
        (fun ~off data ->
          check_stop ();
          dev.Device.stable_write ~off data);
    }
  in
  (t, wrapped)
