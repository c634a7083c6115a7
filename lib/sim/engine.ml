open Effect
open Effect.Deep

(* A process is a record allocated once, at spawn. Every wait queues
   the record's own [run] event, and the process's continuation waits
   in [k], so a switch allocates nothing but the continuation the
   runtime captures. Callbacks ([schedule]d functions, timers, spawn
   starts) are plain thunks. *)
type t = {
  mutable clock : Time.t;
  mutable seq : int;
  events : ev Heap.t;
  mutable suspended : int;
  mutable processed : int;
}

and ev = Thunk of (unit -> unit) | Run of proc

and proc = {
  name : string;
  eng : t;
  mutable k : (unit, unit) continuation;  (** valid while parked; [idle] before the first park *)
  mutable queued : bool;  (** [run] is in the event queue *)
  mutable parked : bool;  (** counted in [suspended] (park/delay, not yield) *)
  run : ev;  (** [Run] of this record *)
}

exception Not_in_process

type _ Effect.t += Park : unit Effect.t

(* A continuation that is never resumed. It fills a process's [k] until
   the process first parks, so that [k] needs no option box. *)
let idle : (unit, unit) continuation =
  let k : (unit, unit) continuation option ref = ref None in
  match_with perform Park
    {
      retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Park -> Some (fun (c : (a, unit) continuation) -> k := Some c)
          | _ -> None);
    };
  Option.get !k

let create () =
  {
    clock = Time.zero;
    seq = 0;
    events = Heap.create ~dummy:(Thunk ignore);
    suspended = 0;
    processed = 0;
  }

let make_proc eng name =
  let rec p = { name; eng; k = idle; queued = false; parked = false; run = Run p } in
  p

(* Stands in for the running process between processes and in
   callbacks. *)
let outside = make_proc (create ()) "?"

(* nfslint: allow S001 only the running process: every process event sets it and every callback and every exit from run reset it, so no world sees another's *)
let current = ref outside

let self () =
  let p = !current in
  if p == outside then raise Not_in_process;
  p

let self_name () = !current.name
let now t = t.clock
let suspended_count t = t.suspended
let events_processed t = t.processed

let push_at t time ev =
  t.seq <- t.seq + 1;
  Heap.add t.events ~key:time ~seq:t.seq ev

let push t ev = ignore (push_at t t.clock ev : Heap.handle)

let schedule_entry t ~after f =
  if after < 0 then invalid_arg "Engine.schedule: negative delay";
  push_at t (t.clock + after) (Thunk f)

let schedule t ~after f = ignore (schedule_entry t ~after f : Heap.handle)

(* A timer is its queue entry: cancelling removes the entry, so a
   cancelled timer neither runs nor lingers in the queue until its
   instant. Once the entry has been popped the handle is stale and
   [Heap.remove] refuses it. *)
type timer = { queue : ev Heap.t; entry : Heap.handle }

let timer t ~after f = { queue = t.events; entry = schedule_entry t ~after f }
let cancel tm = Heap.remove tm.queue tm.entry

(* Every process runs under this one handler: a [Park] stores the
   continuation in the running process, whose [run] event is already
   queued or is queued later by whoever unparks it. *)
let stash = Some (fun k -> !current.k <- k)

let handler =
  {
    retc = ignore;
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with Park -> (stash : ((a, unit) continuation -> unit) option) | _ -> None);
  }

let spawn t ?(name = "proc") f =
  let p = make_proc t name in
  push t
    (Thunk
       (fun () ->
         current := p;
         match_with f () handler))

let run ?until t =
  let continue_run () =
    (not (Heap.is_empty t.events))
    &&
    match until with Some u -> Heap.min_key t.events <= u | None -> true
  in
  (* Whether the queue drains or a process raises, the caller is back
     outside every process. *)
  Fun.protect ~finally:(fun () -> current := outside) (fun () ->
      while continue_run () do
        let key = Heap.min_key t.events in
        let ev = Heap.pop_min t.events in
        t.clock <- key;
        t.processed <- t.processed + 1;
        match ev with
        | Thunk f ->
            current := outside;
            f ()
        | Run p ->
            p.queued <- false;
            if p.parked then begin
              p.parked <- false;
              t.suspended <- t.suspended - 1
            end;
            current := p;
            continue p.k ()
      done);
  match until with Some u when t.clock < u -> t.clock <- u | Some _ | None -> ()

let enqueue p time =
  if p.queued then invalid_arg ("Engine: " ^ p.name ^ " is already queued");
  p.queued <- true;
  ignore (push_at p.eng time p.run : Heap.handle)

let unpark p = enqueue p p.eng.clock

let sleep p =
  p.parked <- true;
  p.eng.suspended <- p.eng.suspended + 1;
  perform Park

let park () = sleep (self ())

let delay d =
  let p = self () in
  if d < 0 then invalid_arg "Engine.delay: negative delay";
  enqueue p (p.eng.clock + d);
  sleep p

let yield () =
  let p = self () in
  enqueue p p.eng.clock;
  perform Park

let suspend register =
  let p = self () in
  let slot = ref None in
  register (fun v ->
      if Option.is_some !slot then invalid_arg "Engine.suspend: woken twice";
      slot := Some v;
      unpark p);
  park ();
  Option.get !slot

let yield_primitives =
  [
    ("Engine", "park", `Park);
    ("Engine", "suspend", `Park);
    ("Engine", "delay", `Delay);
    ("Engine", "yield", `Delay);
  ]
