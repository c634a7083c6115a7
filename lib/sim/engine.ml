open Effect
open Effect.Deep

(* Events are either plain callbacks (spawn bodies, [schedule]d
   functions, timers) or typed process resumptions. Carrying the
   continuation in an inline record instead of wrapping it in a
   closure keeps the Delay/Suspend/Yield fast path down to one small
   allocation per event; the run loop below is the single place that
   restores [current_name] and the suspended count, rather than every
   handler building a closure to do it. *)
type ev =
  | Thunk of (unit -> unit)
  | Resume : {
      name : string;
      k : ('a, unit) continuation;
      v : 'a;
      parked : bool;  (** counted in [suspended] (Delay/Suspend, not Yield) *)
    }
      -> ev

type t = {
  mutable clock : Time.t;
  mutable seq : int;
  events : ev Heap.t;
  mutable suspended : int;
  mutable processed : int;
}

exception Not_in_process

type _ Effect.t +=
  | Delay : Time.t -> unit Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Yield : unit Effect.t

(* nfslint: allow S001 only the running process's name: every resume sets it and every exit from run clears it, so no world sees another's *)
let current_name = ref "?"
let self_name () = !current_name

let create () =
  { clock = Time.zero; seq = 0; events = Heap.create (); suspended = 0; processed = 0 }

let now t = t.clock
let suspended_count t = t.suspended
let events_processed t = t.processed

let push_at t time ev =
  t.seq <- t.seq + 1;
  Heap.add t.events ~key:time ~seq:t.seq ev

let push t ev = push_at t t.clock ev

let schedule t ~after f =
  if after < 0 then invalid_arg "Engine.schedule: negative delay";
  push_at t (t.clock + after) (Thunk f)

type timer = { mutable cancelled : bool; mutable fired : bool }

let timer t ~after f =
  let tm = { cancelled = false; fired = false } in
  schedule t ~after (fun () ->
      if not tm.cancelled then begin
        tm.fired <- true;
        f ()
      end);
  tm

let cancel tm =
  if tm.fired || tm.cancelled then false
  else begin
    tm.cancelled <- true;
    true
  end

let spawn t ?(name = "proc") f =
  let handler =
    {
      retc = (fun () -> ());
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Delay d ->
              Some
                (fun (k : (a, unit) continuation) ->
                  if d < 0 then invalid_arg "Engine.delay: negative delay";
                  t.suspended <- t.suspended + 1;
                  push_at t (t.clock + d) (Resume { name; k; v = (); parked = true }))
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  t.suspended <- t.suspended + 1;
                  let woken = ref false in
                  let wake v =
                    if !woken then invalid_arg "Engine.suspend: woken twice";
                    woken := true;
                    push t (Resume { name; k; v; parked = true })
                  in
                  register wake)
          | Yield ->
              Some
                (fun (k : (a, unit) continuation) ->
                  push t (Resume { name; k; v = (); parked = false }))
          | _ -> None);
    }
  in
  push t
    (Thunk
       (fun () ->
         current_name := name;
         match_with f () handler))

let run ?until t =
  let continue_run () =
    (not (Heap.is_empty t.events))
    &&
    match until with Some u -> Heap.min_key t.events <= u | None -> true
  in
  (* Whether the queue drains or a process raises, the caller is back
     outside every process. *)
  Fun.protect ~finally:(fun () -> current_name := "?") (fun () ->
      while continue_run () do
        let key = Heap.min_key t.events in
        let ev = Heap.pop_min t.events in
        t.clock <- key;
        t.processed <- t.processed + 1;
        match ev with
        | Thunk f -> f ()
        | Resume { name; k; v; parked } ->
            if parked then t.suspended <- t.suspended - 1;
            current_name := name;
            continue k v
      done);
  match until with Some u when t.clock < u -> t.clock <- u | Some _ | None -> ()

let not_in_process_guard (f : unit -> 'a) : 'a =
  try f () with Effect.Unhandled _ -> raise Not_in_process

let delay d = not_in_process_guard (fun () -> perform (Delay d))
let suspend register = not_in_process_guard (fun () -> perform (Suspend register))
let yield () = not_in_process_guard (fun () -> perform Yield)

let yield_primitives =
  [ ("Engine", "suspend", `Park); ("Engine", "delay", `Delay); ("Engine", "yield", `Delay) ]
