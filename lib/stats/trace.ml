open Nfsg_sim

type event = Time.t * string * string

(* Fixed-capacity ring: long chaos/bench runs keep the newest
   [capacity] events in O(capacity) memory instead of growing a list
   O(events). [head] is the slot the next event lands in; once [len]
   reaches capacity the ring wraps and [dropped] counts the overwritten
   oldest events. *)
type t = {
  eng : Engine.t;
  ring : event array;
  mutable head : int;
  mutable len : int;
  mutable dropped : int;
}

let create ?(capacity = 4096) eng =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be positive";
  {
    eng;
    ring = Array.make capacity (Time.zero, "", "");
    head = 0;
    len = 0;
    dropped = 0;
  }

let capacity t = Array.length t.ring
let dropped t = t.dropped

let emit t ~actor event =
  let cap = Array.length t.ring in
  t.ring.(t.head) <- (Engine.now t.eng, actor, event);
  t.head <- (t.head + 1) mod cap;
  if t.len < cap then t.len <- t.len + 1 else t.dropped <- t.dropped + 1

let events t =
  let cap = Array.length t.ring in
  let start = (t.head - t.len + cap) mod cap in
  List.init t.len (fun i -> t.ring.((start + i) mod cap))

let render t =
  match events t with
  | [] -> "(empty trace)\n"
  | (t0, _, _) :: _ as evs ->
      let buf = Buffer.create 1024 in
      let actor_width =
        List.fold_left (fun w (_, a, _) -> Stdlib.max w (String.length a)) 0 evs
      in
      if t.dropped > 0 then
        Buffer.add_string buf
          (Printf.sprintf "  (%d older events dropped by the ring buffer)\n" t.dropped);
      List.iter
        (fun (tm, actor, event) ->
          Buffer.add_string buf
            (Printf.sprintf "  t=+%8.3fms  %-*s  %s\n"
               (Time.to_ms_f (tm - t0))
               actor_width actor event))
        evs;
      Buffer.contents buf

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0
