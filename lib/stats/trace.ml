open Nfsg_sim

(* A ring in parallel arrays, so a record builds no tuple. [head] is
   the next slot; once [len] reaches capacity the ring wraps and
   [dropped] counts the overwritten oldest items. The first record
   allocates the slots, filling the items with [dummy]: Array.make
   from the item being recorded, which is young, would first force a
   minor collection. *)
type 'a t = {
  eng : Engine.t;
  capacity : int;
  dummy : 'a;
  mutable at : Time.t array;
  mutable actors : string array;
  mutable items : 'a array;
  mutable head : int;
  mutable len : int;
  mutable dropped : int;
}

let create eng ~capacity ~dummy =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be positive";
  { eng; capacity; dummy; at = [||]; actors = [||]; items = [||]; head = 0; len = 0; dropped = 0 }

let dropped t = t.dropped

let record t ~actor item =
  if Array.length t.items = 0 then begin
    t.at <- Array.make t.capacity Time.zero;
    t.actors <- Array.make t.capacity "";
    t.items <- Array.make t.capacity t.dummy
  end;
  t.at.(t.head) <- Engine.now t.eng;
  t.actors.(t.head) <- actor;
  t.items.(t.head) <- item;
  t.head <- (if t.head + 1 = t.capacity then 0 else t.head + 1);
  if t.len < t.capacity then t.len <- t.len + 1 else t.dropped <- t.dropped + 1

let events t =
  let start = (t.head - t.len + t.capacity) mod t.capacity in
  List.init t.len (fun i ->
      let k = (start + i) mod t.capacity in
      (t.at.(k), t.actors.(k), t.items.(k)))
