(* A waiter leaves the queue only when a signal takes it; one that timed
   out is marked dead and skipped. *)
type waiter = {
  proc : Engine.proc;
  mutable live : bool;
  mutable signalled : bool;
  mutable timeout : Engine.timer option;
}

type t = { q : waiter Queue.t }

let create () = { q = Queue.create () }

let wait c =
  Queue.add { proc = Engine.self (); live = true; signalled = false; timeout = None } c.q;
  Engine.park ()

let wait_timeout eng c d =
  let w = { proc = Engine.self (); live = true; signalled = false; timeout = None } in
  w.timeout <-
    Some
      (Engine.timer eng ~after:d (fun () ->
           if w.live then begin
             w.live <- false;
             Engine.unpark w.proc
           end));
  Queue.add w c.q;
  Engine.park ();
  w.signalled

(* A signal also cancels the waiter's pending timeout. *)
let wake w =
  w.live <- false;
  w.signalled <- true;
  Option.iter (fun tm -> ignore (Engine.cancel tm : bool)) w.timeout;
  Engine.unpark w.proc

let rec signal c =
  if not (Queue.is_empty c.q) then begin
    let w = Queue.take c.q in
    if w.live then wake w else signal c
  end

let broadcast c =
  while not (Queue.is_empty c.q) do
    let w = Queue.take c.q in
    if w.live then wake w
  done
