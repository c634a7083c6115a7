type t = { name : string; mutable permits : int; waiting : Engine.proc Queue.t }

let create ?(name = "sem") n =
  if n < 0 then invalid_arg (name ^ ": negative permit count");
  { name; permits = n; waiting = Queue.create () }


let acquire s =
  if s.permits > 0 then s.permits <- s.permits - 1
  else begin
    Queue.add (Engine.self ()) s.waiting;
    Engine.park ()
  end

let try_acquire s =
  if s.permits > 0 then begin
    s.permits <- s.permits - 1;
    true
  end
  else false

let release s =
  if Queue.is_empty s.waiting then s.permits <- s.permits + 1
  else Engine.unpark (Queue.take s.waiting) (* permit passes directly to the waiter *)
