type t = { name : string; mutable permits : int; waiting : (unit -> unit) Queue.t }

let create ?(name = "sem") n =
  if n < 0 then invalid_arg (name ^ ": negative permit count");
  { name; permits = n; waiting = Queue.create () }


let acquire s =
  if s.permits > 0 then s.permits <- s.permits - 1
  else Engine.suspend (fun wake -> Queue.add (fun () -> wake ()) s.waiting)

let try_acquire s =
  if s.permits > 0 then begin
    s.permits <- s.permits - 1;
    true
  end
  else false

let release s =
  match Queue.take_opt s.waiting with
  | Some wake -> wake () (* permit passes directly to the waiter *)
  | None -> s.permits <- s.permits + 1
