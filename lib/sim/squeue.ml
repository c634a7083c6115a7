(* A put that finds a getter waiting hands its value over through
   [handoff] rather than [items]: getters woken at one instant resume in
   wake order and each takes the next handed-off value, while a [get]
   issued later in that instant finds [items] empty and waits its
   turn. *)
type 'a t = { items : 'a Queue.t; getters : Engine.proc Queue.t; handoff : 'a Queue.t }

let create () = { items = Queue.create (); getters = Queue.create (); handoff = Queue.create () }

let put q v =
  if Queue.is_empty q.getters then Queue.add v q.items
  else begin
    Queue.add v q.handoff;
    Engine.unpark (Queue.take q.getters)
  end

let get q =
  if not (Queue.is_empty q.items) then Queue.take q.items
  else begin
    Queue.add (Engine.self ()) q.getters;
    Engine.park ();
    Queue.take q.handoff
  end

let length q = Queue.length q.items
let iter f q = Queue.iter f q.items
