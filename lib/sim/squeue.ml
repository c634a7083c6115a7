type 'a t = { items : 'a Queue.t; getters : ('a -> unit) Queue.t }

let create () = { items = Queue.create (); getters = Queue.create () }

let put q v =
  match Queue.take_opt q.getters with
  | Some wake -> wake v
  | None -> Queue.add v q.items

let get q =
  match Queue.take_opt q.items with
  | Some v -> v
  | None -> Engine.suspend (fun wake -> Queue.add wake q.getters)

let length q = Queue.length q.items
let iter f q = Queue.iter f q.items
