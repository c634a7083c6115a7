type t = {
  name : string;
  mutable holder : string option;
  waiting : (unit -> unit) Queue.t;
}

let create ?(name = "mutex") () = { name; holder = None; waiting = Queue.create () }
let locked m = m.holder <> None

let lock m =
  match m.holder with
  | None -> m.holder <- Some (Engine.self_name ())
  | Some _ ->
      Engine.suspend (fun wake -> Queue.add (fun () -> wake ()) m.waiting);
      (* The unlocker transferred ownership before waking us. *)
      m.holder <- Some (Engine.self_name ())

let try_lock m =
  match m.holder with
  | None ->
      m.holder <- Some (Engine.self_name ());
      true
  | Some _ -> false

let unlock m =
  (match m.holder with
  | None -> invalid_arg (m.name ^ ": unlock of a free mutex")
  | Some h ->
      if h <> Engine.self_name () then
        invalid_arg
          (Printf.sprintf "%s: unlock by %s but held by %s" m.name (Engine.self_name ()) h));
  match Queue.take_opt m.waiting with
  | None -> m.holder <- None
  | Some wake ->
      (* Keep the mutex formally held across the hand-off so a third
         process cannot barge in between unlock and wake-up. *)
      m.holder <- Some "<in transfer>";
      wake ()

let with_lock m f =
  Locked.run ~acquire:(fun () -> lock m) ~release:(fun () -> unlock m) f
