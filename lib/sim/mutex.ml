type t = {
  name : string;
  mutable holder : string option;
  waiting : Engine.proc Queue.t;
}

let create ?(name = "mutex") () = { name; holder = None; waiting = Queue.create () }
let locked m = m.holder <> None

let lock m =
  match m.holder with
  | None -> m.holder <- Some (Engine.self_name ())
  | Some _ ->
      Queue.add (Engine.self ()) m.waiting;
      Engine.park ();
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
  if Queue.is_empty m.waiting then m.holder <- None
  else begin
    (* Keep the mutex formally held across the hand-off so a third
       process cannot barge in between unlock and wake-up. *)
    m.holder <- Some "<in transfer>";
    Engine.unpark (Queue.take m.waiting)
  end

let with_lock m f =
  Locked.run ~acquire:(fun () -> lock m) ~release:(fun () -> unlock m) f
