(* The pre-PR-7 vnode convoy: the write path parks on the disk round
   trip while still holding the vnode lock, so every other writer to
   the same file convoys behind one spindle rotation. This is the
   exact shape the deadline-scheduler PR fixed, kept here as the
   golden Y001. *)

let await_disk () = Engine.suspend ()

let handle_write v =
  Fs.lock v;
  await_disk ();
  Fs.unlock v
