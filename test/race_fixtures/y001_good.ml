(* The fixed shape: bounded work under the lock, the open-ended park
   only after the scoped release. *)

let pace () = Engine.delay 1.0

let handle_write v =
  Fs.with_lock v (fun () -> pace ());
  Engine.suspend ()
