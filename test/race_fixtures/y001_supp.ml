(* A deliberate park under the vnode lock, carrying its reason: the
   paper's synchronous baseline really does hold the lock across the
   disk write. *)

let handle_sync v =
  Fs.with_lock v (fun () ->
      (* nfsrace: allow Y001 the synchronous baseline holds the vnode lock across the disk write by design *)
      Engine.suspend ())
