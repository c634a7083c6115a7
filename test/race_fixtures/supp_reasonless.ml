(* A suppression with no justification is itself an error: the whole
   point of the marker is the recorded reason. *)

let handle_sync v =
  Fs.with_lock v (fun () ->
      (* nfsrace: allow Y001 *)
      Engine.suspend ())
