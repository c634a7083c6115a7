(* The annotation escape hatch: the analysis cannot see through this
   body, so the author declares the effect (with a reason) and the
   caller inherits Park through it. *)

(* nfsrace: yields parks the calling fiber until the controller raises its completion interrupt *)
let controller_wait () = ()

let drain v = Fs.with_lock v (fun () -> controller_wait ())
