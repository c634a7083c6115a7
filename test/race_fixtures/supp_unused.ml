(* A suppression that matches nothing has silently stopped doing its
   job — flag it so it gets deleted. *)

(* nfsrace: allow Y001 there used to be a park under this lock *)
let quiet v = Fs.with_lock v (fun () -> ())
