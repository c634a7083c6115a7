(* Simulated worlds own their state and take their configuration as
   values, so there is nothing to reset between them. See reset.mli
   for why the function exists. *)

let run_all () = ()
