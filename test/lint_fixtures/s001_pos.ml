(* S001 positive: top-level mutable state with no reasoned allow. *)
let cache : (int, string) Hashtbl.t = Hashtbl.create 16
